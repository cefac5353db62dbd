(** The paper's experiment suite (see DESIGN.md's experiment index).

    Each experiment regenerates one table row or figure: it builds the
    workloads and runs every engine involved, one {!row} per run, and
    returns them as a {!t}: the tables to print, any summary lines, the
    experiment-level values of its BENCH file and its claims.  The
    experiments print nothing themselves (bar [--check-conflicts]
    reports, as each run finishes): {!Cli.bench} prints the tables,
    writes the BENCH file and checks the claims.  [scale] trades
    precision for wall-clock time: 1.0 is the full configuration used in
    EXPERIMENTS.md, smaller values shrink transaction counts and table
    sizes proportionally (minimum sizes are enforced).

    The extension experiments carry claims on the values they hold
    (metrics, checksums, feed digests, overheads); {!check} lists each
    false claim in one {!Claim_failed}.  [dune runtest] runs every
    target at scale 0.25 (test_harness' "bench targets write their
    rows"). *)

exception Claim_failed of string list
(** One line per false claim, naming its value and bound. *)

val check : (bool * string) list -> unit
(** [check claims] raises {!Claim_failed} with the line of every claim
    whose flag is false, in order; it does nothing when all hold. *)

val tracer : Quill_trace.Trace.t ref
(** Tracer used for every run of the suite (default: the disabled null
    tracer).  Set it to an enabled tracer to capture the whole suite in
    one trace file. *)

val check_conflicts : bool ref
(** When set (bench/CLI [--check-conflicts]), every QueCC-family run in
    the suite (dist-quecc only without replicas) records its row
    accesses and is replayed through
    {!Quill_analysis.Conflict_check} after it completes; a per-run
    [\[conflict-check\]] summary is printed, and a violation or an empty
    access log fails the run's claims.  Recording never affects virtual
    time, so results are identical to an unchecked run. *)

type row = {
  label : string;  (** the printed row label *)
  sweep : string option;  (** the swept parameter's value in its table *)
  exp : Experiment.t;
  metrics : Quill_txn.Metrics.t;
  checksum : int;  (** {!Quill_storage.Db.checksum} of the committed state *)
  digest : int option;  (** the CDC feed digest, on a run with a feed *)
}
(** One run of an experiment: the one row shape behind every printed
    table row and every BENCH row. *)

type table = {
  title : string;
  param : string option;
      (** the swept parameter: the rows print one table set per
          consecutive [sweep] value; [None] prints one table set *)
  rows : row list;
}

type t = {
  tables : table list;
  notes : string list;  (** lines printed after the tables *)
  summary : (string * Bench_json.value) list;
      (** experiment-level BENCH values, written after ["scale"] *)
  claims : (bool * string) list;  (** for {!check} *)
}

val series : row list -> (string option * row list) list
(** A table's rows per consecutive [sweep] value, in order: the row sets
    that print as one table each. *)

val print : phase_table:bool -> t -> unit
(** Prints every table through {!Report} (the phases group only when
    [phase_table]), then the notes. *)

val table2_row1 : ?scale:float -> unit -> t
(** Centralized QueCC vs deterministic H-Store, YCSB multi-partition
    sweep (paper: two orders of magnitude at high MP%). *)

val table2_row2 : ?scale:float -> unit -> t
(** Distributed QueCC vs Calvin, YCSB uniform low contention
    (paper: 22x). *)

val table2_row3 : ?scale:float -> unit -> t
(** Centralized QueCC vs non-deterministic protocols, TPC-C 1 warehouse
    (paper: 3x over the best). *)

val fig_contention : ?scale:float -> unit -> t
(** Supplementary: all centralized engines across zipfian theta. *)

val fig_scalability : ?scale:float -> unit -> t
(** Supplementary: throughput vs virtual core count, YCSB theta=0.9. *)

val fig_modes : ?scale:float -> unit -> t
(** Supplementary ablation: speculative vs conservative execution and
    serializable vs read-committed isolation under injected aborts
    (paper section 3.2). *)

val fig_latency : ?scale:float -> unit -> t
(** Supplementary: latency distribution comparison. *)

val fig_batch : ?scale:float -> unit -> t
(** Supplementary: QueCC batch-size sensitivity — larger batches amortize
    planning/coordination but add commit latency. *)

val pipeline : ?scale:float -> unit -> t
(** Pipelined batch execution: QueCC with the double-buffered pipeline
    off / on across zipfian theta, plus the
    distributed engines' lag-1 variant — the off rows are the oracle
    for the speedup shown (committed state is bit-identical per seed;
    the test suite asserts it; [BENCH_pipeline.json]).  Claims: each
    pipelined row commits its lockstep row's count at no lower
    throughput, QueCC at theta 0 gains at least 1.1x, and under
    [--check-conflicts] some run was recorded. *)

val skew : ?scale:float -> unit -> t
(** Adaptive planning under skew: QueCC plain vs hot-key queue splitting
    ([--split]) vs splitting + dynamic repartitioning ([--adapt repart])
    across zipfian theta on a global-zipf YCSB (the same hottest keys
    hit from every stream).  The plain row per theta is the state
    oracle — the adaptive mechanisms are schedule-preserving, so the
    committed-state checksums must match bit-for-bit
    ([BENCH_skew.json]).  Claims: at theta 0.9
    splitting and repartitioning fire, every theta's rows agree on
    commits and checksum, and adaptive theta 0.9 keeps at least 85% of
    plain theta 0 throughput. *)

val default_fault_plan : Quill_faults.Faults.spec
(** One node-1 crash mid-run, 1% drop, 1% duplication, seed 7. *)

val fault_tolerance :
  ?scale:float -> ?plan:Quill_faults.Faults.spec -> unit -> t
(** Robustness headline: dist-quecc (queue replay) vs dist-calvin
    (sequencer-log replay) with and without an identical fault plan
    ([plan] defaults to {!default_fault_plan}); the fault table rows
    report crashes, redone work and recovery time.  Claims: under the
    default plan some row spends time recovering; under
    [--check-conflicts] some run was recorded. *)

val failover : ?scale:float -> ?plan:Quill_faults.Faults.spec -> unit -> t
(** HA replication headline: a single-node dist-quecc leader with two
    speculative backups (spec-lag 2), three rows — unreplicated
    baseline, replicated fault-free (the replication tax), and
    replicated with the leader killed mid-run (failover).  All rows
    commit the same transactions to the same state; the replication
    table reports speculation, rollback and failover time; the summary
    holds the fault-free [epoch_ns] ([BENCH_failover.json]).  [plan]
    overrides the probed
    mid-run leader crash.  Claims: no replicated row loses a commit or
    diverges from the baseline's checksum, and its backups speculated;
    without [plan], the leader crashed and failed over once, in less
    than one fault-free epoch; under [--check-conflicts] some run (the
    unreplicated baseline) was recorded. *)

val durability : ?scale:float -> unit -> t
(** Durability headline: batch-aligned group-commit WAL on the
    centralized engines.  Four rows at YCSB theta=0 — QueCC without a
    WAL (baseline), QueCC with the WAL (the overhead, one modeled fsync
    per batch), serial with the same group-commit log, and the QueCC
    WAL run killed mid-run.  The crashed run recovers from the newest
    snapshot plus the log; its recovered state is compared checksum-wise
    against a fault-free run truncated to the same durable boundary
    (bit-identity at the last durable batch).  The summary holds the
    overhead percentage and the oracle comparison ([crash];
    [BENCH_durability.json]).  Claims: nonzero recovery of a nonzero
    durable prefix, no lost or double commits, a state-neutral WAL
    with one fsync per durable batch, at most 15% overhead, and under
    [--check-conflicts] some run was recorded. *)

val cdc : ?scale:float -> unit -> t
(** CDC headline: ordered commit-stream subscriptions.  Six rows at
    YCSB theta=0.6 — QueCC without CDC (baseline), QueCC [--cdc]
    (bounded-staleness replica subscription), QueCC [--cdc --views]
    (replica plus a materialized per-partition aggregate view verified
    against a full recompute at every caught-up point), the pipelined
    and split-queue (threshold 2) schedules with [--cdc], and serial
    [--cdc] (group-commit feed).  The feed digests of every
    QueCC-family row must be byte-identical — the planning phase fixes
    the commit order, so the change stream is a pure function of the
    input.  The summary holds the overhead percentage, [deterministic]
    and [view_ok] ([BENCH_cdc.json]).  Claims: a live feed on
    every [--cdc] row with replica lag at most 4 batches, one feed
    across the QueCC family, splitting fired on the split row, a
    refreshed view, at most 10% overhead, and under
    [--check-conflicts] some run was recorded. *)

val overload :
  ?scale:float ->
  ?arrival:Quill_clients.Clients.arrival ->
  ?admission:Quill_clients.Clients.policy * int ->
  ?deadline:int ->
  ?retries:int * int ->
  unit ->
  t
(** Overload robustness headline (plateau vs collapse): a closed-loop
    probe measures each engine's saturation throughput, then open-loop
    clients offer 0.25x/0.5x/1x/2x/4x of it under Shed, Deadline and
    Block admission (QueCC) and Shed (Calvin, 2PL-NoWait).  The client
    table reports offered vs goodput, sheds, deadline misses, retries
    and client-visible latency.  [arrival] pins one absolute arrival
    process instead of the multiplier sweep; [admission] uses a single
    [(policy, depth)] for every engine; [deadline] overrides the
    deadline-row budget (ns); [retries] is [(max_retries, backoff_ns)].
    Claims: every row has nonzero goodput and client latency samples;
    without any of the four overrides, some row sheds. *)

val all : (float -> t) list
(** Every experiment above at a scale, with its default options, in
    suite order. *)
