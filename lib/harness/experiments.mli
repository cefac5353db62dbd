(** The paper's experiment suite (see DESIGN.md's experiment index).

    Each function regenerates one table row or figure: it builds the
    workloads, runs every engine involved, and prints the report table.
    [scale] trades precision for wall-clock time: 1.0 is the full
    configuration used in EXPERIMENTS.md, smaller values shrink
    transaction counts and table sizes proportionally (minimum sizes are
    enforced).

    The extension experiments end by checking their claims on the values
    they hold (metrics, checksums, feed digests, overheads): each false
    claim is listed in one {!Claim_failed}, and nothing is printed when
    all hold.  [dune runtest] runs them at scale 0.25 (bench/dune). *)

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
    the suite records its row accesses and is replayed through
    {!Quill_analysis.Conflict_check} after it completes; a per-run
    [\[conflict-check\]] summary is printed, and a violation or an empty
    access log fails the run's claims.  Recording never affects virtual
    time, so results are identical to an unchecked run. *)

val table2_row1 : ?scale:float -> unit -> unit
(** Centralized QueCC vs deterministic H-Store, YCSB multi-partition
    sweep (paper: two orders of magnitude at high MP%). *)

val table2_row2 : ?scale:float -> unit -> unit
(** Distributed QueCC vs Calvin, YCSB uniform low contention
    (paper: 22x). *)

val table2_row3 : ?scale:float -> unit -> unit
(** Centralized QueCC vs non-deterministic protocols, TPC-C 1 warehouse
    (paper: 3x over the best). *)

val fig_contention : ?scale:float -> unit -> unit
(** Supplementary: all centralized engines across zipfian theta. *)

val fig_scalability : ?scale:float -> unit -> unit
(** Supplementary: throughput vs virtual core count, YCSB theta=0.9. *)

val fig_modes : ?scale:float -> unit -> unit
(** Supplementary ablation: speculative vs conservative execution and
    serializable vs read-committed isolation under injected aborts
    (paper section 3.2). *)

val fig_latency : ?scale:float -> unit -> unit
(** Supplementary: latency distribution comparison. *)

val fig_batch : ?scale:float -> unit -> unit
(** Supplementary: QueCC batch-size sensitivity — larger batches amortize
    planning/coordination but add commit latency. *)

val pipeline : ?scale:float -> ?json:string -> unit -> unit
(** Pipelined batch execution: QueCC with the double-buffered pipeline
    off / on / on-with-work-stealing across zipfian theta, plus the
    distributed engines' lag-1 variant — the off rows are the oracle
    for the speedup shown (committed state is bit-identical per seed;
    the test suite asserts it).  [json] also writes every row to a
    machine-readable JSON file ([BENCH_pipeline.json]).  Claims: each
    pipelined row commits its lockstep row's count at no lower
    throughput, QueCC at theta 0 gains at least 1.1x, and under
    [--check-conflicts] some run was recorded. *)

val skew : ?scale:float -> ?json:string -> unit -> unit
(** Adaptive planning under skew: QueCC plain vs hot-key queue splitting
    ([--split]) vs splitting + dynamic repartitioning ([--adapt repart])
    across zipfian theta on a global-zipf YCSB (the same hottest keys
    hit from every stream).  The plain row per theta is the state
    oracle — the adaptive mechanisms are schedule-preserving, so the
    committed-state checksums must match bit-for-bit.  [json] writes
    every row (throughput, split/repartition counters, checksum) to a
    machine-readable file ([BENCH_skew.json]).  Claims: at theta 0.9
    splitting and repartitioning fire, every theta's rows agree on
    commits and checksum, and adaptive theta 0.9 keeps at least 85% of
    plain theta 0 throughput. *)

val default_fault_plan : Quill_faults.Faults.spec
(** One node-1 crash mid-run, 1% drop, 1% duplication, seed 7. *)

val fault_tolerance :
  ?scale:float -> ?plan:Quill_faults.Faults.spec -> unit -> unit
(** Robustness headline: dist-quecc (queue replay) vs dist-calvin
    (sequencer-log replay) with and without an identical fault plan
    ([plan] defaults to {!default_fault_plan}); the fault table rows
    report crashes, redone work and recovery time.  Claims: under the
    default plan some row spends time recovering; under
    [--check-conflicts] some run was recorded. *)

val failover :
  ?scale:float -> ?json:string -> ?plan:Quill_faults.Faults.spec -> unit -> unit
(** HA replication headline: a single-node dist-quecc leader with two
    speculative backups (spec-lag 2), three rows — unreplicated
    baseline, replicated fault-free (the replication tax), and
    replicated with the leader killed mid-run (failover).  All rows
    commit the same transactions to the same state; the replication
    table reports speculation, rollback and failover time.  [json]
    writes per-row checksums, [failover_ns] and the fault-free
    [epoch_ns] ([BENCH_failover.json]).  [plan] overrides the probed
    mid-run leader crash.  Claims: no replicated row loses a commit or
    diverges from the baseline's checksum, and its backups speculated;
    without [plan], the leader crashed and failed over once, in less
    than one fault-free epoch. *)

val durability :
  ?scale:float -> ?json:string -> unit -> unit
(** Durability headline: batch-aligned group-commit WAL on the
    centralized engines.  Four rows at YCSB theta=0 — QueCC without a
    WAL (baseline), QueCC with the WAL (the overhead, one modeled fsync
    per batch), serial with the same group-commit log, and the QueCC
    WAL run killed mid-run.  The crashed run recovers from the newest
    snapshot plus the log; its recovered state is compared checksum-wise
    against a fault-free run truncated to the same durable boundary
    (bit-identity at the last durable batch).  [json] writes per-row
    WAL counters, the overhead percentage and the oracle comparison
    ([BENCH_durability.json]).  Claims: nonzero recovery of a nonzero
    durable prefix, no lost or double commits, a state-neutral WAL
    with one fsync per durable batch, and at most 15% overhead. *)

val cdc : ?scale:float -> ?json:string -> unit -> unit
(** CDC headline: ordered commit-stream subscriptions.  Seven rows at
    YCSB theta=0.6 — QueCC without CDC (baseline), QueCC [--cdc]
    (bounded-staleness replica subscription), QueCC [--cdc --views]
    (replica plus a materialized per-partition aggregate view verified
    against a full recompute at every caught-up point), the pipelined /
    pipelined+stealing / split-queue schedules with [--cdc], and serial
    [--cdc] (group-commit feed).  The feed digests of every
    QueCC-family row must be byte-identical — the planning phase fixes
    the commit order, so the change stream is a pure function of the
    input.  [json] writes per-row digests, feed counters and the
    overhead percentage ([BENCH_cdc.json]).  Claims: a live feed on
    every [--cdc] row with replica lag at most 4 batches, one feed
    across the QueCC family, a refreshed view, and at most 10%
    overhead. *)

val overload :
  ?scale:float ->
  ?arrival:Quill_clients.Clients.arrival ->
  ?admission:Quill_clients.Clients.policy * int ->
  ?deadline:int ->
  ?retries:int * int ->
  unit ->
  unit
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

val all : ?scale:float -> unit -> unit
