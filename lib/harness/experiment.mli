(** One-stop experiment runner: pick an engine, a workload and a scale,
    get metrics.  Used by the CLI, the examples and the benchmark
    harness so that every consumer measures the same way.

    Engine naming and dispatch live in {!Engine_registry}; the aliases
    here are re-exports. *)

type engine = Engine_registry.engine =
  | Serial
  | Quecc of Quill_quecc.Engine.exec_mode * Quill_quecc.Engine.isolation
  | Twopl_nowait
  | Twopl_waitdie
  | Silo
  | Tictoc
  | Mvto
  | Hstore
  | Calvin
  | Dist_quecc of int   (** nodes *)
  | Dist_calvin of int  (** nodes *)

val engine_name : engine -> string
val engine_of_string : string -> engine option
val all_centralized : engine list
(** Every single-node engine, QueCC first. *)

type workload_spec =
  | Ycsb of Quill_workloads.Ycsb.cfg
  | Tpcc of Quill_workloads.Tpcc.cfg

type t = {
  name : string;
  engine : engine;
  workload : workload_spec;
  threads : int;       (** virtual cores (per node for distributed) *)
  txns : int;          (** total transactions to process *)
  batch_size : int;
  costs : Quill_sim.Costs.t;
  faults : Quill_faults.Faults.spec;
      (** deterministic fault plan; {!Quill_faults.Faults.none} (the
          default) runs fault-free.  Requires the [Faults] capability
          (network faults additionally [Dist]) — {!run} raises
          [Invalid_argument] otherwise. *)
  clients : Quill_clients.Clients.cfg option;
      (** open-loop client layer: when set, seeded arrival generators
          feed a bounded admission queue that the engine drains, instead
          of the engine pulling from the workload closed-loop.  The
          cfg's [total] is overridden with the experiment's batch-rounded
          [txns] so [--txns] means the same thing in both modes.
          Requires the [Clients] capability — {!run} raises
          [Invalid_argument] otherwise (the serial baseline). *)
  pipeline : bool;
      (** QueCC: overlap planning of batch [N+1] with execution of
          batch [N] (see {!Quill_quecc.Engine.cfg}); ignored by engines
          without a planning phase. *)
  steal : bool;
      (** QueCC: executor work stealing on queue imbalance; implies
          nothing without [pipeline] but composes with either path. *)
  split : int option;
      (** QueCC: hot-key queue splitting threshold (per-planner per-key
          op count that triggers sub-queues); [None] = off.  See
          {!Quill_quecc.Engine.split_cfg}. *)
  adapt_repart : bool;
      (** QueCC: dynamic repartitioning of key→executor routing between
          batches, driven by queue-depth counters. *)
  adapt_batch : bool;
      (** QueCC: batch-size auto-tuning from pipeline stall counters
          (pipelined closed-loop runs only; schedule-altering, so not
          bit-identical with the fixed-size run). *)
  replicas : int;
      (** HA: backup nodes receiving the planned-batch stream and commit
          markers (0 = off).  Requires the [Replication] capability
          (dist-quecc) — {!run} raises [Invalid_argument] for a positive
          value elsewhere: the redundancy must not be silently
          dropped. *)
  spec_lag : int;
      (** dist-quecc HA: how many batches past the newest commit marker
          a backup may speculatively execute (>= 1, default 1). *)
  wal : bool;
      (** durable group-commit write-ahead log: every committed batch's
          row images are logged and flushed with one modeled fsync at
          the batch commit point.  Requires the [Wal] capability (serial
          and the quecc family) — {!run} raises [Invalid_argument]
          otherwise.  Required for crash or disk faults on a centralized
          engine. *)
  snapshot_every : int;
      (** WAL snapshot period in durable batches (>= 1, default 8):
          after every [snapshot_every]-th durable batch the database is
          snapshotted and the log truncated. *)
  cdc : bool;
      (** ordered change-data-capture: a {!Quill_cdc.Cdc} hub is hooked
          at the engine's batch commit point and a bounded-staleness
          read-replica subscription consumes the feed
          ([apply_every = 4]); replica consistency is asserted after the
          run.  Requires the [Cdc] capability (serial and the quecc
          family) — {!run} raises [Invalid_argument] otherwise, and
          cannot be combined with crash/disk faults (a truncated run
          would feed subscribers retracted commits). *)
  views : bool;
      (** additionally maintain a materialized per-partition aggregate
          view (SUM of table 0, field 0 — [w_ytd] for TPC-C) over the
          feed, verified against a full recompute at every caught-up
          point.  Implies [cdc]. *)
}

val make :
  ?name:string ->
  ?threads:int ->
  ?txns:int ->
  ?batch_size:int ->
  ?costs:Quill_sim.Costs.t ->
  ?faults:Quill_faults.Faults.spec ->
  ?clients:Quill_clients.Clients.cfg ->
  ?pipeline:bool ->
  ?steal:bool ->
  ?split:int ->
  ?adapt_repart:bool ->
  ?adapt_batch:bool ->
  ?replicas:int ->
  ?spec_lag:int ->
  ?wal:bool ->
  ?snapshot_every:int ->
  ?cdc:bool ->
  ?views:bool ->
  engine ->
  workload_spec ->
  t

val batches : t -> int
(** [txns] rounded to the nearest whole number of batches (at least 1). *)

val effective_txns : t -> int
(** The transaction count actually submitted: [batches t * batch_size].
    The same effective count is given to every engine, batch-oriented or
    per-transaction, so throughput comparisons stay apples-to-apples. *)

val run :
  ?tracer:Quill_trace.Trace.t ->
  ?recorder:Quill_analysis.Access_log.t ->
  ?on_workload:(Quill_txn.Workload.t -> unit) ->
  ?on_cdc:(Quill_cdc.Cdc.t -> unit) ->
  t ->
  Quill_txn.Metrics.t
(** Builds a fresh database, runs, returns metrics.

    Numeric fields are range-checked first (threads, batch size, split
    threshold, replicas, spec lag and snapshot period; YCSB table size
    against the operations per transaction, theta in \[0, 1), the
    multi-partition and abort ratios in \[0, 1\]; TPC-C warehouses):
    [Invalid_argument] names the CLI flag, before any workload is
    built.  Once the engine has fixed the partition count, a YCSB
    table whose last partition holds fewer rows than a transaction's
    distinct keys is rejected the same way ([--table-size]).

    Every optional feature the experiment requests is validated against
    the engine's {!Capability} set in one place, here, before the
    engine runs; [Invalid_argument] names the engine, the offending
    feature and the engine's capability set.  An engine never receives
    a flag outside its set, so no request is ever silently ignored.

    [on_workload] is called with the internally built workload just
    before the engine runs, letting callers hold a reference for
    post-run inspection (e.g. the committed-state checksum the skew
    sweep compares across adaptive and baseline runs).  [on_cdc] is
    called with the CDC hub after the run completes and the feed is
    drained (CDC runs only) — the hook the determinism tests use to
    capture feed digests.  Deterministic: the same [t] always yields
    the same metrics, with or without a tracer ([tracer] defaults to
    the disabled {!Quill_trace.Trace.null} and never affects virtual
    time).  [recorder] likewise never affects virtual time: it threads
    the conflict-detector access log through engines that support it
    (the QueCC family) for {!Quill_analysis.Conflict_check}. *)
