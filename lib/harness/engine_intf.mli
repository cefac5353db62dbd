(** First-class-module engine API.

    Every engine family adapts its native [run] to this shape in
    {!Engine_registry.resolve}; the harness ({!Experiment.run}),
    the CLI and the bench driver dispatch through the registry instead
    of per-engine [match] arms.  Optional features (faults, clients,
    WAL, CDC, replication) are validated against the engine's
    {!S.caps} capability set in {!Experiment.run}'s single chokepoint,
    so a [run] implementation never receives — and never has to
    silently ignore — an argument it does not support. *)

module Run_cfg : sig
  type exec_cfg = {
    pipeline : bool;  (** overlap planning and execution (QueCC family) *)
    steal : bool;
        (** read by no engine: work stealing was removed.  Kept only
            until the benchmark stops naming it. *)
  }

  type adaptive_cfg = {
    split : int option;
        (** QueCC hot-key queue splitting: per-planner per-key op count
            that triggers sub-queues; [None] = off. *)
    repart : bool;
        (** QueCC dynamic repartitioning of key→executor routing
            between batches (queue-depth driven). *)
    auto_batch : bool;
        (** read by no engine: batch auto-tuning was removed.  Kept
            only until the benchmark stops naming it. *)
  }

  type replication_cfg = {
    replicas : int;
        (** HA queue replication: backup nodes receiving the
            planned-batch stream and commit markers (0 = off). *)
    spec_lag : int;
        (** how many batches past the newest commit marker a backup may
            speculatively execute (>= 1). *)
  }

  type t = {
    threads : int;     (** virtual cores (per node for distributed) *)
    txns : int;        (** effective transaction count (whole batches) *)
    batches : int;     (** [txns / batch_size] *)
    batch_size : int;
    costs : Quill_sim.Costs.t;
    exec : exec_cfg;
    adaptive : adaptive_cfg;
    replication : replication_cfg;
    recorder : Quill_analysis.Access_log.t option;
        (** conflict-detector access recorder ([--check-conflicts]);
            engines that support it record row accesses with queue-slot
            attribution.  [None] (the default) costs nothing. *)
  }

  val default : t
  (** Baseline configuration (8 threads, 20 batches of 1024, default
      costs, every optional sub-record off) — construction sites
      override just the fields they care about, so adding a feature no
      longer touches every caller. *)
end

type run_cfg = Run_cfg.t

module type S = sig
  val name : string
  (** Canonical registry name. *)

  val caps : Capability.t list
  (** The optional features this engine honors; everything else is
      rejected by {!Experiment.run}'s capability chokepoint before
      [run] is reached. *)

  val nodes : int
  (** Cluster size (1 for centralized engines); sizes the client
      layer's per-node admission queues. *)

  val nparts : run_cfg -> int option
  (** Partition count the workload must be rebuilt with when the engine
      pins it to the cluster shape; [None] runs the workload as given. *)

  val run :
    ?sim:Quill_sim.Sim.t ->
    ?clients:Quill_clients.Clients.t ->
    ?faults:Quill_faults.Faults.spec ->
    ?wal:Quill_wal.Wal.t ->
    ?cdc:Quill_cdc.Cdc.t ->
    cfg:run_cfg ->
    Quill_txn.Workload.t ->
    Quill_txn.Metrics.t
  (** Every optional argument is guaranteed consistent with [caps] by
      the time this is called. *)
end

type t = (module S)
