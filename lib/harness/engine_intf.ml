(* First-class-module engine API: every engine family exposes the same
   [run] shape plus a capability set, so the harness, the CLI and the
   bench dispatch generically instead of growing per-engine match arms
   (see Engine_registry). *)

module Run_cfg = struct
  type exec_cfg = {
    pipeline : bool;
    steal : bool;
        (* read by no engine: kept only until the benchmark stops
           naming it *)
  }

  type adaptive_cfg = {
    split : int option;
        (* QueCC hot-key queue splitting: per-planner per-key op count
           that triggers a split; None = off *)
    repart : bool;  (* dynamic repartitioning between batches *)
    auto_batch : bool;
        (* read by no engine: kept only until the benchmark stops
           naming it *)
  }

  type replication_cfg = {
    replicas : int;  (* backup nodes receiving the planned-batch stream *)
    spec_lag : int;
        (* how many batches past the newest commit marker a backup may
           speculatively execute (>= 1) *)
  }

  type t = {
    threads : int;
    txns : int;
    batches : int;
    batch_size : int;
    costs : Quill_sim.Costs.t;
    exec : exec_cfg;
    adaptive : adaptive_cfg;
    replication : replication_cfg;
    recorder : Quill_analysis.Access_log.t option;
        (* conflict-detector access recorder (--check-conflicts) *)
  }

  let default =
    {
      threads = 8;
      txns = 20_480;
      batches = 20;
      batch_size = 1024;
      costs = Quill_sim.Costs.default;
      exec = { pipeline = false; steal = false };
      adaptive = { split = None; repart = false; auto_batch = false };
      replication = { replicas = 0; spec_lag = 1 };
      recorder = None;
    }
end

type run_cfg = Run_cfg.t

module type S = sig
  val name : string
  (* Canonical registry name ([engine_name] of the resolved engine). *)

  val caps : Capability.t list
  (* The optional features this engine honors.  Experiment.run's
     chokepoint rejects any requested feature outside this set, so a
     [run] implementation only ever sees arguments it supports. *)

  val nodes : int
  (* Cluster size (1 for centralized engines); sizes the client layer's
     per-node admission queues. *)

  val nparts : run_cfg -> int option
  (* Partition count the workload must be rebuilt with when the engine
     pins it to the cluster shape; None = run on the workload as given. *)

  val run :
    ?sim:Quill_sim.Sim.t ->
    ?clients:Quill_clients.Clients.t ->
    ?faults:Quill_faults.Faults.spec ->
    ?wal:Quill_wal.Wal.t ->
    ?cdc:Quill_cdc.Cdc.t ->
    cfg:run_cfg ->
    Quill_txn.Workload.t ->
    Quill_txn.Metrics.t
end

type t = (module S)
