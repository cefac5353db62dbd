(** Distributed queue-oriented engine (Q-Store design, the distributed
    instantiation of the paper's paradigm).

    Each node's planners plan the transactions its clients submit into
    priority-tagged execution queues — including queues destined for
    {e remote} nodes, which are shipped as one message per
    (planner, node) per batch.  That batching is the structural advantage
    over Calvin's per-transaction messaging, and the reason the paper's
    Table 2 row 2 reports an order-of-magnitude gap.  Commitment needs no
    2PC: execution is deterministic, so a batch commits with a single
    done/commit message exchange per node per batch.

    Cross-node data dependencies travel as value-fill messages;
    commit dependencies (abortable fragments) resolve via per-node
    resolution messages, giving conservative execution semantics
    (DESIGN.md discusses why the distributed engine is conservative).

    Crash recovery exploits the paradigm directly: the planned
    execution queues are the redo log.  A fault-plan crash rolls the
    node's partitions back to the last published batch boundary and
    re-executes the completed prefix of each queue in priority order,
    under the [recover] phase label (DESIGN.md, "Fault injection"). *)

type cfg = {
  nodes : int;
  planners : int;        (** per node *)
  executors : int;       (** per node *)
  batch_size : int;      (** global, per batch *)
  costs : Quill_sim.Costs.t;
  pipeline : bool;
      (** overlap planning of batch [N+1] with execution of batch [N]
          (lag-1: planning of [N] is gated on the commit of [N-2], so at
          most two batches are in flight).  Planning touches no rows and
          batch runtimes are double-buffered by batch parity, so the
          committed state per seed is identical to the sequential
          schedule.  Not with open-loop clients (see {!run}). *)
  replicas : int;
      (** HA mode when positive: stream every planned batch to this many
          backup nodes over a dedicated replication network, gate each
          batch commit on their acks, and survive a fault-plan leader
          crash by failing over to the lowest-id backup (see
          {!Replication}).  Requires [nodes = 1] (the backups are the
          redundancy), no open-loop clients and no conflict recorder. *)
  spec_lag : int;
      (** how many batches past the newest commit marker a backup may
          speculatively execute (>= 1); acks double as backpressure, so
          this also bounds how far the leader can run ahead of a slow
          backup. *)
}

val default_cfg : cfg
(** 4 nodes, 2 planners and 2 executors per node, batch 2048,
    [pipeline] off, no replicas, speculation lag 1. *)

val run :
  ?sim:Quill_sim.Sim.t ->
  ?faults:Quill_faults.Faults.spec ->
  ?clients:Quill_clients.Clients.t ->
  ?recorder:Quill_analysis.Access_log.t ->
  cfg ->
  Quill_txn.Workload.t ->
  batches:int ->
  Quill_txn.Metrics.t
(** [?recorder] records row accesses with queue-slot attribution for
    the conflict detector ([--check-conflicts]); crash-replay accesses
    are recorded under the recover phase, which the checker exempts.

    Requires the workload database to be partitioned with
    [nparts = nodes * executors].  [faults] (default
    {!Quill_faults.Faults.none}) attaches a deterministic fault plan;
    raises [Invalid_argument] if the plan crashes a node index outside
    the cluster.  With [?clients] (created with [~nodes:cfg.nodes]),
    each node admits transactions at its local admission queue —
    planner 0 of each node closes batches against it — and the run
    continues until the client layer is exhausted ([batches] ignored);
    the stop decision piggybacks on the per-batch commit broadcast.
    [pipeline] with [?clients] raises [Invalid_argument]: a batch can
    only close against the previous batch's completions. *)
