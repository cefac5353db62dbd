(** Distributed Calvin (Thomson et al., SIGMOD'12) — Table 2 row 2's
    baseline.

    Per epoch, each node's sequencer broadcasts its input slice to every
    node, giving all nodes the same deterministically-ordered global
    batch.  Each node's scheduler then requests locks for the keys it
    {e homes}, in global order, through its local deterministic lock
    manager, and dispatches a transaction's local sub-transaction to the
    worker pool once its local locks are held.  Participants of a
    multi-node transaction broadcast their read results to each other
    (one message per participant pair per transaction — the per-txn
    messaging QueCC's shipped queues amortize away); cross-node data
    dependencies travel as value-fill messages.  Commitment needs no 2PC
    (deterministic execution), matching the paper's description.

    Crash recovery replays the sequencer log: a fault-plan crash rolls
    the node's partitions back to the last committed epoch and serially
    re-executes the epoch's local sub-transactions in sequence order —
    epoch-granular, coarser than dist-quecc's queue-entry-granular
    replay (the comparison EXPERIMENTS.md quantifies). *)

type cfg = {
  nodes : int;
  workers : int;         (** execution threads per node *)
  batch_size : int;      (** global transactions per epoch *)
  costs : Quill_sim.Costs.t;
  pipeline : bool;
      (** sequence epoch [N+1] while epoch [N] executes (lag-1: epoch
          [N] is sequenced once [N-2] committed).  Epoch runtimes are
          double-buffered by epoch parity, so the committed state per
          seed is identical to the sequential schedule.  Not with
          open-loop clients (see {!run}). *)
}

val default_cfg : cfg
(** 4 nodes, 4 workers per node, epoch 2048, [pipeline] off. *)

val run :
  ?sim:Quill_sim.Sim.t ->
  ?faults:Quill_faults.Faults.spec ->
  ?clients:Quill_clients.Clients.t ->
  cfg ->
  Quill_txn.Workload.t ->
  batches:int ->
  Quill_txn.Metrics.t
(** Requires [Db.nparts db] to be a multiple of [nodes] (partition p is
    homed at node [p * nodes / nparts]).  [faults] attaches a
    deterministic fault plan; raises [Invalid_argument] if the plan
    names a node outside the cluster.  With [?clients] (created with
    [~nodes:cfg.nodes]), each node's sequencer closes epochs against its
    local admission queue and the run continues until the client layer
    is exhausted ([batches] ignored); [pipeline] with [?clients] raises
    [Invalid_argument]. *)
