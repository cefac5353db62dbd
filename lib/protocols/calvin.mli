(** Centralized Calvin (Thomson et al., SIGMOD'12): deterministic locking.

    A single scheduler thread sequences transactions into batches and
    requests every transaction's locks in batch order through a
    deterministic lock manager (per-key FIFO queues, no barging).  When a
    transaction holds all its locks it is dispatched to a worker pool
    (thread-to-transaction assignment — the paper's contrast to QueCC's
    thread-to-queue design).  The single-threaded lock manager is
    Calvin's well-known scalability bottleneck, which the cost model
    charges via [Costs.lock_mgr_op]. *)

type cfg = {
  workers : int;           (** execution threads, excluding the scheduler *)
  batch_size : int;
  costs : Quill_sim.Costs.t;
}

val run :
  ?sim:Quill_sim.Sim.t ->
  ?clients:Quill_clients.Clients.t ->
  cfg ->
  Quill_txn.Workload.t ->
  txns:int ->
  Quill_txn.Metrics.t
(** With [?clients], the scheduler sequences admitted transactions in
    arrival order until the client layer is exhausted ([txns] ignored);
    outcomes are reported back for client-level retry. *)
