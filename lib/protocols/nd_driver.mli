(** Driver for non-deterministic protocols: a pool of symmetric worker
    threads (thread-to-transaction assignment), each generating from its
    own stream and retrying on concurrency-control aborts with bounded
    exponential backoff (500 virtual ns, doubled per retry up to 200 us,
    plus per-worker jitter). *)

module type CC = sig
  val name : string

  type t

  val create : Quill_sim.Sim.t -> Quill_sim.Costs.t -> Quill_storage.Db.t -> t

  val run_txn :
    t -> wid:int -> Quill_txn.Workload.t -> Quill_txn.Txn.t ->
    Quill_txn.Exec.outcome
  (** One attempt.  [Ok]: committed, effects durable.  [Abort]: the
      transaction's own logic aborted — effects rolled back, final.
      [Blocked]: concurrency-control conflict — effects rolled back,
      the driver retries. *)
end

type cfg = { workers : int; costs : Quill_sim.Costs.t }

val default_cfg : cfg

val run :
  ?sim:Quill_sim.Sim.t ->
  ?clients:Quill_clients.Clients.t ->
  (module CC) ->
  cfg ->
  Quill_txn.Workload.t ->
  txns:int ->
  Quill_txn.Metrics.t
(** Run [txns] transactions split evenly across the workers.  With
    [?clients], workers instead pull from the admission queue until the
    client layer is exhausted ([txns] is ignored) and report outcomes
    back for client-level retry. *)
