(** H-Store-style deterministic partitioned engine (Kallman et al.,
    VLDB'08) — Table 2 row 1's deterministic baseline.

    One executor thread owns each partition; a transaction acquires the
    partition locks of every partition it touches (in ascending order)
    and then runs without any record-level concurrency control.
    Single-partition transactions are therefore extremely fast, but a
    multi-partition transaction serializes all its partitions for its
    whole duration {e and} pays a two-round coordination cost among the
    participant executors (the ExpoDB port models this as thread
    messaging; see [Costs.ipc_latency]) — which is exactly the behaviour
    the paper exploits in its multi-partition YCSB comparison. *)

type cfg = {
  workers : int;           (** also the number of partitions used *)
  costs : Quill_sim.Costs.t;
}

val run :
  ?sim:Quill_sim.Sim.t ->
  ?clients:Quill_clients.Clients.t ->
  cfg ->
  Quill_txn.Workload.t ->
  txns:int ->
  Quill_txn.Metrics.t
(** With [?clients], workers pull from the admission queue until the
    client layer is exhausted ([txns] ignored). *)
