(** TPC-C (v5.11) as a fragmented transactional workload.

    All five transactions are implemented (NewOrder, Payment, OrderStatus,
    Delivery, StockLevel) over the full nine-table schema; see
    {!Tpcc_defs} for the key/field encodings and {!Tpcc_gen} for how the
    deterministic-processing requirements (up-front read/write sets,
    pre-assigned order ids, generation-time customer-by-last-name
    resolution) are met.  [Tpcc_defs.payment_mix] gives the 50/50
    NewOrder/Payment mix the QueCC evaluation uses for the paper's
    high-contention experiment (Table 2 row 3). *)

type cfg = Tpcc_defs.cfg

val default : cfg
val payment_mix : cfg -> cfg

val make : cfg -> Quill_txn.Workload.t
(** Builds and populates the database and returns the workload handle.
    Generator streams share the order-id / delivery bookkeeping, so they
    must all be created through this handle. *)

val handles : Quill_txn.Workload.t -> Tpcc_load.handles
(** Table handles of a workload created by [make] (for tests and
    invariant checks), looked up in its database.  Raises
    [Invalid_argument] for non-TPC-C workloads. *)
