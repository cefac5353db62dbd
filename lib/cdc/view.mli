(** Incrementally maintained materialized view over the CDC feed.

    The view is a per-partition aggregate — SUM of one field of one
    table, grouped by the row's home partition (for TPC-C table 0 with
    field [w_ytd] this is the per-warehouse year-to-date total; for
    YCSB it is a per-partition field sum).  Each feed entry updates the
    sums from the events' before/after images alone, never touching the
    base table.

    At every caught-up point (each time the subscription's cursor
    reaches the newest batch) the incremental sums are checked against
    a full recompute from the committed database — the
    view-equals-recompute invariant the CDC acceptance tests and the
    [cdc] experiment's claims rely on.  Divergence raises [Failure]. *)

type t

val create : table:int -> field:int -> Quill_storage.Db.t -> t
(** Seeds the sums from the database's current committed state (the
    pre-run image), so batch 0's deltas apply cleanly. *)

val consumer : t -> Cdc.consumer
(** Plug into {!Cdc.subscribe}. *)

val sums : t -> (int * int) list
(** Current [(partition, sum)] pairs, sorted by partition. *)

val refreshes : t -> int
(** Incremental refresh operations (feed entries applied). *)

val check : t -> bool
(** Compare the incremental sums against a recompute from committed
    state right now.  Only meaningful when the subscription's cursor is
    at the newest published batch. *)

val record : t -> Quill_txn.Metrics.t -> unit
(** Accumulate [view_refreshes] into a metrics record. *)
