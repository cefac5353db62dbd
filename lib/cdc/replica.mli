(** Read-replica cache fed by the CDC stream.

    Keeps every row image the feed delivered, the event's own immutable
    [after] array rather than a copy (see {!Cdc.event}), and serves reads
    at the subscription's cursor — a bounded-staleness replica: with
    [apply_every = k] the cache is never more than [k] batches behind
    the primary's commit point.  It holds exactly the rows the feed
    mentioned.

    Per table, a dense key (below the table's capacity) indexes a flat
    array of images, allocated at the first dense key the feed
    mentions, plus one byte per key saying whether it holds one;
    inserted keys go to an open-addressing table (linear probing, at
    most half full), so caching an image allocates nothing. *)

type t

val create : Quill_storage.Db.t -> t
(** The database is read only to size each table's cache; the replica
    keeps no reference to it, and reads never touch it. *)

val consumer : t -> Cdc.consumer
(** Plug into {!Cdc.subscribe}. *)

val read : t -> table:int -> key:int -> int array option
(** The newest row image at the replica's cursor; [None] when the feed
    has not mentioned the key.  The array
    may be shared with the feed: read it, never write it. *)

val cursor : t -> int
(** Newest batch folded into the cache; -1 before any. *)

val rows : t -> int  (** distinct row images cached *)

val reads : t -> int  (** [read] calls served *)

val consistent_with : t -> Quill_storage.Db.t -> bool
(** Every cached image equals the database's committed image — the
    replica-correctness check, meaningful once the cursor has reached
    the newest published batch (e.g. after {!Cdc.finish}).  Each image
    is compared field by field in place
    ({!Quill_storage.Table.same_committed}): a differing field, an image
    of the wrong arity or a cached key the database lacks reads
    [false]. *)
