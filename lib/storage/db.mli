(** The database: a catalog of tables and secondary indexes plus the
    partition layout shared by every engine in a run. *)

type t

val create : nparts:int -> t
val nparts : t -> int

val add_table :
  ?home_fn:(int -> int) ->
  t -> name:string -> nfields:int -> capacity:int -> int
(** Registers a table and returns its table id (dense, starting at 0).
    [home_fn] is forwarded to {!Table.create}. *)

val add_index : t -> name:string -> int
val table : t -> int -> Table.t
val table_by_name : t -> string -> Table.t
val table_id : t -> string -> int
val index : t -> int -> Index.t
val index_id : t -> string -> int
val ntables : t -> int

val home : t -> int -> int -> int
(** [home db table_id key]: the partition owning that record. *)

val checksum : t -> int
(** Order-independent digest of all committed dense-row payloads plus
    inserted-row count; used by the determinism tests ("same input batch
    => same final state"). *)

val live_checksum : t -> int
(** Same digest over the live versions. *)

val clone : t -> t
(** Copy every table and index (images, batch state, dynamic rows,
    index cursors) with array copies, slot for slot; no protocol CC
    array is copied.  WAL snapshots and the HA replication layer's
    replica databases are made with this. *)

val overwrite_from : src:t -> t -> unit
(** [overwrite_from ~src dst] makes [dst]'s visible state (table
    images, dynamic rows, indexes) identical to [src]'s, slot for slot
    (see {!Table.overwrite_from}); shapes must match.  After a leader failover the surviving replica's database is
    synced back into the harness's [Workload.db] with this, so
    [checksum] reflects the replicated state. *)
