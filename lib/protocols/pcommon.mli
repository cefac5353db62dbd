(** Shared helpers for the protocol implementations. *)

type row = { table : int; slot : int; tbl : Quill_storage.Table.t }
(** A row of an access set: table id and slot, with the table itself
    for its CC words.  Two rows are the same row when their table ids
    and slots are equal. *)

val row : Quill_storage.Db.t -> table:int -> int -> row

val mem : row -> row list -> bool
(** Whether the row is in the list. *)

(** Small association maps keyed by row; access sets are tens of
    entries, so linear scans beat hashing. *)
module Rowmap : sig
  type 'a t

  val create : unit -> 'a t

  val find : 'a t -> table:int -> int -> 'a option
  (** [find m ~table slot]. *)

  val add : 'a t -> row -> 'a -> unit

  val replace : 'a t -> row -> 'a -> unit
  (** Replaces the existing binding (adds when absent). *)

  val iter_rev : (row -> 'a -> unit) -> 'a t -> unit
  val elements : 'a t -> (row * 'a) list
end

val run_locked : Quill_txn.Direct.t -> Quill_txn.Txn.t -> Quill_txn.Exec.outcome
(** [Direct.run], then publish every written row on commit, once per row
    given a [Per_row] runner: the execution core of H-Store, Calvin and
    2PL, whose locks (partition or row) make the transaction the only
    writer of its rows until it finishes. *)
