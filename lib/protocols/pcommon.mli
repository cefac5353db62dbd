(** Shared helpers for the protocol implementations. *)

(** Small association maps keyed by physical row identity; access sets
    are tens of entries, so linear scans beat hashing. *)
module Rowmap : sig
  type 'a t

  val create : unit -> 'a t
  val find : 'a t -> Quill_storage.Row.t -> 'a option
  val add : 'a t -> Quill_storage.Row.t -> 'a -> unit

  val replace : 'a t -> Quill_storage.Row.t -> 'a -> unit
  (** Replaces the existing binding (adds when absent). *)

  val iter_rev : (Quill_storage.Row.t -> 'a -> unit) -> 'a t -> unit
  val elements : 'a t -> (Quill_storage.Row.t * 'a) list
end

val run_locked : Quill_txn.Direct.t -> Quill_txn.Txn.t -> Quill_txn.Exec.outcome
(** [Direct.run], then publish every written row on commit, once per row
    given a [Per_row] runner: the execution core of H-Store, Calvin and
    2PL, whose locks (partition or row) make the transaction the only
    writer of its rows until it finishes. *)
