(** Shared helpers for the protocol implementations. *)

val dummy_row : Quill_storage.Row.t

val locate :
  Quill_sim.Sim.t ->
  Quill_sim.Costs.t ->
  Quill_storage.Db.t ->
  Quill_txn.Fragment.t ->
  Quill_storage.Row.t option
(** Index probe (cost-charged) for the fragment's routing key. *)

(** Small association maps keyed by physical row identity; access sets
    are tens of entries, so linear scans beat hashing. *)
module Rowmap : sig
  type 'a t

  val create : unit -> 'a t
  val find : 'a t -> Quill_storage.Row.t -> 'a option
  val add : 'a t -> Quill_storage.Row.t -> 'a -> unit

  val replace : 'a t -> Quill_storage.Row.t -> 'a -> unit
  (** Replaces the existing binding (adds when absent). *)

  val iter : (Quill_storage.Row.t -> 'a -> unit) -> 'a t -> unit
  val iter_rev : (Quill_storage.Row.t -> 'a -> unit) -> 'a t -> unit
  val clear : 'a t -> unit
  val is_empty : 'a t -> bool
  val length : 'a t -> int
  val elements : 'a t -> (Quill_storage.Row.t * 'a) list
end

type attempt = {
  mutable slots : int array;
  mutable inserts : (int * int * int array * int) list;
}

val new_attempt : Quill_txn.Txn.t -> attempt

val run_direct :
  Quill_sim.Sim.t ->
  Quill_sim.Costs.t ->
  Quill_storage.Db.t ->
  Quill_txn.Workload.t ->
  Quill_txn.Txn.t ->
  Quill_txn.Exec.outcome
(** In-place execution with undo and commit-time publish: the execution
    core for engines whose serialization is external (serial, H-Store,
    Calvin once locks are held). *)
