(** Deterministic lock table: Calvin's lock manager, shared by the
    centralized engine and every dist-calvin node.

    A transaction requests all of its locks up front, in sequencer
    order, as one {!ticket}.  Each key keeps a FIFO queue of shared (S)
    and exclusive (X) requests with no barging: a request is granted
    only when it is compatible with the holders {e and} nobody waits
    ahead of it, so the grant order is a pure function of the request
    order.  When a ticket holds every lock, [on_grant] fires for it
    exactly once.  The cost model charges one [lock_mgr_op] per request
    and one [lock_release] per release. *)

type lock = int * int * bool
(** [(table, key, exclusive)]. *)

type 'a t
type 'a ticket

val create :
  Quill_sim.Sim.t -> Quill_sim.Costs.t -> on_grant:('a ticket -> unit) -> 'a t

val lock_set :
  ?keep:(Quill_txn.Fragment.t -> bool) -> Quill_txn.Txn.t -> lock list
(** One request per key, in first-access order, exclusive when any
    access updates it.  Insert fragments lock nothing: their key is
    computed at run time, and the serializing row they depend on (e.g.
    the TPC-C district) is already X-locked.  [keep] restricts the set
    to the accepted fragments (a node's local keys). *)

val acquire : 'a t -> 'a -> lock list -> unit
(** Request every lock for the owner, in list order, as one ticket.
    [on_grant] may fire before this returns, but never before the last
    request is issued. *)

val owner : 'a ticket -> 'a

val release : 'a t -> 'a ticket -> unit
(** Release every lock of the ticket, in acquisition order, granting
    waiters that become compatible (which may fire [on_grant]). *)
