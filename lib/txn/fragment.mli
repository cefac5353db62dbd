(** Transaction fragments — the unit of work of the queue-oriented
    paradigm (paper section 3.1).

    A fragment performs one or more operations on a {e single} record
    (identified by a routing key known at planning time, per the
    deterministic full-read/write-set requirement).  A fragment may be
    {e abortable}: its logic can decide to abort the whole transaction.

    The four dependency kinds of the paper's Table 1 map onto this
    representation as follows:
    - {e data dependency} (same txn): [data_deps] lists the fragments
      whose published outputs this fragment consumes;
    - {e conflict dependency} (different txns, same record): implicit —
      enforced by FIFO order of the record's home execution queue;
    - {e commit dependency} (same txn): [commit_dep] marks fragments that
      update the database while a sibling fragment may still abort;
    - {e speculation dependency} (different txns): arises at run time in
      speculative mode when a fragment reads another transaction's
      uncommitted write; tracked by the executor, not here. *)

type mode =
  | Read
  | Write        (** blind write *)
  | Rmw          (** read-modify-write *)
  | Insert       (** insert into the routing key's partition *)

type t = {
  fid : int;             (** position within the transaction *)
  table : int;
  key : int;             (** routing key; for [Insert] it fixes the home
                             partition, the final key may be computed *)
  mode : mode;
  abortable : bool;
  early : bool;          (** safe to hoist to the head of its execution
                             queue: the fragment only reads data no
                             transaction in the workload ever writes
                             (e.g. the TPC-C item table), so reordering
                             cannot change any conflict order.  Lets the
                             planner resolve abort decisions before the
                             updates that depend on them. *)
  mutable commit_dep : bool; (** set by {!Txn.make} *)
  data_deps : int array; (** fids of fragments whose output we consume *)
  op : int;              (** workload-defined opcode *)
  args : int array;      (** immediate arguments *)
}

val make :
  ?abortable:bool ->
  ?early:bool ->
  ?data_deps:int array ->
  ?args:int array ->
  fid:int ->
  table:int ->
  key:int ->
  mode:mode ->
  op:int ->
  unit ->
  t

val updates : t -> bool
(** True for [Write], [Rmw] and [Insert] fragments. *)
