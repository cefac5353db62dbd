(** The speculation journal of one QueCC batch.

    Speculative execution applies every write in place and lets a batch
    run past its commit dependencies; a logic abort then re-executes
    the transactions that saw the aborter's effects.  Everything that
    recovery needs is one append per access, in execution order: who
    accessed which (row, field) — a row is a (table, slot) pair — how (read, set, commutative add or
    insert), and the old value of a set or the delta of an add.  The
    simulator runs on one domain, so append order is the real order of
    the accesses to each (row, field), whichever executor or chain
    segment made them.

    A push allocates nothing once the buffers (one flat int vector) have
    grown to a batch's size.  Cascade edges and undo are derived from
    the journal only when a batch has a logic abort: {!closure} replays
    it to rebuild the per-(row, field) dependency edges and takes the
    cascade closure, and {!revert} rolls the closure's writes and
    inserts back.  The replay finds a row's per-field state through one
    slot-indexed int array per table, stamped with the replay's number,
    so nothing keyed is built or cleared per batch. *)

type t

val create : Quill_storage.Db.t -> t
(** A journal for accesses to the tables of a database. *)

val read : t -> bidx:int -> table:int -> int -> int -> unit
(** [read j ~bidx ~table slot field]: transaction [bidx] of the batch
    read [field] of the row at [slot] of table [table]. *)

val set : t -> bidx:int -> table:int -> int -> int -> old:int -> unit
(** A blind write of [field] that replaced [old]; call it before the
    write lands. *)

val add : t -> bidx:int -> table:int -> int -> int -> delta:int -> unit
(** A commutative add of [delta] to [field]. *)

val insert : t -> bidx:int -> table:int -> int -> unit
(** The row at [slot] was inserted into table [table]. *)

val closure : t -> int -> aborted:(int -> bool) -> bool array
(** [closure j n ~aborted]: which of the batch's [n] transactions must
    be re-executed.  The replay rebuilds, per (row, field), the last
    writer, the readers since it and the commutative adders since it,
    and gives each access the edges it had at that point:
    - a read depends on the last writer and every pending adder (their
      deltas are in the value it saw);
    - a set depends on the last writer, every reader and every adder
      since (anti-dependencies and undo order);
    - an add depends on the last writer and every reader since, but not
      on other adds, which commute;
    - any access to a row inserted in this batch depends on its
      inserter.
    Field granularity keeps transactions that touch disjoint fields of a
    hot row (Payment's [d_ytd], NewOrder's [d_next_o_id]) out of each
    other's cascades.  Transaction [b] is in the closure if [aborted b],
    or if it depends on an earlier transaction in the closure; the
    closure is taken in batch order. *)

val revert : t -> bool array -> charge:(unit -> unit) -> unit
(** [revert j in_closure ~charge] undoes every set, add and insert of
    the transactions in [in_closure], newest first: a set restores the
    old value, an add subtracts its delta and an insert removes the row
    from its table.  [charge] is called once per undone entry, before it
    is undone.  Edges order every later writer of a reverted (row,
    field) into the closure too, so the reverse walk is exact. *)

val clear : t -> unit
(** Empty the journal for the next batch, keeping its buffers. *)
