(** In-place execution: the fragment step every engine shares, and the
    one serial-with-undo transaction runner.

    Every engine executes a fragment the same way: position a {!cursor}
    on the fragment's record (an insert has none; any other mode pays an
    index probe), charge the logic cost, and run the workload's logic
    against the engine's {!Exec.ctx}.  {!step} is that sequence; engines
    differ only in how the record is located ([locate]: 2PL acquires a
    lock, the others use {!find}) and in the context.

    {!run} executes a whole transaction in place against live row
    versions, logging a full-row undo image per write and rolling the
    attempt back on abort.  It is the execution core of the serial
    engine, QueCC's speculative-recovery re-execution, HA-QueCC backup
    speculation, H-Store / Calvin once their locks are held, and 2PL,
    whose [locate] takes the locks.  What
    differs between them is a parameter of {!create}. *)

type cursor = { mutable slot : int; mutable found : bool }
(** The record the current fragment operates on: its slot in the
    fragment's table.  [found] is false when the probe missed; an
    insert fragment has [found = true] and no slot (-1). *)

val cursor : unit -> cursor

val find : Quill_storage.Db.t -> Fragment.t -> int
(** The plain index lookup for the fragment's routing key (no cost): its
    slot, or -1 when absent. *)

val step :
  ?local:bool ->
  Quill_sim.Sim.t ->
  Quill_sim.Costs.t ->
  Workload.t ->
  Exec.ctx ->
  cursor ->
  locate:(Fragment.t -> int) ->
  Txn.t ->
  Fragment.t ->
  Exec.outcome
(** [step sim costs wl ctx cur ~locate txn frag]: position [cur] (an
    [index_probe] tick, then [locate], for non-insert fragments), charge
    [logic], and run [frag]'s logic.  An exception raised by [locate]
    (2PL's [Exec.Blocked_exn]) leaves the step after the probe, before
    the logic charge; {!run} maps [Blocked_exn] to [Blocked].
    The logic charge is always a {!Quill_sim.Sim.tick_local}: only
    private work follows it, because a workload's [exec] reaches shared
    state only through [ctx], whose accessors sync before they touch
    state another thread may write meanwhile.  Unless [local], the step
    syncs once the logic returns, so its caller may touch shared state
    right after it (a fragment's logic may end without an accessor that
    syncs, such as TPC-C's invalid item).  [local] (default false)
    charges the probe with [tick_local] too and skips that sync: only
    for a fragment whose [locate], and whose caller until its next sync,
    touch no state another thread reads or writes.  A lookup of a key
    another thread may insert meanwhile is not such a fragment: QueCC
    passes [~local:true] for fragments on their key's home executor, not
    for read-committed reads, which may run on any executor. *)

(** How a rolled-back attempt is charged [abort_cleanup]. *)
type abort_charge =
  | Per_write  (** once per logged write (serial, QueCC recovery) *)
  | Per_row
      (** once per distinct written row, which is also logged only once
          (H-Store, Calvin, 2PL) *)
  | Per_txn    (** once per aborted attempt (HA-QueCC backups) *)

type t
(** One runner.  It owns a cursor and the current attempt's slots and
    logs, which live across [Sim.tick] points: give each simulated
    thread its own. *)

val create :
  ?db:Quill_storage.Db.t ->
  ?locate:(Fragment.t -> int) ->
  ?touch:(table:int -> int -> unit) ->
  ?inserted:(table:int -> int -> unit) ->
  ?read_committed:bool ->
  ?add_reads:bool ->
  ?charge:abort_charge ->
  Quill_sim.Sim.t ->
  Quill_sim.Costs.t ->
  Workload.t ->
  t
(** [db] (default the workload's) is the database executed against.
    [locate] (default {!find} on [db]) resolves a fragment's record.
    [touch] sees every found row's slot just before a write lands in it,
    and [inserted] every inserted row's slot: the batch commit point's touched set,
    or a backup's written-row set (both default to no-ops).
    [read_committed] (default false): [Read]-mode fragments read the
    committed image.  [add_reads] (default true) charges a commutative
    [add] as a read plus a write, as the serial engine does; QueCC's
    recovery charges only the write.  [charge] defaults to
    [Per_write]. *)

val db : t -> Quill_storage.Db.t
(** The database the runner executes against. *)

val run : t -> Txn.t -> Exec.outcome
(** Execute every fragment in program order from fresh slots and logs,
    stopping at the first [Abort] or [Blocked]; a [locate] raising
    [Exec.Blocked_exn] counts as [Blocked].  On a non-[Ok] outcome the
    attempt's writes are restored and its inserts removed, charged per
    the runner's [abort_charge]. *)

val undo : t -> (int * int * int array) list
(** The last attempt's undo log, newest first: one (table, slot, image
    before the write) per write; under [Per_row], one per distinct row,
    holding its image before the attempt's first write to it. *)

val inserts : t -> (int * int) list
(** The last attempt's inserts as (table, key), newest first. *)

val revert :
  Quill_storage.Db.t -> (int * int * int array) list -> (int * int) list -> unit
(** [revert db undo inserts] restores every undo image newest first and
    removes the inserts, charging nothing. *)
