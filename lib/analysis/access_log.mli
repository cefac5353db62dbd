(** Opt-in row-access recorder for the planned-order conflict detector.

    When attached (via {!Quill_harness.Experiment}'s [--check-conflicts]
    path), every row access performed through an executor context and
    every storage-level row probe is appended to an in-memory log,
    stamped with the accessing thread, virtual time, engine phase, and
    the QueCC queue slot (owner planner queue, priority, position,
    batch) being drained.  {!Conflict_check} then replays the log
    against the paper's structural invariants.

    Recording never calls [Sim.tick] and never perturbs engine control
    flow, so committed state is bit-identical with and without the
    recorder (asserted by the test suite).  When no recorder is passed
    the engines skip the wrapping entirely — zero cost when disabled. *)

type op = Read | Write | Insert | Committed_read

val op_name : op -> string

type row_access = {
  a_thread : int;  (** executor thread (engine-local id) doing the access *)
  a_owner : int;  (** thread that owns the queue being drained *)
  a_prio : int;  (** planner priority of the queue (planner index) *)
  a_subseq : int;
      (** intra-key sub-queue index when the entry came from a hot-key
          chain segment (QueCC [cfg.split]); -1 for a plain queue entry.
          Within one (batch, prio, key), planned order is
          [(subseq, pos)] lexicographic. *)
  a_pos : int;  (** position of the entry within the queue *)
  a_batch : int;  (** batch number *)
  a_vt : int;  (** virtual time of the access *)
  a_seq : int;  (** global append order — the true interleaving order *)
  a_phase : Quill_sim.Sim.phase;
  a_table : int;
  a_key : int;
  a_op : op;
}

type probe = {
  p_vt : int;
  p_seq : int;
  p_tid : int;  (** simulator thread id *)
  p_phase : Quill_sim.Sim.phase;
  p_table : string;
  p_key : int;
  p_insert : bool;
}

type t

val create : unit -> t

val attach :
  t ->
  sync:(unit -> unit) ->
  now:(unit -> int) ->
  phase:(unit -> Quill_sim.Sim.phase) ->
  tid:(unit -> int) ->
  unit
(** Install the sync/clock/phase/thread-id thunks (called once per run,
    after the simulator exists).  [sync] runs before each row access is
    recorded: {!with_sim} passes [Sim.sync], so the log's order is the
    dispatch order even for threads charging with [Sim.tick_local]. *)

val clear : t -> unit

val set_slot :
  t ->
  thread:int ->
  owner:int ->
  prio:int ->
  subseq:int ->
  pos:int ->
  batch:int ->
  unit
(** Set the queue-slot context attributed to subsequent row accesses.
    Engines call this from their drain loops before executing each queue
    entry; [subseq >= 0] marks a chain segment, which may run on a
    foreign executor ([owner <> thread]).  Pass [subseq:(-1)] for a
    plain queue entry, which only its owner drains. *)

val record_row : t -> table:int -> key:int -> op:op -> unit
val record_probe : t -> table:string -> key:int -> insert:bool -> unit

val wrap_exec_ctx :
  t ->
  ?rc_read:(Quill_txn.Fragment.t -> bool) ->
  Quill_txn.Exec.ctx ->
  Quill_txn.Exec.ctx
(** Interpose recording on every [read]/[write]/[add]/[insert] of an
    executor context.  [rc_read f] should return [true] when fragment
    [f]'s read is served from the committed image (read-committed
    isolation) — such reads commute and are logged as [Committed_read],
    which the checker exempts from ordering rules. *)

val with_sim : t -> Quill_sim.Sim.t -> (unit -> 'a) -> 'a
(** [with_sim t sim f] wires the log to [sim] (clock/phase/thread-id
    thunks) and installs the storage probe hook for the duration of [f]
    — only plan-phase probes are recorded, which is what the C1 check
    consumes.  Engines call this around [Sim.run]. *)

val rows : t -> row_access array
val probes : t -> probe array
