open Quill_common
open Quill_sim
open Quill_txn

(* The recorder deliberately never calls [Sim.tick]: recording must not
   perturb virtual time, so a run with the recorder attached commits a
   bit-identical database to the same run without it (the test suite
   asserts this).  All ordering information is carried by [seq], a global
   append counter: the cooperative scheduler runs one thread at a time,
   and a row access is recorded only after [Sim.sync] (a thread that
   charged with [Sim.tick_local] rejoins the dispatch order first), so
   [seq] is the true total order in which the accesses happened. *)

type op = Read | Write | Insert | Committed_read

let op_name = function
  | Read -> "read"
  | Write -> "write"
  | Insert -> "insert"
  | Committed_read -> "rc-read"

type row_access = {
  a_thread : int;
  a_owner : int;
  a_prio : int;
  a_subseq : int;
  a_pos : int;
  a_batch : int;
  a_vt : int;
  a_seq : int;
  a_phase : Sim.phase;
  a_table : int;
  a_key : int;
  a_op : op;
}

type probe = {
  p_vt : int;
  p_seq : int;
  p_tid : int;
  p_phase : Sim.phase;
  p_table : string;
  p_key : int;
  p_insert : bool;
}

type slot = {
  s_thread : int;
  s_owner : int;
  s_prio : int;
  s_subseq : int;
      (* intra-key sub-queue index for hot-key chain segments; -1 for a
         plain queue entry.  Segment entries of one (prio, key) chain
         execute in (subseq, pos) order. *)
  s_pos : int;
  s_batch : int;
}

let no_slot =
  { s_thread = -1; s_owner = -1; s_prio = -1; s_subseq = -1; s_pos = -1;
    s_batch = -1 }

type t = {
  mutable sync : unit -> unit;
  mutable now : unit -> int;
  mutable phase : unit -> Sim.phase;
  mutable tid : unit -> int;
  mutable seq : int;
  row_log : row_access Vec.t;
  probe_log : probe Vec.t;
  (* Queue-slot context of the next recorded row access, per simulator
     thread (an executor can block mid-entry under the cooperative
     scheduler while a peer records, so the context cannot be global). *)
  slots : (int, slot) Hashtbl.t;
}

let create () =
  {
    sync = ignore;
    now = (fun () -> 0);
    phase = (fun () -> Sim.Ph_other);
    tid = (fun () -> -1);
    seq = 0;
    row_log = Vec.create ();
    probe_log = Vec.create ();
    slots = Hashtbl.create 16;
  }

let attach t ~sync ~now ~phase ~tid =
  t.sync <- sync;
  t.now <- now;
  t.phase <- phase;
  t.tid <- tid

let clear t =
  Vec.clear t.row_log;
  Vec.clear t.probe_log;
  Hashtbl.reset t.slots;
  t.seq <- 0

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let set_slot t ~thread ~owner ~prio ~subseq ~pos ~batch =
  Hashtbl.replace t.slots (t.tid ())
    { s_thread = thread; s_owner = owner; s_prio = prio; s_subseq = subseq;
      s_pos = pos; s_batch = batch }

let record_row t ~table ~key ~op =
  t.sync ();
  let s =
    match Hashtbl.find_opt t.slots (t.tid ()) with
    | Some s -> s
    | None -> no_slot
  in
  Vec.push t.row_log
    {
      a_thread = s.s_thread;
      a_owner = s.s_owner;
      a_prio = s.s_prio;
      a_subseq = s.s_subseq;
      a_pos = s.s_pos;
      a_batch = s.s_batch;
      a_vt = t.now ();
      a_seq = next_seq t;
      a_phase = t.phase ();
      a_table = table;
      a_key = key;
      a_op = op;
    }

let record_probe t ~table ~key ~insert =
  Vec.push t.probe_log
    {
      p_vt = t.now ();
      p_seq = next_seq t;
      p_tid = t.tid ();
      p_phase = t.phase ();
      p_table = table;
      p_key = key;
      p_insert = insert;
    }

(* Wire the log to a simulator for the duration of [f]: clock / phase /
   thread-id thunks, plus the storage-level probe hook that proves the
   planning phase touches no rows (only plan-phase probes are kept, so
   the log stays small on long runs).  The hook is process-global;
   [Fun.protect] restores it even when [f] raises. *)
let with_sim t sim f =
  let safe default g () = if Sim.in_thread sim then g () else default in
  attach t
    ~sync:(safe () (fun () -> Sim.sync sim))
    ~now:(safe 0 (fun () -> Sim.now sim))
    ~phase:(safe Sim.Ph_other (fun () -> Sim.phase sim))
    ~tid:(safe (-1) (fun () -> Sim.current_tid sim));
  Quill_storage.Table.set_probe_hook
    (Some
       (fun ~table ~key ~insert ->
         if Sim.in_thread sim && Sim.phase sim = Sim.Ph_plan then
           record_probe t ~table ~key ~insert));
  Fun.protect
    ~finally:(fun () -> Quill_storage.Table.set_probe_hook None)
    f

let rows t = Vec.to_array t.row_log
let probes t = Vec.to_array t.probe_log
let row_count t = Vec.length t.row_log
let probe_count t = Vec.length t.probe_log

(* Interpose on an executor context.  [rc_read] marks fragments whose
   reads are served from the committed image (read-committed isolation):
   those commute with anything in flight, so the conflict checker must
   not treat them as conflicting accesses — exactly mirroring their
   exclusion from the engine's steal signatures. *)
let wrap_exec_ctx t ?(rc_read = fun (_ : Fragment.t) -> false)
    (c : Exec.ctx) =
  {
    c with
    Exec.read =
      (fun f field ->
        record_row t ~table:f.Fragment.table ~key:f.Fragment.key
          ~op:(if rc_read f then Committed_read else Read);
        c.Exec.read f field);
    write =
      (fun f field v ->
        record_row t ~table:f.Fragment.table ~key:f.Fragment.key ~op:Write;
        c.Exec.write f field v);
    add =
      (fun f field d ->
        record_row t ~table:f.Fragment.table ~key:f.Fragment.key ~op:Write;
        c.Exec.add f field d);
    insert =
      (fun f ~key payload ->
        record_row t ~table:f.Fragment.table ~key ~op:Insert;
        c.Exec.insert f ~key payload);
  }
