(* Strict two-phase locking with the NoWait and WaitDie deadlock-avoidance
   policies (Yu et al., VLDB'14 configurations).  Locks live in the row
   ([Row.lock]: 0 free, -1 exclusive, n>0 shared); writes are applied in
   place under the exclusive lock with undo on abort.

   WaitDie waits by spin-sleeping, as main-memory implementations do;
   [Row.lock_tx] tracks the oldest (smallest) timestamp among current
   holders, reset when the lock frees — a slightly conservative
   approximation that can only cause extra dies, never deadlock. *)

open Quill_sim
open Quill_storage
open Quill_txn

type policy = No_wait | Wait_die

module Make (Policy : sig
  val policy : policy
end) =
struct
  let name =
    match Policy.policy with
    (* lint: engine-name-ok — the protocol's own display name *)
    | No_wait -> "2pl-nowait"
    (* lint: engine-name-ok — same: display name, not dispatch *)
    | Wait_die -> "2pl-waitdie"

  type t = { sim : Sim.t; costs : Costs.t; db : Db.t }

  let create sim costs db = { sim; costs; db }

  (* Lock modes held by the running transaction. *)
  type held = Shared | Exclusive

  let spin_ns = 300

  let holder_min row ts =
    if row.Row.lock = 0 || ts < row.Row.lock_tx then row.Row.lock_tx <- ts

  (* Returns true when acquired, false when the policy says die. *)
  let rec acquire st ts row want (held : held Pcommon.Rowmap.t) =
    Sim.tick st.sim st.costs.Costs.lock_acquire;
    let mine = Pcommon.Rowmap.find held row in
    match (want, mine) with
    | Fragment.Read, Some _ -> true
    | (Fragment.Write | Fragment.Rmw), Some Exclusive -> true
    | (Fragment.Write | Fragment.Rmw), Some Shared ->
        (* Upgrade: possible only when we are the sole reader. *)
        if row.Row.lock = 1 then begin
          row.Row.lock <- -1;
          row.Row.lock_tx <- ts;
          Pcommon.Rowmap.replace held row Exclusive;
          true
        end
        else wait_or_die st ts row want held
    | Fragment.Read, None ->
        if row.Row.lock >= 0 then begin
          row.Row.lock <- row.Row.lock + 1;
          holder_min row ts;
          Pcommon.Rowmap.add held row Shared;
          true
        end
        else wait_or_die st ts row want held
    | (Fragment.Write | Fragment.Rmw), None ->
        if row.Row.lock = 0 then begin
          row.Row.lock <- -1;
          row.Row.lock_tx <- ts;
          Pcommon.Rowmap.add held row Exclusive;
          true
        end
        else wait_or_die st ts row want held
    | Fragment.Insert, _ -> true

  and wait_or_die st ts row want held =
    match Policy.policy with
    | No_wait -> false
    | Wait_die ->
        if ts < row.Row.lock_tx then begin
          (* We are older: wait (spin) until the lock state changes. *)
          Sim.sleep st.sim spin_ns;
          acquire st ts row want held
        end
        else false

  let release st row = function
    | Shared ->
        Sim.tick st.sim st.costs.Costs.lock_release;
        row.Row.lock <- row.Row.lock - 1;
        if row.Row.lock = 0 then row.Row.lock_tx <- max_int
    | Exclusive ->
        Sim.tick st.sim st.costs.Costs.lock_release;
        row.Row.lock <- 0;
        row.Row.lock_tx <- max_int

  let run_txn st ~wid:_ (wl : Workload.t) txn =
    let ts = txn.Txn.tid in
    let held : held Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
    let undo : int array Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
    let written : unit Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
    let inserts = ref [] in
    let slots = ref [||] in
    let cur = Direct.cursor () in
    let read (_ : Fragment.t) field =
      Sim.tick st.sim st.costs.Costs.row_read;
      if cur.found then cur.row.Row.data.(field) else 0
    in
    let write _frag field v =
      Sim.tick st.sim st.costs.Costs.row_write;
      if cur.found then begin
        let row = cur.row in
        (match Pcommon.Rowmap.find undo row with
        | None -> Pcommon.Rowmap.add undo row (Array.copy row.Row.data)
        | Some _ -> ());
        if Pcommon.Rowmap.find written row = None then
          Pcommon.Rowmap.add written row ();
        row.Row.data.(field) <- v
      end
    in
    let add frag field d = write frag field (read frag field + d) in
  let insert (frag : Fragment.t) ~key payload =
      Sim.tick st.sim st.costs.Costs.index_insert;
      let tbl = Db.table st.db frag.Fragment.table in
      let home = Db.home st.db frag.Fragment.table frag.Fragment.key in
      let row = Table.insert tbl ~home ~key payload in
      (* Keep the new row exclusively locked until commit. *)
      row.Row.lock <- -1;
      row.Row.lock_tx <- ts;
      Pcommon.Rowmap.add held row Exclusive;
      inserts := (frag.Fragment.table, key) :: !inserts
    in
    let input fid = !slots.(fid) in
    let output fid v = if fid < Array.length !slots then !slots.(fid) <- v in
    let found _ = cur.found in
    let ctx = { Exec.read; write; add; insert; input; output; found } in
    slots := Array.make (Array.length txn.Txn.frags) 0;
    (* A lock the policy refuses aborts the attempt before its logic. *)
    let locate (frag : Fragment.t) =
      match Direct.find st.db frag with
      | Some row when not (acquire st ts row frag.Fragment.mode held) ->
          raise Exec.Blocked_exn
      | r -> r
    in
    let outcome =
      try Direct.steps st.sim st.costs wl ctx cur ~locate txn
      with Exec.Blocked_exn -> Exec.Blocked
    in
    (match outcome with
    | Exec.Ok -> Pcommon.Rowmap.iter (fun row () -> Row.publish row) written
    | Exec.Abort | Exec.Blocked ->
        Pcommon.Rowmap.iter
          (fun row saved ->
            Sim.tick st.sim st.costs.Costs.abort_cleanup;
            Row.restore row saved)
          undo;
        List.iter
          (fun (tid, key) -> Table.remove (Db.table st.db tid) key)
          !inserts);
    (* Strict 2PL: release everything at the end, success or not. *)
    Pcommon.Rowmap.iter_rev (fun row mode -> release st row mode) held;
    outcome
end

module No_wait_cc = Make (struct
  let policy = No_wait
end)

module Wait_die_cc = Make (struct
  let policy = Wait_die
end)
