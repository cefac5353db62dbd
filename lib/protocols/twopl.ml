(* Strict two-phase locking with the NoWait and WaitDie deadlock-avoidance
   policies (Yu et al., VLDB'14 configurations).  Locks live in the row
   ([Row.lock]: 0 free, -1 exclusive, n>0 shared); writes are applied in
   place under the exclusive lock by [Direct], which undoes them on
   abort.

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

  (* The attempt runs in place through [Direct]: a lock the policy
     refuses raises in [locate], which ends the attempt [Blocked] before
     the fragment's logic; inserted rows stay X-locked until the end. *)
  let run_txn st ~wid:_ (wl : Workload.t) txn =
    let ts = txn.Txn.tid in
    let held : held Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
    let locate (frag : Fragment.t) =
      match Direct.find st.db frag with
      | Some row when not (acquire st ts row frag.Fragment.mode held) ->
          raise Exec.Blocked_exn
      | r -> r
    in
    let inserted ~table:_ row =
      row.Row.lock <- -1;
      row.Row.lock_tx <- ts;
      Pcommon.Rowmap.add held row Exclusive
    in
    let direct =
      Direct.create ~db:st.db ~locate ~inserted ~charge:Direct.Per_row st.sim
        st.costs wl
    in
    let outcome = Pcommon.run_locked direct txn in
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
