(* Silo-style OCC (Tu et al., SOSP'13).  Reads record the row's TID word;
   writes go to a transaction-local buffer.  At commit: latch the write
   set in deterministic (table, key) order, validate the read set (TID
   unchanged, not latched by someone else), install writes under a new
   TID, release.  Logic aborts are free — nothing was installed. *)

open Quill_sim
open Quill_storage
open Quill_txn

(* lint: engine-name-ok — protocol display name consumed by the registry *)
let name = "silo"

type t = { sim : Sim.t; costs : Costs.t; db : Db.t }

let create sim costs db = { sim; costs; db }

type wentry = { wtable : int; wcopy : int array }

let run_txn st ~wid:_ (wl : Workload.t) txn =
  let rset : int Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
  let wset : wentry Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
  let inserts = ref [] in
  let slots = Array.make (Array.length txn.Txn.frags) 0 in
  let cur = Direct.cursor () in
  let read (_ : Fragment.t) field =
    Sim.tick st.sim st.costs.Costs.row_read;
    if not cur.found then 0
    else begin
      let row = cur.row in
      match Pcommon.Rowmap.find wset row with
      | Some w -> w.wcopy.(field)
      | None ->
          if Pcommon.Rowmap.find rset row = None then
            Pcommon.Rowmap.add rset row row.Row.tid;
          row.Row.data.(field)
    end
  in
  let write (frag : Fragment.t) field v =
    Sim.tick st.sim st.costs.Costs.row_write;
    if cur.found then begin
      let row = cur.row in
      let w =
        match Pcommon.Rowmap.find wset row with
        | Some w -> w
        | None ->
            (* Record the version we based the write on, Silo-style. *)
            if Pcommon.Rowmap.find rset row = None then
              Pcommon.Rowmap.add rset row row.Row.tid;
            let w =
              { wtable = frag.Fragment.table; wcopy = Array.copy row.Row.data }
            in
            Pcommon.Rowmap.add wset row w;
            w
      in
      w.wcopy.(field) <- v
    end
  in
  let add frag field d = write frag field (read frag field + d) in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick st.sim st.costs.Costs.cas;
    let home = Db.home st.db frag.Fragment.table frag.Fragment.key in
    inserts := (frag.Fragment.table, key, Array.copy payload, home) :: !inserts
  in
  let input fid = slots.(fid) in
  let output fid v = if fid < Array.length slots then slots.(fid) <- v in
  let found _ = cur.found in
  let ctx = { Exec.read; write; add; insert; input; output; found } in
  match
    Direct.steps st.sim st.costs wl ctx cur ~locate:(Direct.find st.db) txn
  with
  | Exec.Abort -> Exec.Abort
  | Exec.Blocked -> Exec.Blocked
  | Exec.Ok ->
      (* Commit protocol. *)
      let writes =
        List.sort
          (fun (r1, w1) (r2, w2) ->
            let c = compare w1.wtable w2.wtable in
            if c <> 0 then c else compare r1.Row.key r2.Row.key)
          (Pcommon.Rowmap.elements wset)
      in
      let locked = ref [] in
      let lock_all () =
        List.for_all
          (fun (row, _) ->
            Sim.tick st.sim st.costs.Costs.cas;
            if row.Row.lock = 0 then begin
              row.Row.lock <- -1;
              locked := row :: !locked;
              true
            end
            else false)
          writes
      in
      let unlock_all () =
        List.iter
          (fun row ->
            Sim.tick st.sim st.costs.Costs.cas;
            row.Row.lock <- 0)
          !locked
      in
      if not (lock_all ()) then begin
        unlock_all ();
        Exec.Blocked
      end
      else begin
        let in_wset row = Pcommon.Rowmap.find wset row <> None in
        let valid =
          List.for_all
            (fun (row, tid_seen) ->
              Sim.tick st.sim st.costs.Costs.validate_access;
              row.Row.tid = tid_seen
              && (row.Row.lock = 0 || in_wset row))
            (Pcommon.Rowmap.elements rset)
        in
        if not valid then begin
          unlock_all ();
          Exec.Blocked
        end
        else begin
          let commit_tid =
            1
            + List.fold_left
                (fun acc (row, _) -> max acc row.Row.tid)
                (List.fold_left
                   (fun acc (row, t) ->
                     ignore row;
                     max acc t)
                   0
                   (Pcommon.Rowmap.elements rset))
                writes
          in
          List.iter
            (fun (row, w) ->
              Sim.tick st.sim st.costs.Costs.row_write;
              Array.blit w.wcopy 0 row.Row.data 0 (Array.length w.wcopy);
              row.Row.tid <- commit_tid;
              Row.publish row)
            writes;
          List.iter
            (fun (tid, key, payload, home) ->
              Sim.tick st.sim st.costs.Costs.index_insert;
              let row = Table.insert (Db.table st.db tid) ~home ~key payload in
              row.Row.tid <- commit_tid)
            (List.rev !inserts);
          unlock_all ();
          Exec.Ok
        end
      end
