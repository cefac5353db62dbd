(* TicToc timestamp-ordering OCC (Yu et al., SIGMOD'16).  Each row carries
   a write timestamp [wts] and read timestamp [rts] delimiting the
   interval in which its current version is valid.  The commit timestamp
   is computed lazily from the access set; read validity intervals are
   extended at validation when possible, which commits many schedules
   classic OCC would abort. *)

open Quill_sim
open Quill_storage
open Quill_txn

(* lint: engine-name-ok — protocol display name consumed by the registry *)
let name = "tictoc"

type t = { sim : Sim.t; costs : Costs.t; db : Db.t }

let create sim costs db = { sim; costs; db }

type rentry = { r_wts : int; r_rts : int }
type wentry = { wtable : int; wcopy : int array }

let run_txn st ~wid:_ (wl : Workload.t) txn =
  let rset : rentry Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
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
            Pcommon.Rowmap.add rset row
              { r_wts = row.Row.wts; r_rts = row.Row.rts };
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
            if Pcommon.Rowmap.find rset row = None then
              Pcommon.Rowmap.add rset row
                { r_wts = row.Row.wts; r_rts = row.Row.rts };
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
        (* Compute the commit timestamp. *)
        let commit_ts =
          List.fold_left (fun acc (row, _) -> max acc (row.Row.rts + 1)) 0
            writes
        in
        let commit_ts =
          List.fold_left
            (fun acc ((_ : Row.t), re) -> max acc re.r_wts)
            commit_ts
            (Pcommon.Rowmap.elements rset)
        in
        let in_wset row = Pcommon.Rowmap.find wset row <> None in
        (* Validate / extend the read set at commit_ts. *)
        let valid =
          List.for_all
            (fun (row, re) ->
              Sim.tick st.sim st.costs.Costs.validate_access;
              if re.r_rts >= commit_ts then true
              else if row.Row.wts <> re.r_wts then false
              else if row.Row.lock = -1 && not (in_wset row) then false
              else begin
                row.Row.rts <- max row.Row.rts commit_ts;
                true
              end)
            (Pcommon.Rowmap.elements rset)
        in
        if not valid then begin
          unlock_all ();
          Exec.Blocked
        end
        else begin
          List.iter
            (fun (row, w) ->
              Sim.tick st.sim st.costs.Costs.row_write;
              Array.blit w.wcopy 0 row.Row.data 0 (Array.length w.wcopy);
              row.Row.wts <- commit_ts;
              row.Row.rts <- commit_ts;
              Row.publish row)
            writes;
          List.iter
            (fun (tid, key, payload, home) ->
              Sim.tick st.sim st.costs.Costs.index_insert;
              let row = Table.insert (Db.table st.db tid) ~home ~key payload in
              row.Row.wts <- commit_ts;
              row.Row.rts <- commit_ts)
            (List.rev !inserts);
          unlock_all ();
          Exec.Ok
        end
      end
