(* Multi-version timestamp ordering — the representative of the
   multi-version engine class the paper compares against (Cicada, ERMIA,
   FOEDUS; see DESIGN.md for the substitution argument).

   The row's live payload is always the newest version ([Row.data] with
   interval [wts, rts]); older snapshots are kept on [Row.versions]
   (newest first) so that readers with older timestamps never block or
   abort.  Writers abort when they would invalidate a read that already
   happened ([rts] in the future) or write below an installed version. *)

open Quill_sim
open Quill_storage
open Quill_txn

(* lint: engine-name-ok — protocol display name consumed by the registry *)
let name = "mvto"

type t = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  mutable ts_counter : int;
  max_versions : int;
}

let create sim costs db = { sim; costs; db; ts_counter = 0; max_versions = 8 }

type wentry = { wtable : int; wcopy : int array }

let read_version ts row field =
  if ts >= row.Row.wts then begin
    if ts > row.Row.rts then row.Row.rts <- ts;
    Some row.Row.data.(field)
  end
  else begin
    let rec go = function
      | [] -> None (* too old: all kept versions are newer *)
      | (v : Row.version) :: rest ->
          if v.Row.v_wts <= ts then begin
            if ts > v.Row.v_rts then v.Row.v_rts <- ts;
            Some v.Row.v_data.(field)
          end
          else go rest
    in
    go row.Row.versions
  end

let run_txn st ~wid:_ (wl : Workload.t) txn =
  st.ts_counter <- st.ts_counter + 1;
  let ts = st.ts_counter in
  let wset : wentry Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
  let inserts = ref [] in
  let slots = Array.make (Array.length txn.Txn.frags) 0 in
  let cur = Direct.cursor () in
  let too_old = ref false in
  let read (_ : Fragment.t) field =
    Sim.tick st.sim st.costs.Costs.row_read;
    if not cur.found then 0
    else begin
      let row = cur.row in
      match Pcommon.Rowmap.find wset row with
      | Some w -> w.wcopy.(field)
      | None ->
          (* A latched row is mid-install: reading now could miss the
             version being written after its validation already passed
             (lost update).  Abort and retry instead. *)
          if row.Row.lock <> 0 then begin
            too_old := true;
            0
          end
          else (
            match read_version ts row field with
            | Some v -> v
            | None ->
                too_old := true;
                0)
    end
  in
  let write (frag : Fragment.t) field v =
    Sim.tick st.sim st.costs.Costs.row_write;
    if cur.found then begin
      let row = cur.row in
      (* Early abort (Cicada-style): a version or read newer than our
         timestamp already dooms this write at validation. *)
      if row.Row.wts > ts || row.Row.rts > ts then too_old := true
      else begin
        let w =
          match Pcommon.Rowmap.find wset row with
          | Some w -> w
          | None ->
              let w =
                { wtable = frag.Fragment.table;
                  wcopy = Array.copy row.Row.data }
              in
              Pcommon.Rowmap.add wset row w;
              w
        in
        w.wcopy.(field) <- v
      end
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
  let frags = txn.Txn.frags in
  let locate = Direct.find st.db in
  (* A doomed read or write stops the attempt after its fragment. *)
  let rec go i =
    if i >= Array.length frags then Exec.Ok
    else
      match Direct.step st.sim st.costs wl ctx cur ~locate txn frags.(i) with
      | Exec.Ok -> if !too_old then Exec.Blocked else go (i + 1)
      | (Exec.Abort | Exec.Blocked) as r -> r
  in
  match go 0 with
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
        let valid =
          List.for_all
            (fun (row, _) ->
              Sim.tick st.sim st.costs.Costs.validate_access;
              (* Write below an installed version or below a performed
                 read: timestamp-order violation. *)
              row.Row.wts <= ts && row.Row.rts <= ts)
            writes
        in
        if not valid then begin
          unlock_all ();
          Exec.Blocked
        end
        else begin
          List.iter
            (fun (row, w) ->
              Sim.tick st.sim st.costs.Costs.row_write;
              (* Snapshot the current newest version, then install. *)
              let snap =
                {
                  Row.v_data = Array.copy row.Row.data;
                  v_wts = row.Row.wts;
                  v_rts = row.Row.rts;
                }
              in
              let keep =
                if List.length row.Row.versions >= st.max_versions - 1 then
                  List.filteri
                    (fun i _ -> i < st.max_versions - 1)
                    row.Row.versions
                else row.Row.versions
              in
              row.Row.versions <- snap :: keep;
              Array.blit w.wcopy 0 row.Row.data 0 (Array.length w.wcopy);
              row.Row.wts <- ts;
              row.Row.rts <- ts;
              Row.publish row)
            writes;
          List.iter
            (fun (tid, key, payload, home) ->
              Sim.tick st.sim st.costs.Costs.index_insert;
              let row = Table.insert (Db.table st.db tid) ~home ~key payload in
              row.Row.wts <- ts;
              row.Row.rts <- ts)
            (List.rev !inserts);
          unlock_all ();
          Exec.Ok
        end
      end
