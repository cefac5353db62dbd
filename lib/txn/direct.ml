open Quill_sim
open Quill_storage

type cursor = { mutable slot : int; mutable found : bool }

let cursor () = { slot = -1; found = false }

let find db (frag : Fragment.t) =
  Table.find (Db.table db frag.Fragment.table) frag.Fragment.key

let step ?(local = false) sim (costs : Costs.t) (wl : Workload.t) ctx cur
    ~locate txn (frag : Fragment.t) =
  let tick sim n = if local then Sim.tick_local sim n else Sim.tick sim n in
  (match frag.Fragment.mode with
  | Fragment.Insert ->
      cur.slot <- -1;
      cur.found <- true
  | Fragment.Read | Fragment.Write | Fragment.Rmw ->
      tick sim costs.Costs.index_probe;
      let slot = locate frag in
      cur.slot <- slot;
      cur.found <- slot >= 0);
  tick sim costs.Costs.logic;
  wl.Workload.exec ctx txn frag

type abort_charge = Per_write | Per_row | Per_txn

(* The current attempt: data-dependency slots and the undo/insert logs. *)
type attempt = {
  mutable slots : int array;
  mutable undo : (int * int * int array) list;  (* table, slot, image *)
  mutable inserts : (int * int) list;
}

type t = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  wl : Workload.t;
  locate : Fragment.t -> int;
  charge : abort_charge;
  cur : cursor;
  att : attempt;
  ctx : Exec.ctx;
}

let no_hook ~table:_ _ = ()

let create ?db ?locate ?(touch = no_hook) ?(inserted = no_hook)
    ?(read_committed = false) ?(add_reads = true) ?(charge = Per_write) sim
    (costs : Costs.t) (wl : Workload.t) =
  let db = match db with Some db -> db | None -> wl.Workload.db in
  let locate = match locate with Some f -> f | None -> find db in
  let cur = cursor () in
  let att = { slots = [||]; undo = []; inserts = [] } in
  let table (frag : Fragment.t) = Db.table db frag.Fragment.table in
  let read (frag : Fragment.t) field =
    Sim.tick sim costs.Costs.row_read;
    if not cur.found then 0
    else if read_committed && frag.Fragment.mode = Fragment.Read then
      Table.committed (table frag) cur.slot field
    else Table.get (table frag) cur.slot field
  in
  (* Log the pre-image and show the row to the hook before writing;
     [Per_row] logs only the image before the attempt's first write to
     the row. *)
  let logged tid slot =
    charge = Per_row
    && List.exists (fun (t, s, _) -> t = tid && s = slot) att.undo
  in
  let set (frag : Fragment.t) field v =
    let tid = frag.Fragment.table and slot = cur.slot in
    let tbl = table frag in
    if not (logged tid slot) then
      att.undo <- (tid, slot, Table.live_image tbl slot) :: att.undo;
    touch ~table:tid slot;
    Table.set tbl slot field v
  in
  let write frag field v =
    Sim.tick sim costs.Costs.row_write;
    if cur.found then set frag field v
  in
  let add =
    if add_reads then fun frag field d -> write frag field (read frag field + d)
    else fun frag field d ->
      Sim.tick sim costs.Costs.row_write;
      if cur.found then set frag field (Table.get (table frag) cur.slot field + d)
  in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick sim costs.Costs.index_insert;
    let table = frag.Fragment.table in
    let home = Db.home db table frag.Fragment.key in
    inserted ~table (Table.insert (Db.table db table) ~home ~key payload);
    att.inserts <- (table, key) :: att.inserts
  in
  let input fid = att.slots.(fid) in
  let output fid v = if fid < Array.length att.slots then att.slots.(fid) <- v in
  let found _ = cur.found in
  let ctx = { Exec.read; write; add; insert; input; output; found } in
  { sim; costs; db; wl; locate; charge; cur; att; ctx }

let restore db (table, slot, saved) = Table.restore (Db.table db table) slot saved

let revert db undo inserts =
  List.iter (restore db) undo;
  List.iter (fun (table, key) -> Table.remove (Db.table db table) key) inserts

let rollback t =
  let cleanup () = Sim.tick t.sim t.costs.Costs.abort_cleanup in
  (match t.charge with
  | Per_write | Per_row ->
      List.iter
        (fun u ->
          cleanup ();
          restore t.db u)
        t.att.undo
  | Per_txn ->
      cleanup ();
      revert t.db t.att.undo []);
  revert t.db [] t.att.inserts;
  t.att.undo <- [];
  t.att.inserts <- []

let run t txn =
  let att = t.att in
  att.slots <- Array.make (Array.length txn.Txn.frags) 0;
  att.undo <- [];
  att.inserts <- [];
  let frags = txn.Txn.frags in
  let rec go i =
    if i >= Array.length frags then Exec.Ok
    else
      match step t.sim t.costs t.wl t.ctx t.cur ~locate:t.locate txn frags.(i) with
      | Exec.Ok -> go (i + 1)
      | (Exec.Abort | Exec.Blocked) as r -> r
  in
  (* A [locate] that refuses (2PL) ends the attempt like a conflict. *)
  let r = try go 0 with Exec.Blocked_exn -> Exec.Blocked in
  if r <> Exec.Ok then rollback t;
  r

let db t = t.db
let undo t = t.att.undo
let inserts t = t.att.inserts
