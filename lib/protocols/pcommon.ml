(* Shared helpers for the protocol implementations: row location with cost
   accounting, per-attempt write buffers, and undo bookkeeping. *)

open Quill_sim
open Quill_storage
open Quill_txn

let dummy_row = Row.make ~key:(-1) ~nfields:1

let locate sim (costs : Costs.t) db (frag : Fragment.t) =
  Sim.tick sim costs.Costs.index_probe;
  Table.find (Db.table db frag.Fragment.table) frag.Fragment.key

(* Association by physical row identity; access sets are small (tens of
   entries), linear scan beats hashing. *)
module Rowmap = struct
  type 'a t = (Row.t * 'a) list ref

  let create () : 'a t = ref []

  let find (t : 'a t) row =
    let rec go = function
      | [] -> None
      | (r, v) :: rest -> if r == row then Some v else go rest
    in
    go !t

  let add (t : 'a t) row v = t := (row, v) :: !t

  let replace (t : 'a t) row v =
    let rec go = function
      | [] -> [ (row, v) ]
      | (r, _) :: rest when r == row -> (row, v) :: rest
      | e :: rest -> e :: go rest
    in
    t := go !t
  let iter f (t : 'a t) = List.iter (fun (r, v) -> f r v) !t
  let iter_rev f (t : 'a t) = List.iter (fun (r, v) -> f r v) (List.rev !t)
  let clear (t : 'a t) = t := []
  let is_empty (t : 'a t) = !t = []
  let length (t : 'a t) = List.length !t
  let elements (t : 'a t) = !t
end

(* Per-attempt transaction-local state common to the buffered-write
   protocols (Silo, TicToc) and the in-place protocols (2PL). *)
type attempt = {
  mutable slots : int array;
  mutable inserts : (int * int * int array * int) list;
      (* table, key, payload, home *)
}

let new_attempt txn =
  { slots = Array.make (Array.length txn.Txn.frags) 0; inserts = [] }

(* Direct in-place execution with undo: the execution core of the
   engines that rely on external serialization (serial, H-Store, Calvin
   once locks are held). Publishes written rows on commit. *)
let run_direct sim (costs : Costs.t) db (wl : Workload.t) txn =
  let undo : int array Rowmap.t = Rowmap.create () in
  let written : unit Rowmap.t = Rowmap.create () in
  let inserts = ref [] in
  let slots = Array.make (Array.length txn.Txn.frags) 0 in
  let cur_row = ref dummy_row and cur_found = ref false in
  let read (_ : Fragment.t) field =
    Sim.tick sim costs.Costs.row_read;
    if !cur_found then (!cur_row).Row.data.(field) else 0
  in
  let write _frag field v =
    Sim.tick sim costs.Costs.row_write;
    if !cur_found then begin
      let row = !cur_row in
      (match Rowmap.find undo row with
      | None -> Rowmap.add undo row (Array.copy row.Row.data)
      | Some _ -> ());
      if Rowmap.find written row = None then Rowmap.add written row ();
      row.Row.data.(field) <- v
    end
  in
  let add frag field d = write frag field (read frag field + d) in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick sim costs.Costs.index_insert;
    let tbl = Db.table db frag.Fragment.table in
    let home = Db.home db frag.Fragment.table frag.Fragment.key in
    ignore (Table.insert tbl ~home ~key payload);
    inserts := (frag.Fragment.table, key) :: !inserts
  in
  let input fid = slots.(fid) in
  let output fid v = if fid < Array.length slots then slots.(fid) <- v in
  let found _ = !cur_found in
  let ctx = { Exec.read; write; add; insert; input; output; found } in
  let frags = txn.Txn.frags in
  let rec go i =
    if i >= Array.length frags then Exec.Ok
    else begin
      let frag = frags.(i) in
      (match frag.Fragment.mode with
      | Fragment.Insert ->
          cur_row := dummy_row;
          cur_found := true
      | Fragment.Read | Fragment.Write | Fragment.Rmw -> (
          match locate sim costs db frag with
          | Some row ->
              cur_row := row;
              cur_found := true
          | None ->
              cur_row := dummy_row;
              cur_found := false));
      Sim.tick sim costs.Costs.logic;
      match wl.Workload.exec ctx txn frag with
      | Exec.Ok -> go (i + 1)
      | (Exec.Abort | Exec.Blocked) as r -> r
    end
  in
  match go 0 with
  | Exec.Ok ->
      Rowmap.iter (fun row () -> Row.publish row) written;
      Exec.Ok
  | r ->
      Rowmap.iter
        (fun row saved ->
          Sim.tick sim costs.Costs.abort_cleanup;
          Row.restore row saved)
        undo;
      List.iter (fun (tid, key) -> Table.remove (Db.table db tid) key) !inserts;
      r
