(* Shared helpers for the protocol implementations: row-keyed maps for
   access sets, and the commit-time publish of the lock-based engines. *)

open Quill_storage
open Quill_txn

type row = { table : int; slot : int; tbl : Table.t }

let row db ~table slot = { table; slot; tbl = Db.table db table }

let mem r rows = List.exists (fun x -> x.slot = r.slot && x.table = r.table) rows

(* Access sets are small (tens of entries): a linear scan beats
   hashing. *)
module Rowmap = struct
  type 'a t = (row * 'a) list ref

  let create () : 'a t = ref []

  let find (t : 'a t) ~table slot =
    let rec go = function
      | [] -> None
      | (r, v) :: rest ->
          if r.slot = slot && r.table = table then Some v else go rest
    in
    go !t

  let add (t : 'a t) row v = t := (row, v) :: !t

  let replace (t : 'a t) row v =
    let rec go = function
      | [] -> [ (row, v) ]
      | (r, _) :: rest when r.slot = row.slot && r.table = row.table ->
          (row, v) :: rest
      | e :: rest -> e :: go rest
    in
    t := go !t

  let iter_rev f (t : 'a t) = List.iter (fun (r, v) -> f r v) (List.rev !t)
  let elements (t : 'a t) = !t
end

let run_locked direct txn =
  let r = Direct.run direct txn in
  if r = Exec.Ok then begin
    let db = Direct.db direct in
    List.iter
      (fun (table, slot, _) -> Table.publish (Db.table db table) slot)
      (Direct.undo direct)
  end;
  r
