open Quill_common

type entry = { keys : int Vec.t; mutable head : int }

(* Int-keyed: [Int.hash] is [Hashtbl.hash], so bucket and iteration
   order are the generic table's. *)
module Itbl = Hashtbl.Make (Int)

type t = {
  name : string;
  tbl : entry Itbl.t;
}

let create ~name = { name; tbl = Itbl.create 1024 }
let name t = t.name

let add t skey pkey =
  match Itbl.find_opt t.tbl skey with
  | Some e -> Vec.push e.keys pkey
  | None ->
      let e = { keys = Vec.create (); head = 0 } in
      Vec.push e.keys pkey;
      Itbl.replace t.tbl skey e

let find t skey =
  match Itbl.find_opt t.tbl skey with
  | None -> []
  | Some e ->
      let acc = ref [] in
      for i = Vec.length e.keys - 1 downto e.head do
        acc := Vec.get e.keys i :: !acc
      done;
      !acc

let find_vec t skey =
  match Itbl.find_opt t.tbl skey with
  | None -> None
  | Some e -> Some e.keys

let pop_min t skey =
  match Itbl.find_opt t.tbl skey with
  | None -> None
  | Some e ->
      if e.head >= Vec.length e.keys then None
      else begin
        let k = Vec.get e.keys e.head in
        e.head <- e.head + 1;
        Some k
      end

let size t = Itbl.length t.tbl

let sorted_skeys t =
  (* lint: order-insensitive — bindings are collected then sorted *)
  let keys = Itbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
  List.sort compare keys

let clone t =
  let tbl = Itbl.create (max 1024 (Itbl.length t.tbl)) in
  List.iter
    (fun sk ->
      let e = Itbl.find t.tbl sk in
      Itbl.replace tbl sk
        { keys = Vec.of_array (Vec.to_array e.keys); head = e.head })
    (sorted_skeys t);
  { name = t.name; tbl }

let overwrite_from ~src dst =
  if dst.name <> src.name then invalid_arg "Index.overwrite_from: name";
  Itbl.reset dst.tbl;
  List.iter
    (fun sk ->
      let e = Itbl.find src.tbl sk in
      Itbl.replace dst.tbl sk
        { keys = Vec.of_array (Vec.to_array e.keys); head = e.head })
    (sorted_skeys src)
