open Quill_common

(* Int-keyed: [Int.hash] is [Hashtbl.hash], so bucket and iteration
   order are the generic table's. *)
module Itbl = Hashtbl.Make (Int)

type t = {
  name : string;
  tbl : int Vec.t Itbl.t;  (* secondary key -> primary keys, oldest first *)
}

let create ~name = { name; tbl = Itbl.create 1024 }
let name t = t.name

let add t skey pkey =
  match Itbl.find_opt t.tbl skey with
  | Some keys -> Vec.push keys pkey
  | None ->
      let keys = Vec.create () in
      Vec.push keys pkey;
      Itbl.replace t.tbl skey keys

let find t skey =
  match Itbl.find_opt t.tbl skey with
  | None -> []
  | Some keys ->
      let acc = ref [] in
      for i = Vec.length keys - 1 downto 0 do
        acc := Vec.get keys i :: !acc
      done;
      !acc

let sorted_skeys t =
  (* lint: order-insensitive — bindings are collected then sorted *)
  let keys = Itbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
  List.sort compare keys

(* Copy [src]'s entries into [tbl] in sorted key order, so the result is
   deterministic regardless of hash-bucket layout. *)
let copy_into tbl src =
  List.iter
    (fun sk ->
      Itbl.replace tbl sk (Vec.of_array (Vec.to_array (Itbl.find src.tbl sk))))
    (sorted_skeys src)

let clone t =
  let tbl = Itbl.create (max 1024 (Itbl.length t.tbl)) in
  copy_into tbl t;
  { name = t.name; tbl }

let overwrite_from ~src dst =
  if dst.name <> src.name then invalid_arg "Index.overwrite_from: name";
  Itbl.reset dst.tbl;
  copy_into dst.tbl src
