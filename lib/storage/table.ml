(* The dynamic region is keyed by plain ints: [Int.hash] is
   [Hashtbl.hash], so buckets and iteration order are the generic
   table's, without its polymorphic equality. *)
module Itbl = Hashtbl.Make (Int)

type t = {
  name : string;
  nfields : int;
  nparts : int;
  rows : Row.t array;
  part_size : int;
  home_fn : (int -> int) option;
  dyn : Row.t Itbl.t;
  dyn_home : int Itbl.t;
}

let create ?home_fn ~name ~nfields ~capacity ~nparts () =
  assert (capacity >= 0 && nparts > 0 && nfields > 0);
  let rows = Array.init capacity (fun key -> Row.make ~key ~nfields) in
  let part_size =
    if capacity = 0 then 1 else (capacity + nparts - 1) / nparts
  in
  {
    name;
    nfields;
    nparts;
    rows;
    part_size;
    home_fn;
    dyn = Itbl.create 64;
    dyn_home = Itbl.create 64;
  }

let name t = t.name
let nfields t = t.nfields
let capacity t = Array.length t.rows
let nparts t = t.nparts

(* Conflict-detector interposition point: when installed (opt-in, via
   the harness's --check-conflicts path) every row probe is reported.
   A single option-ref branch when disabled — the common case. *)
let probe_hook : (table:string -> key:int -> insert:bool -> unit) option ref
    =
  ref None

let set_probe_hook h = probe_hook := h

let probe t key ~insert =
  match !probe_hook with
  | None -> ()
  | Some h -> h ~table:t.name ~key ~insert

let dense t key =
  if key < 0 || key >= Array.length t.rows then
    invalid_arg (Printf.sprintf "Table.dense %s: key %d" t.name key);
  probe t key ~insert:false;
  t.rows.(key)

let find t key =
  probe t key ~insert:false;
  if key >= 0 && key < Array.length t.rows then Some t.rows.(key)
  else Itbl.find_opt t.dyn key

let find_exn t key =
  match find t key with
  | Some r -> r
  | None -> raise Not_found

let insert t ~home ~key payload =
  if (key >= 0 && key < Array.length t.rows) || Itbl.mem t.dyn key then
    invalid_arg (Printf.sprintf "Table.insert %s: duplicate key %d" t.name key);
  if Array.length payload <> t.nfields then
    invalid_arg "Table.insert: payload arity mismatch";
  probe t key ~insert:true;
  let row = Row.make ~key ~nfields:t.nfields in
  Array.blit payload 0 row.Row.data 0 t.nfields;
  Row.publish row;
  Itbl.replace t.dyn key row;
  Itbl.replace t.dyn_home key home;
  row

let home_of_key t key =
  match t.home_fn with
  | Some f -> f key
  | None ->
      if key >= 0 && key < Array.length t.rows then
        min (key / t.part_size) (t.nparts - 1)
      else (
        match Itbl.find_opt t.dyn_home key with
        | Some h -> h
        | None -> abs key mod t.nparts)

let remove t key =
  if key >= 0 && key < Array.length t.rows then
    invalid_arg "Table.remove: dense keys cannot be removed";
  Itbl.remove t.dyn key;
  Itbl.remove t.dyn_home key

let inserted_count t = Itbl.length t.dyn

let sorted_dyn_keys t =
  (* lint: order-insensitive — bindings are collected then sorted *)
  let keys = Itbl.fold (fun k _ acc -> k :: acc) t.dyn [] in
  List.sort compare keys

let iter_inserted f t =
  List.iter (fun k -> f (Itbl.find t.dyn k)) (sorted_dyn_keys t)

let clone t =
  let copy_row (r : Row.t) =
    let r' = Row.make ~key:r.Row.key ~nfields:t.nfields in
    Array.blit r.Row.data 0 r'.Row.data 0 t.nfields;
    Array.blit r.Row.committed 0 r'.Row.committed 0 t.nfields;
    r'.Row.dirty <- r.Row.dirty;
    r'
  in
  let dyn = Itbl.create (max 64 (Itbl.length t.dyn)) in
  List.iter
    (fun k -> Itbl.replace dyn k (copy_row (Itbl.find t.dyn k)))
    (sorted_dyn_keys t);
  {
    name = t.name;
    nfields = t.nfields;
    nparts = t.nparts;
    rows = Array.map copy_row t.rows;
    part_size = t.part_size;
    home_fn = t.home_fn;
    dyn;
    dyn_home = Itbl.copy t.dyn_home;
  }

let overwrite_from ~src dst =
  if dst.name <> src.name || dst.nfields <> src.nfields
     || Array.length dst.rows <> Array.length src.rows
  then invalid_arg "Table.overwrite_from: shape mismatch";
  Array.iteri
    (fun i (r : Row.t) ->
      let d = dst.rows.(i) in
      Array.blit r.Row.data 0 d.Row.data 0 dst.nfields;
      Array.blit r.Row.committed 0 d.Row.committed 0 dst.nfields;
      d.Row.dirty <- r.Row.dirty)
    src.rows;
  (* Dynamic region: drop rows absent in [src], then install fresh
     copies of every [src] row (insert-time state may differ). *)
  List.iter
    (fun k -> if not (Itbl.mem src.dyn k) then Itbl.remove dst.dyn k)
    (sorted_dyn_keys dst);
  List.iter
    (fun k ->
      let r = Itbl.find src.dyn k in
      let r' = Row.make ~key:k ~nfields:dst.nfields in
      Array.blit r.Row.data 0 r'.Row.data 0 dst.nfields;
      Array.blit r.Row.committed 0 r'.Row.committed 0 dst.nfields;
      r'.Row.dirty <- r.Row.dirty;
      Itbl.replace dst.dyn k r')
    (sorted_dyn_keys src);
  Itbl.reset dst.dyn_home;
  List.iter
    (fun k -> Itbl.replace dst.dyn_home k (Itbl.find src.dyn_home k))
    (sorted_dyn_keys src)

let iter_dense f t = Array.iter f t.rows
let row_bytes t = t.nfields * 8
