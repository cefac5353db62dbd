open Quill_common
open Quill_storage

(* Entry [i] is the [stride] ints at [ops.(i * stride)] — transaction,
   kind, table, field, old value or delta — and [rows.(i)]. *)
let stride = 5
let k_read = 0
let k_set = 1
let k_add = 2
let k_insert = 3

(* [Int.hash] is [Hashtbl.hash]: the generic table's buckets, without
   its polymorphic equality. *)
module Itbl = Hashtbl.Make (Int)

type t = {
  ops : int Vec.t;
  rows : Row.t Vec.t;
  (* Replay scratch, kept across batches.  A (row, field) pair is a
     [state] index: the row's base index (allocated on its first entry,
     one per field) plus the field. *)
  bases : int Itbl.t array;  (* per table: key -> base *)
  mutable nstates : int;
  mutable writer : int array;  (* per state: last writer or -1 *)
  mutable readers : int array;
      (* per state: the newest read entry since the last write, or -1;
         [older] links each to the next older one *)
  mutable adders : int array;  (* the same for commutative adds *)
  mutable older : int array;  (* per entry *)
  mutable edges : int array;
      (* per transaction: its newest edge, or -1; [edge_next] links each
         edge to the next older one of the same transaction *)
  edge_to : int Vec.t;
  edge_next : int Vec.t;
}

let create ~tables =
  {
    ops = Vec.create ();
    rows = Vec.create ();
    bases = Array.init tables (fun _ -> Itbl.create 64);
    nstates = 0;
    writer = [||];
    readers = [||];
    adders = [||];
    older = [||];
    edges = [||];
    edge_to = Vec.create ();
    edge_next = Vec.create ();
  }

let push t ~bidx kind ~table row field v =
  Vec.push t.ops bidx;
  Vec.push t.ops kind;
  Vec.push t.ops table;
  Vec.push t.ops field;
  Vec.push t.ops v;
  Vec.push t.rows row

let read t ~bidx ~table row field = push t ~bidx k_read ~table row field 0
let set t ~bidx ~table row field ~old = push t ~bidx k_set ~table row field old

let add t ~bidx ~table row field ~delta =
  push t ~bidx k_add ~table row field delta

let insert t ~bidx ~table row = push t ~bidx k_insert ~table row 0 0

let clear t =
  Vec.clear t.ops;
  Vec.clear t.rows

(* [a] with room for [n] entries, its contents kept. *)
let ensure a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let state t table (row : Row.t) field =
  let h = t.bases.(table) in
  let base =
    match Itbl.find_opt h row.Row.key with
    | Some base -> base
    | None ->
        let base = t.nstates and n = Array.length row.Row.data in
        t.nstates <- base + n;
        t.writer <- ensure t.writer t.nstates;
        t.readers <- ensure t.readers t.nstates;
        t.adders <- ensure t.adders t.nstates;
        Array.fill t.writer base n (-1);
        Array.fill t.readers base n (-1);
        Array.fill t.adders base n (-1);
        Itbl.add h row.Row.key base;
        base
  in
  base + field

(* Transaction [b] depends on [d].  Only an earlier transaction can drag
   [b] into the closure, which is taken in batch order, so other edges
   are dropped. *)
let edge t b d =
  if d >= 0 && d < b then begin
    Vec.push t.edge_to d;
    Vec.push t.edge_next t.edges.(b);
    t.edges.(b) <- Vec.length t.edge_to - 1
  end

(* [b] depends on the transaction of every entry of the list from [i]. *)
let edges_to_list t b i =
  let i = ref i in
  while !i >= 0 do
    edge t b (Vec.get t.ops (!i * stride));
    i := t.older.(!i)
  done

let closure t n ~aborted =
  let len = Vec.length t.rows in
  Array.iter Itbl.clear t.bases;
  t.nstates <- 0;
  t.older <- ensure t.older len;
  t.edges <- ensure t.edges n;
  Array.fill t.edges 0 n (-1);
  Vec.clear t.edge_to;
  Vec.clear t.edge_next;
  for i = 0 to len - 1 do
    let o = i * stride in
    let b = Vec.get t.ops o and kind = Vec.get t.ops (o + 1) in
    if kind <> k_insert then begin
      let row = Vec.get t.rows i in
      edge t b row.Row.inserter;
      let s = state t (Vec.get t.ops (o + 2)) row (Vec.get t.ops (o + 3)) in
      edge t b t.writer.(s);
      if kind = k_read then begin
        edges_to_list t b t.adders.(s);
        t.older.(i) <- t.readers.(s);
        t.readers.(s) <- i
      end
      else if kind = k_set then begin
        edges_to_list t b t.readers.(s);
        edges_to_list t b t.adders.(s);
        t.writer.(s) <- b;
        t.readers.(s) <- -1;
        t.adders.(s) <- -1
      end
      else begin
        edges_to_list t b t.readers.(s);
        t.older.(i) <- t.adders.(s);
        t.adders.(s) <- i
      end
    end
  done;
  let in_closure = Array.make n false in
  for b = 0 to n - 1 do
    in_closure.(b) <- aborted b;
    let e = ref t.edges.(b) in
    while (not in_closure.(b)) && !e >= 0 do
      in_closure.(b) <- in_closure.(Vec.get t.edge_to !e);
      e := Vec.get t.edge_next !e
    done
  done;
  in_closure

let revert t db in_closure ~charge =
  for i = Vec.length t.rows - 1 downto 0 do
    let o = i * stride in
    let kind = Vec.get t.ops (o + 1) in
    if kind <> k_read && in_closure.(Vec.get t.ops o) then begin
      charge ();
      let row = Vec.get t.rows i in
      let field = Vec.get t.ops (o + 3) and v = Vec.get t.ops (o + 4) in
      if kind = k_set then row.Row.data.(field) <- v
      else if kind = k_add then
        row.Row.data.(field) <- row.Row.data.(field) - v
      else Table.remove (Db.table db (Vec.get t.ops (o + 2))) row.Row.key
    end
  done
