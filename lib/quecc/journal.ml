open Quill_common
open Quill_storage

(* Entry [i] is the [stride] ints at [ops.(i * stride)]: transaction,
   kind, table, slot, field, old value or delta. *)
let stride = 6
let k_read = 0
let k_set = 1
let k_add = 2
let k_insert = 3

type t = {
  db : Db.t;
  ops : Ivec.t;
  (* Replay scratch, kept across batches.  A (row, field) pair is a
     [state] index: the row's base index (allocated on its first entry,
     one per field) plus the field. *)
  bases : int array array;
      (* per table, per slot: [stamp lsl 32 lor base], valid when its
         stamp is this replay's *)
  mutable stamp : int;  (* replays so far; 0 never stamps a row *)
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
  edge_to : Ivec.t;
  edge_next : Ivec.t;
}

let create db =
  {
    db;
    ops = Ivec.create ();
    bases = Array.make (Db.ntables db) [||];
    stamp = 0;
    nstates = 0;
    writer = [||];
    readers = [||];
    adders = [||];
    older = [||];
    edges = [||];
    edge_to = Ivec.create ();
    edge_next = Ivec.create ();
  }

let push t ~bidx kind ~table slot field v =
  let o = Ivec.extend t.ops stride in
  let d = Ivec.data t.ops in
  d.(o) <- bidx;
  d.(o + 1) <- kind;
  d.(o + 2) <- table;
  d.(o + 3) <- slot;
  d.(o + 4) <- field;
  d.(o + 5) <- v

let read t ~bidx ~table slot field = push t ~bidx k_read ~table slot field 0

let set t ~bidx ~table slot field ~old =
  push t ~bidx k_set ~table slot field old

let add t ~bidx ~table slot field ~delta =
  push t ~bidx k_add ~table slot field delta

let insert t ~bidx ~table slot = push t ~bidx k_insert ~table slot 0 0
let clear t = Ivec.clear t.ops
let length t = Ivec.length t.ops / stride

(* [a] with room for [n] entries, its contents kept. *)
let ensure a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let state t table slot field =
  let bs = t.bases.(table) in
  let bs =
    if slot < Array.length bs then bs
    else begin
      (* doubling, but never past the table's slots *)
      let tbl = Db.table t.db table in
      let n = max (slot + 1) (min (2 * Array.length bs) (Table.slots tbl)) in
      let b = Array.make n 0 in
      Array.blit bs 0 b 0 (Array.length bs);
      t.bases.(table) <- b;
      b
    end
  in
  let v = bs.(slot) in
  let base =
    if v lsr 32 = t.stamp then v land 0xffff_ffff
    else begin
      let base = t.nstates and n = Table.nfields (Db.table t.db table) in
      t.nstates <- base + n;
      t.writer <- ensure t.writer t.nstates;
      t.readers <- ensure t.readers t.nstates;
      t.adders <- ensure t.adders t.nstates;
      Array.fill t.writer base n (-1);
      Array.fill t.readers base n (-1);
      Array.fill t.adders base n (-1);
      bs.(slot) <- (t.stamp lsl 32) lor base;
      base
    end
  in
  base + field

(* Transaction [b] depends on [d].  Only an earlier transaction can drag
   [b] into the closure, which is taken in batch order, so other edges
   are dropped. *)
let edge t b d =
  if d >= 0 && d < b then begin
    Ivec.push t.edge_to d;
    Ivec.push t.edge_next t.edges.(b);
    t.edges.(b) <- Ivec.length t.edge_to - 1
  end

(* [b] depends on the transaction of every entry of the list from [i]. *)
let edges_to_list t b i =
  let i = ref i in
  while !i >= 0 do
    edge t b (Ivec.data t.ops).(!i * stride);
    i := t.older.(!i)
  done

let closure t n ~aborted =
  let len = length t in
  t.stamp <- t.stamp + 1;
  t.nstates <- 0;
  t.older <- ensure t.older len;
  t.edges <- ensure t.edges n;
  Array.fill t.edges 0 n (-1);
  Ivec.clear t.edge_to;
  Ivec.clear t.edge_next;
  let ops = Ivec.data t.ops in
  for i = 0 to len - 1 do
    let o = i * stride in
    let b = ops.(o) and kind = ops.(o + 1) in
    if kind <> k_insert then begin
      let table = ops.(o + 2) and slot = ops.(o + 3) in
      edge t b (Table.inserter (Db.table t.db table) slot);
      let s = state t table slot ops.(o + 4) in
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
      in_closure.(b) <- in_closure.(Ivec.get t.edge_to !e);
      e := Ivec.get t.edge_next !e
    done
  done;
  in_closure

let revert t in_closure ~charge =
  let ops = Ivec.data t.ops in
  for i = length t - 1 downto 0 do
    let o = i * stride in
    let kind = ops.(o + 1) in
    if kind <> k_read && in_closure.(ops.(o)) then begin
      charge ();
      let tbl = Db.table t.db ops.(o + 2) in
      let slot = ops.(o + 3) in
      let field = ops.(o + 4) and v = ops.(o + 5) in
      if kind = k_set then Table.set tbl slot field v
      else if kind = k_add then
        Table.set tbl slot field (Table.get tbl slot field - v)
      else Table.remove tbl (Table.key_of_slot tbl slot)
    end
  done
