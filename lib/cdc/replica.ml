module Db = Quill_storage.Db
module Table = Quill_storage.Table

(* [Int.hash] is [Hashtbl.hash]: the generic table's buckets, without
   its polymorphic equality. *)
module Itbl = Hashtbl.Make (Int)

type t = {
  db : Db.t;
  cache : int array Itbl.t array;  (* per table: key -> image *)
  mutable cursor : int;
  mutable reads : int;
}

let create db =
  {
    db;
    cache = Array.init (Db.ntables db) (fun _ -> Itbl.create 1024);
    cursor = -1;
    reads = 0;
  }

(* Feed events are immutable, so the cache keeps each event's [after]
   array as it is; only a snapshot, which reads live rows, copies. *)
let consumer t =
  let on_batch (b : Cdc.batch) =
    Array.iter
      (fun (ev : Cdc.event) ->
        Itbl.replace t.cache.(ev.Cdc.table) ev.Cdc.key ev.Cdc.after)
      b.Cdc.events;
    t.cursor <- b.Cdc.batch_no
  in
  let on_snapshot db ~batch_no =
    Array.iteri
      (fun tid cache ->
        Itbl.reset cache;
        let tbl = Db.table db tid in
        Table.iter_rows
          (fun key slot ->
            Itbl.replace cache key (Table.committed_image tbl slot))
          tbl)
      t.cache;
    t.cursor <- batch_no
  in
  let on_caught_up ~batch_no:_ = () in
  { Cdc.on_batch; on_snapshot; on_caught_up }

let read t ~table ~key =
  t.reads <- t.reads + 1;
  Itbl.find_opt t.cache.(table) key

let cursor t = t.cursor
let rows t = Array.fold_left (fun n c -> n + Itbl.length c) 0 t.cache
let reads t = t.reads

let consistent_with t db =
  let ok = ref true in
  Array.iteri
    (fun tid cache ->
      let tbl = Db.table db tid in
      (* lint: order-insensitive — conjunction over all cached rows *)
      Itbl.iter
        (fun key img ->
          let slot = Table.find tbl key in
          if slot < 0 || not (Cdc.same_image (Table.committed_image tbl slot) img)
          then ok := false)
        cache)
    t.cache;
  !ok
