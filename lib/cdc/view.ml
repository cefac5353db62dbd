module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Metrics = Quill_txn.Metrics

type t = {
  db : Db.t;
  table : int;
  field : int;
  sums : (int, int) Hashtbl.t;  (* home partition -> field sum *)
  mutable refreshes : int;
}

let recompute_into t sums =
  Hashtbl.reset sums;
  let tbl = Db.table t.db t.table in
  Table.iter_rows
    (fun key slot ->
      let home = Table.home_of_key tbl key in
      let cur = Option.value (Hashtbl.find_opt sums home) ~default:0 in
      Hashtbl.replace sums home (cur + Table.committed tbl slot t.field))
    tbl

let create ~table ~field db =
  let t = { db; table; field; sums = Hashtbl.create 64; refreshes = 0 } in
  recompute_into t t.sums;
  t

let sorted sums =
  (* lint: order-insensitive — bindings are collected then sorted *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums []
  |> List.sort compare

let sums t = sorted t.sums
let refreshes t = t.refreshes

let check t =
  let fresh = Hashtbl.create 64 in
  recompute_into t fresh;
  sorted fresh = sorted t.sums

let consumer t =
  let tbl = Db.table t.db t.table in
  let on_batch (b : Cdc.batch) =
    Array.iter
      (fun (ev : Cdc.event) ->
        if ev.Cdc.table = t.table then begin
          let delta =
            ev.Cdc.after.(t.field)
            - (match ev.Cdc.before with
              | Some pre -> pre.(t.field)
              | None -> 0)
          in
          (* Always materialize the partition entry (even for a zero
             delta): a recompute sees every row's home, so the
             incremental side must too or the comparison would differ
             on partitions first touched by a zero-valued insert. *)
          let home = Table.home_of_key tbl ev.Cdc.key in
          let cur = Option.value (Hashtbl.find_opt t.sums home) ~default:0 in
          Hashtbl.replace t.sums home (cur + delta)
        end)
      b.Cdc.events;
    t.refreshes <- t.refreshes + 1
  in
  let on_caught_up ~batch_no =
    if not (check t) then
      failwith
        (Printf.sprintf
           "Cdc view diverged from recompute at batch %d (table %d field %d)"
           batch_no t.table t.field)
  in
  { Cdc.on_batch; on_caught_up }

let record t (m : Metrics.t) =
  m.Metrics.view_refreshes <- m.Metrics.view_refreshes + t.refreshes
