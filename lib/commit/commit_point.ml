open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Wal = Quill_wal.Wal
module Cdc = Quill_cdc.Cdc

type t = {
  sim : Sim.t;
  db : Db.t;
  wal : Wal.t option;
  cdc : Cdc.t option;
  crash_at : int option;
  tables : int Vec.t array;  (* per slot: each touched row's table ... *)
  rows : Row.t Vec.t array;  (* ... and the row, in touch order *)
  mutable crashed : bool;
  mutable batch_no : int;  (* the staged batch, sealed next *)
  mutable txns : int;
}

let create ?wal ?cdc ?crash_at ~slots sim db =
  (match (crash_at, cdc, wal) with
  | Some _, Some _, _ ->
      invalid_arg
        "Commit_point.create: a CDC feed cannot be combined with crash \
         faults (a crash-truncated run would feed subscribers retracted \
         commits)"
  | Some _, None, None ->
      invalid_arg
        "Commit_point.create: crash faults need a WAL (nothing durable to \
         recover from otherwise)"
  | _ -> ());
  {
    sim;
    db;
    wal;
    cdc;
    crash_at;
    tables = Array.init slots (fun _ -> Vec.create ());
    rows = Array.init slots (fun _ -> Vec.create ());
    crashed = false;
    batch_no = 0;
    txns = 0;
  }

let touch t slot ~table (row : Row.t) =
  if not row.Row.dirty then begin
    row.Row.dirty <- true;
    Vec.push t.tables.(slot) table;
    Vec.push t.rows.(slot) row
  end

let touch_insert t slot ~table (row : Row.t) ~by =
  row.Row.inserter <- by;
  touch t slot ~table row

let crash_due t =
  match t.crash_at with
  | Some at when (not t.crashed) && Sim.now t.sim >= at ->
      t.crashed <- true;
      true
  | _ -> false

let crashed t = t.crashed

(* Every status is settled but publish has not yet overwritten the
   [committed] pre-images, so a touched row's [data] is exactly the image
   publish will install: logging it now equals logging [committed]
   later, the WAL can still journal the pre-image, and the CDC entry
   gets (pre-batch committed, post-batch data).
   The key is re-resolved because recovery may have removed the row or
   re-inserted it under the same key. *)
let stage t ~batch_no ~txns =
  t.batch_no <- batch_no;
  t.txns <- txns;
  if t.wal <> None || t.cdc <> None then begin
    Option.iter (fun w -> Wal.begin_batch w ~batch_no) t.wal;
    Array.iteri
      (fun slot tables ->
        Vec.iteri
          (fun i table ->
            let tbl = Db.table t.db table in
            match Table.find tbl (Vec.get t.rows.(slot) i).Row.key with
            | None -> ()
            | Some r ->
                let key = r.Row.key in
                Option.iter
                  (fun w ->
                    Wal.log_row w ~table ~home:(Table.home_of_key tbl key) r)
                  t.wal;
                Option.iter
                  (fun c ->
                    if r.Row.inserter >= 0 then
                      Cdc.stage_insert c ~table ~key ~after:r.Row.data
                    else
                      Cdc.stage c ~table ~key ~before:r.Row.committed
                        ~after:r.Row.data)
                  t.cdc)
          tables)
      t.tables
  end

let publish t slot =
  Vec.iter
    (fun row ->
      Row.publish row;
      row.Row.inserter <- -1)
    t.rows.(slot);
  Vec.clear t.tables.(slot);
  Vec.clear t.rows.(slot)

(* Sealing runs after the publish barrier: a WAL snapshot roll then
   takes fully published state as its base, and subscriber catch-up sees exactly
   the state the feed has reached.  On a crash the in-flight batch was
   never flushed, so it is lost; any batch acked before its group
   survived the disk (a failing or wedged fsync) is retracted by the
   reconciliation — the lost-commit window the durability tests
   measure. *)
let seal t (m : Metrics.t) ~tid =
  if t.crashed then
    Sim.in_phase t.sim Sim.Ph_recover tid (fun () ->
        m.Metrics.crashes <- m.Metrics.crashes + 1;
        (* [create] guarantees a WAL; the reboot cost is charged inside
           [Wal.recover], with the replay *)
        Option.iter
          (fun w ->
            Wal.recover w;
            m.Metrics.committed <- Wal.durable_txns w)
          t.wal)
  else begin
    Option.iter
      (fun w -> ignore (Wal.commit_batch w ~batch_no:t.batch_no ~txns:t.txns))
      t.wal;
    Option.iter (fun c -> Cdc.publish c ~batch_no:t.batch_no ~txns:t.txns) t.cdc
  end

let record t m = Option.iter (fun w -> Wal.record w m) t.wal
