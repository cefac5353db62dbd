(* Per-layer micro-timing loops.  Each times calls into one layer's
   public functions on this host, from outside the layer, and returns
   wall ns (or ms) per operation as the median of five timings.  The
   cost calibration the roadmap plans can reuse these loops as the
   measured side of each modeled cost. *)

open Quill_txn
module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Row = Quill_storage.Row
module Wal = Quill_wal.Wal
module Cdc = Quill_cdc.Cdc

let run_sim sim = if Sim.run sim <> 0 then failwith "perf: micro-loop fibers parked"

(* One [Sim.tick] with 16 runnable fibers. *)
let sim_tick_ns ~n =
  let per = n / 16 in
  Wall.ns_per ~n:(16 * per) (fun () ->
      let sim = Sim.create () in
      for _ = 1 to 16 do
        Sim.spawn sim (fun () ->
            for _ = 1 to per do
              Sim.tick sim 10
            done)
      done;
      run_sim sim)

(* One [Ivar.fill] -> [Ivar.read] hand-off between two fibers. *)
let sim_handoff_ns ~n =
  Wall.ns_per ~n (fun () ->
      let sim = Sim.create ~wake_cost:Costs.default.Costs.wakeup () in
      let ivs = Array.init n (fun _ -> Sim.Ivar.create ()) in
      Sim.spawn sim (fun () ->
          Array.iter
            (fun iv ->
              Sim.tick sim 10;
              Sim.Ivar.fill sim iv ())
            ivs);
      Sim.spawn sim (fun () -> Array.iter (fun iv -> Sim.Ivar.read sim iv) ivs);
      run_sim sim)

(* One [Barrier.await] by one of 8 parties. *)
let sim_barrier_ns ~n =
  let rounds = n / 8 in
  Wall.ns_per ~n:(8 * rounds) (fun () ->
      let sim = Sim.create ~wake_cost:Costs.default.Costs.wakeup () in
      let b = Sim.Barrier.create 8 in
      for _ = 1 to 8 do
        Sim.spawn sim (fun () ->
            for _ = 1 to rounds do
              Sim.tick sim 10;
              Sim.Barrier.await sim b
            done)
      done;
      run_sim sim)

(* [Table.find] over the keys the run's fragments routed to [table]. *)
let find_ns db ~table keys =
  let tbl = Db.table db table in
  Wall.ns_per ~n:(Array.length keys) (fun () ->
      Array.iter (fun k -> ignore (Sys.opaque_identity (Table.find tbl k))) keys)

let ms_of ns = ns /. 1e6

let clone_ms db =
  ms_of
    (Wall.ns_per ~reps:3 ~prepare:Gc.full_major ~n:1 (fun () ->
         ignore (Sys.opaque_identity (Db.clone db))))

let checksum_ms db = ms_of (Wall.ns_per ~reps:3 ~n:1 (fun () -> ignore (Db.checksum db)))

(* Generating one transaction from a fresh stream of each planner. *)
let gen_ns (wl : Workload.t) ~streams ~n =
  let per = n / streams in
  Wall.ns_per ~n:(streams * per) (fun () ->
      for i = 0 to streams - 1 do
        let s = wl.Workload.new_stream i in
        for _ = 1 to per do
          ignore (Sys.opaque_identity (s ()))
        done
      done)

(* Up to [n] committed rows of [table]: (key, payload). *)
let sample_rows db ~table ~n =
  let tbl = Db.table db table in
  Array.init (min n (Table.capacity tbl)) (fun k ->
      (k, Array.copy (Table.dense tbl k).Row.committed))

(* WAL encode + checksum + group flush per logged byte: one batch of
   the given rows per timing, inside one sim fiber (the flush ticks). *)
let wal_ns_per_byte rows ~table =
  let bytes = ref 0 in
  let ns =
    Wall.ns_per ~n:1 (fun () ->
        let sim = Sim.create () in
        let db = Db.create ~nparts:1 in
        let w = Wal.create ~sim ~costs:Costs.default ~snapshot_every:max_int db in
        Sim.spawn sim (fun () ->
            Wal.begin_batch w ~batch_no:0;
            Array.iter (fun (key, p) -> Wal.log_effect w ~table ~home:0 ~key p) rows;
            ignore (Wal.commit_batch w ~batch_no:0 ~txns:1));
        run_sim sim;
        let m = Metrics.create () in
        Wal.record w m;
        bytes := m.Metrics.wal_bytes)
  in
  ns /. float_of_int (max 1 !bytes)

(* CDC stage + canonicalizing publish per event: every row changes. *)
let cdc_ns_per_event rows ~table =
  let afters =
    Array.map
      (fun (_, p) ->
        let a = Array.copy p in
        a.(0) <- a.(0) + 1;
        a)
      rows
  in
  Wall.ns_per ~n:(Array.length rows) (fun () ->
      let sim = Sim.create () in
      let hub = Cdc.create ~sim ~costs:Costs.default (Db.create ~nparts:1) in
      Sim.spawn sim (fun () ->
          Array.iteri
            (fun i (key, before) -> Cdc.stage hub ~table ~key ~before ~after:afters.(i))
            rows;
          Cdc.publish hub ~batch_no:0 ~txns:1);
      run_sim sim)
