(* Durable group-commit WAL: batch-aligned logging must be state-neutral,
   crash recovery must rebuild exactly the serial-oracle state at the
   last durable batch, and a damaged log tail (torn record, corrupted
   byte, failing fsync) must be detected and truncated, never silently
   loaded. *)

open Quill_storage
open Quill_txn
open Quill_workloads
module Engine = Quill_quecc.Engine
module Wal = Quill_wal.Wal
module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Serial = Quill_protocols.Serial
module E = Quill_harness.Experiment
module Faults = Quill_faults.Faults

let quecc_cfg ?(planners = 4) ?(executors = 4) ?(batch_size = 128)
    ?(pipeline = false) () =
  {
    Engine.planners;
    executors;
    batch_size;
    mode = Engine.Speculative;
    isolation = Engine.Serializable;
    costs = Costs.default;
    pipeline;
    split = None;
    adapt = None;
  }

(* Run quecc with a WAL attached (and optionally a crash) over [make ()],
   recording the generated transactions so the serial oracle can replay
   them. *)
let run_wal ?disk ?crash_at ?(snapshot_every = 4) ?(planners = 4)
    ?(executors = 4) ?(batch_size = 128) ?(batches = 4) ?(pipeline = false)
    make =
  let wl = make () in
  let wl_rec, logs = Tutil.record wl in
  let costs = Costs.default in
  let sim = Sim.create ~wake_cost:costs.Costs.wakeup () in
  let w = Wal.create ?disk ~sim ~costs ~snapshot_every wl.Workload.db in
  let m =
    Engine.run ~sim ~wal:w ?crash_at
      (quecc_cfg ~planners ~executors ~batch_size ~pipeline ())
      wl_rec ~batches
  in
  (wl, logs, m, w)

let run_plain ?(planners = 4) ?(executors = 4) ?(batch_size = 128)
    ?(batches = 4) ?(pipeline = false) make =
  let wl = make () in
  let m =
    Engine.run
      (quecc_cfg ~planners ~executors ~batch_size ~pipeline ())
      wl ~batches
  in
  (wl, m)

(* Serial-oracle database after the first [batches] batches of the
   recorded streams (the durable prefix a recovered run must
   reproduce). *)
let oracle_db make logs ~streams ~batch_size ~batches =
  let wl = make () in
  let txns = Tutil.batch_order logs ~streams ~batch_size ~batches in
  let m = Serial.run_txns wl txns in
  (wl.Workload.db, m)

let oracle_state make logs ~streams ~batch_size ~batches =
  let db, m = oracle_db make logs ~streams ~batch_size ~batches in
  (Db.checksum db, m)

let ycsb cfg () = Ycsb.make cfg
let tpcc () = Tpcc.make (Tutil.small_tpcc ())

(* ------------------------- state neutrality ------------------------- *)

let test_wal_is_state_neutral () =
  let cfg = Tutil.small_ycsb () in
  let wl_w, _, mw, _ = run_wal ~snapshot_every:2 (ycsb cfg) in
  let wl_p, mp = run_plain (ycsb cfg) in
  Tutil.check_bool "same final state with and without WAL" true
    (Db.checksum wl_w.Workload.db = Db.checksum wl_p.Workload.db);
  Tutil.check_int "same commits" mp.Metrics.committed mw.Metrics.committed;
  Tutil.check_int "every batch durable" 4 mw.Metrics.durable_batches;
  Tutil.check_int "one fsync per batch" 4 mw.Metrics.wal_fsyncs;
  Tutil.check_int "group txns = commits" mw.Metrics.committed
    mw.Metrics.wal_group_txns;
  Tutil.check_int "snapshot every 2 of 4 batches" 2 mw.Metrics.snapshots;
  Tutil.check_int "truncated behind each snapshot" 2
    mw.Metrics.wal_truncations

(* ------------------------- crash recovery ------------------------- *)

let check_crash_recovers ?(pipeline = false) name cfg =
  let _, mprobe = run_plain ~pipeline (ycsb cfg) in
  let crash_at = mprobe.Metrics.elapsed / 2 in
  let wl, logs, m, w =
    run_wal ~crash_at ~snapshot_every:2 ~pipeline (ycsb cfg)
  in
  Tutil.check_int (name ^ ": crashed once") 1 m.Metrics.crashes;
  let durable = m.Metrics.durable_batches in
  Tutil.check_bool (name ^ ": lost the in-flight tail") true (durable < 4);
  let oracle, ms =
    oracle_state (ycsb cfg) logs ~streams:4 ~batch_size:128
      ~batches:durable
  in
  Tutil.check_bool
    (name ^ ": recovered state = serial oracle at the durable boundary")
    true
    (Db.checksum wl.Workload.db = oracle);
  Tutil.check_int (name ^ ": no lost or double commits")
    ms.Metrics.committed m.Metrics.committed;
  Tutil.check_int (name ^ ": committed = durable txns")
    (Wal.durable_txns w) m.Metrics.committed

let test_crash_recovers_lockstep () =
  check_crash_recovers "lockstep" (Tutil.small_ycsb ())

let test_crash_recovers_pipelined () =
  check_crash_recovers ~pipeline:true "pipelined" (Tutil.small_ycsb ())

let test_crash_recovers_with_aborts () =
  (* abort_ratio > 0 exercises recovery-pass cascades and rolled-back
     effects around the WAL write set *)
  check_crash_recovers "aborts" (Tutil.small_ycsb ~abort_ratio:0.1 ())

(* The recovered database equals the serial oracle's row for row and
   insert for insert, with no row left dirty, and the committed count
   matches. *)
let check_recovered_state name (db, m) (oracle, (ms : Metrics.t)) =
  Tutil.check_int (name ^ ": checksum = truncated serial oracle")
    (Db.checksum oracle) (Db.checksum db);
  Tutil.check_int (name ^ ": live images = committed ones")
    (Db.checksum oracle) (Db.live_checksum db);
  for table = 0 to Db.ntables db - 1 do
    let tbl = Db.table db table in
    Tutil.check_int
      (Printf.sprintf "%s: %s inserts = oracle's" name (Table.name tbl))
      (Table.inserted_count (Db.table oracle table))
      (Table.inserted_count tbl)
  done;
  Tutil.check_int (name ^ ": committed = oracle's") ms.Metrics.committed
    m.Metrics.committed

(* Whether batch [b] of the recorded streams holds a NewOrder (whose
   inserts then sit unpublished in the database when that batch is
   killed). *)
let batch_has_new_order logs ~batch_size b =
  let all = Tutil.batch_order logs ~streams:4 ~batch_size ~batches:(b + 1) in
  List.exists
    (fun (t : Txn.t) ->
      Array.length t.Txn.frags > 0
      && t.Txn.frags.(0).Fragment.op = Tpcc_defs.op_no_wh)
    (List.filteri (fun i _ -> i >= b * batch_size) all)

(* QueCC over 1-warehouse TPC-C: NewOrder inserts in every batch, the
   killed one included, and at least one snapshot roll before the
   crash, so recovery must drop the killed batch's inserts and put back
   every row a batch after the roll changed or inserted. *)
let test_crash_recovers_tpcc_inserts () =
  List.iter
    (fun (pipeline, snapshot_every) ->
      let name =
        Printf.sprintf "%s, snapshot every %d"
          (if pipeline then "pipelined" else "lockstep")
          snapshot_every
      in
      let batches = 6 in
      let _, mprobe = run_plain ~pipeline ~batches tpcc in
      let crash_at = mprobe.Metrics.elapsed * 2 / 3 in
      let wl, logs, m, _ =
        run_wal ~crash_at ~snapshot_every ~pipeline ~batches tpcc
      in
      let durable = m.Metrics.durable_batches in
      Tutil.check_int (name ^ ": crashed once") 1 m.Metrics.crashes;
      Tutil.check_bool (name ^ ": a roll before the crash") true
        (m.Metrics.snapshots >= 1);
      Tutil.check_bool (name ^ ": the killed batch inserts") true
        (durable < batches && batch_has_new_order logs ~batch_size:128 durable);
      check_recovered_state name
        (wl.Workload.db, m)
        (oracle_db tpcc logs ~streams:4 ~batch_size:128 ~batches:durable))
    [ (false, 1); (false, 2); (true, 1); (true, 2) ]

(* Groups lost to a failing fsync stay committed in memory, so their
   rows (and inserts) are staged after the last roll; a later crash must
   revert them to that roll and replay only the durable log.  The
   recovered state is the serial oracle at the durable boundary, not
   the in-memory state the lost groups left. *)
let test_fsync_fail_then_crash () =
  let batches = 8 in
  let _, mprobe = run_plain ~batches tpcc in
  let elapsed = mprobe.Metrics.elapsed in
  let disk =
    { Wal.no_disk_faults with Wal.fsync_fail_at = Some (elapsed * 4 / 10) }
  in
  let wl, logs, m, w =
    run_wal ~disk ~crash_at:(elapsed * 8 / 10) ~snapshot_every:2 ~batches tpcc
  in
  let durable = m.Metrics.durable_batches in
  Tutil.check_int "crashed once" 1 m.Metrics.crashes;
  Tutil.check_bool "a roll before the failing fsyncs" true
    (m.Metrics.snapshots >= 1);
  Tutil.check_bool "groups lost before the crash" true
    (m.Metrics.wal_fsync_fails >= 2);
  Tutil.check_int "durable boundary = Wal.durable_batch" (durable - 1)
    (Wal.durable_batch w);
  check_recovered_state "fsync-fail + crash"
    (wl.Workload.db, m)
    (oracle_db tpcc logs ~streams:4 ~batch_size:128 ~batches:durable)

(* The roll journal is per key.  Speculative recovery re-executes a
   cascade inside its batch, so a NewOrder's order id, and with it its
   order keys, can shift when an earlier NewOrder of its district is
   reverted: an order key is inserted, removed with its reverted
   inserter and inserted again at a fresh slot by the re-executed
   transaction that now draws that id.  Here such keys are inserted
   after the last roll (they are in the recovered database, not in the
   oracle at the roll) and the run crashes before the next roll, so the
   snapshot must drop each of them whatever slot it lived at.  The WAL
   bytes and the durable boundary are pinned. *)
let test_roll_journal_reinsert () =
  let tpcc () = Tpcc.make (Tutil.small_tpcc ~nparts:8 ~seed:1 ()) in
  let batches = 8 and snapshot_every = 2 in
  let planners = 8 and executors = 8 and batch_size = 256 in
  let _, mprobe = run_plain ~planners ~executors ~batch_size ~batches tpcc in
  let crash_at = mprobe.Metrics.elapsed * 3 / 4 in
  (* insert probes per (table, key) made before the crash time *)
  let inserts = Hashtbl.create 4096 in
  let sim = Sim.create ~wake_cost:Costs.default.Costs.wakeup () in
  Table.set_probe_hook
    (Some
       (fun ~table ~key ~insert ->
         if insert && Sim.in_thread sim && Sim.now sim < crash_at then
           let n =
             Option.value ~default:0 (Hashtbl.find_opt inserts (table, key))
           in
           Hashtbl.replace inserts (table, key) (n + 1)));
  let wl = tpcc () in
  let wl_rec, logs = Tutil.record wl in
  let m =
    Fun.protect
      ~finally:(fun () -> Table.set_probe_hook None)
      (fun () ->
        let w =
          Wal.create ~sim ~costs:Costs.default ~snapshot_every wl.Workload.db
        in
        Engine.run ~sim ~wal:w ~crash_at
          (quecc_cfg ~planners ~executors ~batch_size ())
          wl_rec ~batches)
  in
  let db = wl.Workload.db and durable = m.Metrics.durable_batches in
  let oracle batches =
    oracle_db tpcc logs ~streams:planners ~batch_size ~batches
  in
  Tutil.check_int "crashed once" 1 m.Metrics.crashes;
  let rolled = durable / snapshot_every * snapshot_every in
  Tutil.check_bool "a durable batch after a roll" true
    (rolled >= snapshot_every && rolled < durable);
  let at_roll, _ = oracle rolled in
  let moved =
    Hashtbl.fold
      (fun (name, key) n acc ->
        let table = Db.table_id db name in
        if
          n >= 2
          && Table.find (Db.table db table) key >= 0
          && Table.find (Db.table at_roll table) key < 0
        then acc + 1
        else acc)
      inserts 0
  in
  Tutil.check_bool
    (Printf.sprintf "%d keys re-inserted since the roll" moved)
    true (moved > 0);
  check_recovered_state "re-insert since the roll" (db, m) (oracle durable);
  Tutil.check_int "wal bytes" 930675 m.Metrics.wal_bytes;
  Tutil.check_int "durable batches" 5 durable

(* A crashed pipelined node stops planning.  Its planners can be at
   most two batches past the durable boundary (the batch the crash
   killed and the one planned behind it), so they never plan more than a
   fault-free run of [durable + 2] batches does. *)
let test_crash_stops_planning () =
  let cfg = Tutil.small_ycsb () in
  let batches = 8 in
  let _, mprobe = run_plain ~pipeline:true ~batches (ycsb cfg) in
  let _, _, m, _ =
    run_wal ~crash_at:(mprobe.Metrics.elapsed / 2) ~snapshot_every:2
      ~pipeline:true ~batches (ycsb cfg)
  in
  let durable = m.Metrics.durable_batches in
  Tutil.check_bool "the crash left batches unplanned" true
    (durable + 2 < batches);
  let _, mref =
    run_plain ~pipeline:true ~batches:(durable + 2) (ycsb cfg)
  in
  Tutil.check_bool
    (Printf.sprintf "plan busy %d <= fault-free %d batches' %d"
       m.Metrics.plan_busy (durable + 2) mref.Metrics.plan_busy)
    true
    (m.Metrics.plan_busy <= mref.Metrics.plan_busy)

(* Random seeds x crash points x snapshot intervals: the recovered state
   always equals the serial oracle at the last durable batch. *)
let prop_crash_recovers_to_oracle =
  QCheck.Test.make
    ~name:"crash x snapshot interval -> serial oracle at durable boundary"
    ~count:8
    QCheck.(triple (int_range 0 1000) (int_range 1 9) (int_range 1 4))
    (fun (seed, frac10, snapshot_every) ->
      let cfg = Tutil.small_ycsb ~table_size:2_000 ~seed () in
      let _, mprobe =
        run_plain ~planners:2 ~executors:2 ~batch_size:64 (ycsb cfg)
      in
      let crash_at = max 1 (mprobe.Metrics.elapsed * frac10 / 10) in
      let wl, logs, m, _ =
        run_wal ~crash_at ~snapshot_every ~planners:2 ~executors:2
          ~batch_size:64 (ycsb cfg)
      in
      let durable = m.Metrics.durable_batches in
      let oracle, ms =
        oracle_state (ycsb cfg) logs ~streams:2 ~batch_size:64
          ~batches:durable
      in
      Db.checksum wl.Workload.db = oracle
      && m.Metrics.committed = ms.Metrics.committed)

(* ------------------------- damaged log tails ------------------------- *)

(* A WAL over a hand-built db: batch 0 writes keys 0..19 with payload k,
   batch 1 overwrites them with 100+k. *)
let toy_wal ?disk ~snapshot_every () =
  let sim = Sim.create () in
  let db = Db.create ~nparts:2 in
  let _t = Db.add_table db ~name:"t" ~nfields:4 ~capacity:128 in
  let w = ref None in
  Sim.spawn sim (fun () ->
      let wal = Wal.create ?disk ~sim ~costs:Costs.default ~snapshot_every db in
      w := Some wal;
      for b = 0 to 1 do
        Wal.begin_batch wal ~batch_no:b;
        for k = 0 to 19 do
          Wal.log_effect wal ~table:0 ~home:0 ~key:k
            (Array.make 4 ((100 * b) + k))
        done;
        ignore (Wal.commit_batch wal ~batch_no:b ~txns:20)
      done;
      Wal.recover wal);
  ignore (Sim.run sim);
  (Option.get !w, db)

let committed0 db key =
  let tbl = Db.table db 0 in
  let slot = Table.find tbl key in
  if slot < 0 then -1 else Table.committed tbl slot 0

let test_clean_log_replays_fully () =
  let w, db = toy_wal ~snapshot_every:8 () in
  Tutil.check_int "both batches durable" 1 (Wal.durable_batch w);
  Tutil.check_int "all txns durable" 40 (Wal.durable_txns w);
  Tutil.check_int "batch-1 image wins" 105 (committed0 db 5)

let test_torn_tail_truncated () =
  (* record 23 is the first effect of batch 1 (header 0, effects 1..20,
     commit 21, header 22): the torn write wedges the disk mid-batch-1,
     so only batch 0 survives and the tail is cut, not loaded. *)
  let w, db = toy_wal ~disk:{ Wal.no_disk_faults with Wal.torn_rec = Some 23 }
      ~snapshot_every:8 ()
  in
  Tutil.check_int "only batch 0 durable" 0 (Wal.durable_batch w);
  Tutil.check_int "only batch 0's txns" 20 (Wal.durable_txns w);
  Tutil.check_int "batch-0 image, not the torn batch's" 5 (committed0 db 5);
  Tutil.check_bool "torn record detected" true
    (let m = Metrics.create () in
     Wal.record w m;
     m.Metrics.torn_records = 1 && m.Metrics.wal_truncations = 1)

(* Tear each of [toy_wal]'s 44 records in turn (per batch: header, 20
   effects, commit marker).  Recovery must keep exactly the batches
   whose commit marker precedes the torn record, and cut the log at the
   torn record's first byte: a header is 17 bytes, an effect 61 and a
   commit marker 25, so the cut also checks where every record starts
   inside the flushed group. *)
let test_torn_write_sweep () =
  let per_batch = 22 and batch_bytes = 17 + (20 * 61) + 25 in
  let offset k =
    let i = k mod per_batch in
    (k / per_batch * batch_bytes)
    + if i = 0 then 0 else 17 + (61 * min (i - 1) 20)
  in
  for k = 0 to (2 * per_batch) - 1 do
    let w, db =
      toy_wal ~disk:{ Wal.no_disk_faults with Wal.torn_rec = Some k }
        ~snapshot_every:8 ()
    in
    let kept = if k < per_batch then 0 else 1 in
    let name what = Printf.sprintf "torn record %d: %s" k what in
    Tutil.check_int (name "durable batch") (kept - 1) (Wal.durable_batch w);
    Tutil.check_int (name "durable txns") (20 * kept) (Wal.durable_txns w);
    Tutil.check_int (name "image") (if kept = 0 then 0 else 5)
      (committed0 db 5);
    Tutil.check_int (name "log cut at the torn record") (offset k)
      (Wal.log_size w);
    let m = Metrics.create () in
    Wal.record w m;
    Tutil.check_int (name "torn records") 1 m.Metrics.torn_records
  done

let test_corrupt_byte_truncates () =
  (* flip a bit inside batch 1's region: the crc check fails there and
     recovery keeps exactly the valid prefix *)
  let w, db =
    toy_wal
      ~disk:{ Wal.no_disk_faults with Wal.corrupt_off = Some 1_000 }
      ~snapshot_every:8 ()
  in
  Tutil.check_bool "corruption detected, prefix kept" true
    (Wal.durable_batch w < 1);
  Tutil.check_bool "corrupted tail never loaded" true (committed0 db 5 < 100);
  let m = Metrics.create () in
  Wal.record w m;
  Tutil.check_int "counted as a torn/corrupt record" 1 m.Metrics.torn_records

let test_fsync_fail_degrades () =
  (* every flush fails from t=1: the run itself completes (in-memory
     commits are unaffected) but nothing becomes durable *)
  let cfg = Tutil.small_ycsb () in
  let wl = Ycsb.make cfg in
  let costs = Costs.default in
  let sim = Sim.create ~wake_cost:costs.Costs.wakeup () in
  let w =
    Wal.create
      ~disk:{ Wal.no_disk_faults with Wal.fsync_fail_at = Some 1 }
      ~sim ~costs ~snapshot_every:4 wl.Workload.db
  in
  let m = Serial.run ~sim ~costs ~wal:w wl ~txns:512 in
  Tutil.check_int "run completes" 512 m.Metrics.committed;
  Tutil.check_bool "flushes failed" true (m.Metrics.wal_fsync_fails > 0);
  Tutil.check_int "nothing durable" 0 m.Metrics.durable_batches

(* ------------------------- serial engine ------------------------- *)

(* Serial with a WAL over [make ()], crashed halfway through the
   fault-free run's virtual time.  The durable prefix is whole 128-txn
   commit groups of stream 0, so a fresh serial run of exactly those
   transactions must land on the recovered state.  Returns the
   fault-free run's metrics and the oracle's. *)
let check_serial_crash_recovers make ~txns =
  let run ?crash_at () =
    let wl = make () in
    let costs = Costs.default in
    let sim = Sim.create ~wake_cost:costs.Costs.wakeup () in
    let w = Wal.create ~sim ~costs ~snapshot_every:2 wl.Workload.db in
    let m = Serial.run ~sim ~costs ~wal:w ?crash_at ~batch_size:128 wl ~txns in
    (wl, m, w)
  in
  let _, clean, _ = run () in
  let wl, m, w = run ~crash_at:(clean.Metrics.elapsed / 2) () in
  Tutil.check_int "crashed once" 1 m.Metrics.crashes;
  Tutil.check_int "committed = durable txns" (Wal.durable_txns w)
    m.Metrics.committed;
  let durable = m.Metrics.durable_batches in
  Tutil.check_bool "durable prefix only" true
    (durable > 0 && durable * 128 < txns);
  let wl2 = make () in
  let m2 = Serial.run wl2 ~txns:(durable * 128) in
  Tutil.check_int "oracle commits" m2.Metrics.committed m.Metrics.committed;
  Tutil.check_bool "recovered state = truncated serial run" true
    (Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db);
  (clean, m2)

let test_serial_crash_recovers () =
  ignore
    (check_serial_crash_recovers
       (fun () -> Ycsb.make (Tutil.small_ycsb ()))
       ~txns:1024)

(* TPC-C brings inserts and invalid-item aborts into the commit groups,
   which the per-group WAL logs as each dirtied row's final image. *)
let test_serial_crash_recovers_tpcc () =
  let clean, oracle =
    check_serial_crash_recovers
      (fun () -> Tpcc.make (Tutil.small_tpcc ()))
      ~txns:2048
  in
  Tutil.check_bool "prefix holds invalid-item aborts" true
    (oracle.Metrics.logic_aborted > 0);
  (* Logging one effect per write, rather than each dirtied row once per
     group, takes 3_274_200 bytes on this run. *)
  Tutil.check_bool "per-group WAL no larger than per-write logging" true
    (clean.Metrics.wal_bytes <= 3_274_200)

(* A crash point with nothing durable to recover from is a caller error
   in both engines that own a commit point, not a silent truncation. *)
let test_crash_needs_wal () =
  let expect label f =
    Alcotest.check_raises label
      (Invalid_argument
         "Commit_point.create: crash faults need a WAL (nothing durable to \
          recover from otherwise)")
      (fun () -> ignore (f (Ycsb.make (Tutil.small_ycsb ()))))
  in
  expect "serial rejects crash_at without a WAL" (fun wl ->
      Serial.run ~crash_at:1_000 wl ~txns:1024);
  expect "quecc rejects crash_at without a WAL" (fun wl ->
      Engine.run ~crash_at:1_000 (quecc_cfg ()) wl ~batches:8)

(* ------------------------- harness validation ------------------------- *)

let test_experiment_validation () =
  let spec = E.Ycsb (Tutil.small_ycsb ()) in
  let crash_plan =
    {
      Faults.none with
      Faults.crashes = [ { Faults.node = 0; at = 1_000; down = 1 } ];
    }
  in
  Alcotest.check_raises "--wal rejected off the WAL engines"
    (Invalid_argument
       "Experiment.run: --wal requires the 'wal' capability, but engine \
        silo provides {clients}")
    (fun () ->
      ignore
        (E.run (E.make ~threads:2 ~txns:256 ~batch_size:128 ~wal:true E.Silo spec)));
  Alcotest.check_raises "crash without --wal rejected"
    (Invalid_argument
       "Experiment.run: crash/disk faults on quecc need --wal (nothing \
        durable to recover from otherwise)")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~faults:crash_plan
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)));
  Alcotest.check_raises "snapshot period must be positive"
    (Invalid_argument "Experiment.run: --snapshot-every must be >= 1")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~wal:true
              ~snapshot_every:0
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)));
  Alcotest.check_raises "net faults stay distributed-only"
    (Invalid_argument
       "Experiment.run: network faults (drop/dup/delay/partition) requires \
        the 'dist' capability, but engine quecc provides {faults, clients, \
        wal, cdc, pipeline, adaptive}")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~wal:true
              ~faults:{ Faults.none with Faults.drop = 0.01 }
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)));
  Alcotest.check_raises "crash + open-loop clients rejected"
    (Invalid_argument
       "Experiment.run: crash faults and open-loop clients cannot be \
        combined on a centralized engine (a crashed node strands the \
        admission queue)")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~wal:true
              ~faults:crash_plan ~clients:Quill_clients.Clients.default
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)))

(* A crash fault through the full harness path commits exactly the
   durable prefix instead of exiting. *)
let test_experiment_crash_path () =
  let spec = E.Ycsb (Tutil.small_ycsb ()) in
  let probe =
    E.run
      (E.make ~threads:4 ~txns:512 ~batch_size:128 ~wal:true
         (E.Quecc (Engine.Speculative, Engine.Serializable))
         spec)
  in
  let plan =
    {
      Faults.none with
      Faults.crashes =
        [ { Faults.node = 0; at = probe.Metrics.elapsed / 2; down = 1 } ];
    }
  in
  let m =
    E.run
      (E.make ~threads:4 ~txns:512 ~batch_size:128 ~wal:true ~faults:plan
         (E.Quecc (Engine.Speculative, Engine.Serializable))
         spec)
  in
  Tutil.check_int "crashed once" 1 m.Metrics.crashes;
  Tutil.check_bool "durable prefix committed" true
    (m.Metrics.committed < probe.Metrics.committed);
  Tutil.check_int "whole durable batches" 0 (m.Metrics.committed mod 128)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wal"
    [
      ( "group-commit",
        [
          Alcotest.test_case "state-neutral + counters" `Quick
            test_wal_is_state_neutral;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "lockstep" `Quick test_crash_recovers_lockstep;
          Alcotest.test_case "pipelined" `Quick
            test_crash_recovers_pipelined;
          Alcotest.test_case "pipelined crash stops planning" `Quick
            test_crash_stops_planning;
          Alcotest.test_case "with aborts" `Quick
            test_crash_recovers_with_aborts;
          Alcotest.test_case "tpcc inserts, rolls before the crash" `Quick
            test_crash_recovers_tpcc_inserts;
          Alcotest.test_case "fsync failure, then crash" `Quick
            test_fsync_fail_then_crash;
          Alcotest.test_case "key re-inserted since the roll" `Quick
            test_roll_journal_reinsert;
          Alcotest.test_case "serial engine" `Quick
            test_serial_crash_recovers;
          Alcotest.test_case "serial engine, tpcc" `Quick
            test_serial_crash_recovers_tpcc;
          qc prop_crash_recovers_to_oracle;
        ] );
      ( "damaged-tails",
        [
          Alcotest.test_case "clean log replays fully" `Quick
            test_clean_log_replays_fully;
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "torn write at every record" `Quick
            test_torn_write_sweep;
          Alcotest.test_case "corrupt byte truncated" `Quick
            test_corrupt_byte_truncates;
          Alcotest.test_case "fsync failure degrades" `Quick
            test_fsync_fail_degrades;
        ] );
      ( "harness",
        [
          Alcotest.test_case "validation" `Quick test_experiment_validation;
          Alcotest.test_case "crash needs a wal" `Quick test_crash_needs_wal;
          Alcotest.test_case "crash path" `Quick test_experiment_crash_path;
        ] );
    ]
