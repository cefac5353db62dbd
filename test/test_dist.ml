(* Distributed engines: exact-state oracles (both are deterministic),
   commit without 2PC (message counts scale with batches, not
   transactions, for dist-quecc), and degenerate configurations. *)

open Quill_storage
open Quill_txn
open Quill_workloads
module Dq = Quill_dist.Dist_quecc
module Dc = Quill_dist.Dist_calvin

let dq_cfg ?(nodes = 2) ?(planners = 2) ?(executors = 2) ?(batch_size = 128)
    ?(pipeline = false) ?(replicas = 0) ?(spec_lag = 1) () =
  { Dq.nodes; planners; executors; batch_size;
    costs = Quill_sim.Costs.default; pipeline; replicas; spec_lag }

let dc_cfg ?(nodes = 2) ?(workers = 2) ?(batch_size = 128)
    ?(pipeline = false) () =
  { Dc.nodes; workers; batch_size; costs = Quill_sim.Costs.default; pipeline }

let ycsb_for ~nparts ?(mp = 0.3) ?(theta = 0.6) ?(abort_ratio = 0.0)
    ?(chain_deps = false) ?(seed = 11) () =
  Tutil.small_ycsb ~table_size:4_000 ~nparts ~theta ~mp_ratio:mp ~abort_ratio
    ~chain_deps ~seed ()

(* ------------------------- dist-quecc ------------------------- *)

let test_dq_matches_serial () =
  let cfg = ycsb_for ~nparts:4 ~chain_deps:true ~abort_ratio:0.1 () in
  let wl = Ycsb.make cfg in
  let wl_rec, logs = Tutil.record wl in
  let m = Dq.run (dq_cfg ()) wl_rec ~batches:3 in
  let wl2 = Ycsb.make cfg in
  (* global order: planner gid-major = stream-major ✓ *)
  let txns = Tutil.epoch_order logs ~streams:4 ~batch_size:128 ~batches:3 in
  let m2 = Quill_protocols.Serial.run_txns wl2 txns in
  Tutil.check_int "commits" m2.Metrics.committed m.Metrics.committed;
  Tutil.check_int "aborts" m2.Metrics.logic_aborted m.Metrics.logic_aborted;
  Tutil.check_bool "state" true
    (Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

let test_dq_deterministic () =
  let run () =
    let wl = Ycsb.make (ycsb_for ~nparts:4 ~abort_ratio:0.1 ()) in
    let m = Dq.run (dq_cfg ()) wl ~batches:3 in
    (Db.checksum wl.Workload.db, m.Metrics.elapsed, m.Metrics.msgs)
  in
  Tutil.check_bool "bit-identical runs" true (run () = run ())

let test_dq_message_batching () =
  (* The Q-Store property: message count depends on batches x planners x
     nodes, not on the number of transactions. *)
  let msgs batches =
    let wl = Ycsb.make (ycsb_for ~nparts:4 ~mp:1.0 ()) in
    let m = Dq.run (dq_cfg ()) wl ~batches in
    m.Metrics.msgs
  in
  let m2 = msgs 2 and m4 = msgs 4 in
  Tutil.check_bool "scales with batches" true (m4 > m2);
  (* per-batch message budget: planners ship <= nodes-1 each, plus
     done/commit/value traffic; far below one per transaction *)
  Tutil.check_bool
    (Printf.sprintf "far fewer msgs (%d) than txns (%d)" m4 (128 * 4))
    true
    (m4 < 128 * 4 / 4)

let test_dq_single_node () =
  let cfg = ycsb_for ~nparts:2 ~mp:0.0 () in
  let wl = Ycsb.make cfg in
  let m = Dq.run (dq_cfg ~nodes:1 ~planners:2 ~executors:2 ()) wl ~batches:2 in
  Tutil.check_int "all committed" 256
    (m.Metrics.committed + m.Metrics.logic_aborted);
  Tutil.check_int "no network traffic" 0 m.Metrics.msgs

let test_dq_bad_partitioning_rejected () =
  let wl = Ycsb.make (ycsb_for ~nparts:3 ()) in
  Alcotest.check_raises "nparts mismatch"
    (Invalid_argument "Dist_quecc.run: db nparts must equal nodes * executors")
    (fun () -> ignore (Dq.run (dq_cfg ()) wl ~batches:1))

let test_dq_tpcc () =
  (* Distributed QueCC on TPC-C with remote stock accesses. *)
  let cfg =
    { (Tutil.small_tpcc ~warehouses:2 ~nparts:4 ~payment_only:true ()) with
      Tpcc_defs.remote_payment_pct = 30 }
  in
  let wl = Tpcc.make cfg in
  let wl_rec, logs = Tutil.record wl in
  let m = Dq.run (dq_cfg ()) wl_rec ~batches:3 in
  let wl2 = Tpcc.make cfg in
  let txns = Tutil.epoch_order logs ~streams:4 ~batch_size:128 ~batches:3 in
  let m2 = Quill_protocols.Serial.run_txns wl2 txns in
  Tutil.check_int "commits" m2.Metrics.committed m.Metrics.committed;
  Tutil.check_bool "state" true
    (Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

(* ------------------------- pipelining ------------------------- *)

(* The lag-1 pipeline (planners/sequencer run one batch ahead of the
   commit they would otherwise block on) only changes virtual-time
   interleaving, never the committed state: planning touches no rows,
   so pipelined and lockstep runs of the same seed are bit-identical
   in state and counts, and the overlap must not slow the run down. *)
let test_dq_pipeline_identical () =
  let cfg = ycsb_for ~nparts:4 ~chain_deps:true ~abort_ratio:0.1 () in
  let run pipeline =
    let wl = Ycsb.make cfg in
    let m = Dq.run (dq_cfg ~pipeline ()) wl ~batches:4 in
    ( Db.checksum wl.Workload.db,
      m.Metrics.committed,
      m.Metrics.logic_aborted,
      m.Metrics.elapsed )
  in
  let c0, n0, a0, e0 = run false in
  let c1, n1, a1, e1 = run true in
  Tutil.check_int "commits" n0 n1;
  Tutil.check_int "aborts" a0 a1;
  Tutil.check_bool "state" true (c0 = c1);
  Tutil.check_bool
    (Printf.sprintf "pipelined (%d) not slower than lockstep (%d)" e1 e0)
    true (e1 <= e0)

let test_dc_pipeline_identical () =
  let cfg = ycsb_for ~nparts:4 ~mp:0.5 ~abort_ratio:0.1 () in
  let run pipeline =
    let wl = Ycsb.make cfg in
    let m = Dc.run (dc_cfg ~pipeline ()) wl ~batches:4 in
    ( Db.checksum wl.Workload.db,
      m.Metrics.committed,
      m.Metrics.logic_aborted,
      m.Metrics.elapsed )
  in
  let c0, n0, a0, e0 = run false in
  let c1, n1, a1, e1 = run true in
  Tutil.check_int "commits" n0 n1;
  Tutil.check_int "aborts" a0 a1;
  Tutil.check_bool "state" true (c0 = c1);
  Tutil.check_bool
    (Printf.sprintf "pipelined (%d) not slower than lockstep (%d)" e1 e0)
    true (e1 <= e0)

(* ------------------------- dist-calvin ------------------------- *)

let test_dc_matches_serial () =
  let cfg = ycsb_for ~nparts:4 ~abort_ratio:0.1 ~chain_deps:true () in
  let wl = Ycsb.make cfg in
  let wl_rec, logs = Tutil.record wl in
  let m = Dc.run (dc_cfg ()) wl_rec ~batches:3 in
  (* global order: per epoch, node 0's slice then node 1's *)
  let wl2 = Ycsb.make cfg in
  let txns = Tutil.epoch_order logs ~streams:2 ~batch_size:128 ~batches:3 in
  let m2 = Quill_protocols.Serial.run_txns wl2 txns in
  Tutil.check_int "commits" m2.Metrics.committed m.Metrics.committed;
  Tutil.check_bool "state" true
    (Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

let test_dc_deterministic () =
  let run () =
    let wl = Ycsb.make (ycsb_for ~nparts:4 ~mp:0.5 ()) in
    let m = Dc.run (dc_cfg ()) wl ~batches:2 in
    (Db.checksum wl.Workload.db, m.Metrics.elapsed)
  in
  Tutil.check_bool "bit-identical runs" true (run () = run ())

let test_dc_per_txn_messaging () =
  (* Calvin's structural cost: messages grow with multi-node txn count. *)
  let msgs mp =
    let wl = Ycsb.make (ycsb_for ~nparts:4 ~mp ()) in
    let m = Dc.run (dc_cfg ()) wl ~batches:2 in
    m.Metrics.msgs
  in
  let low = msgs 0.0 and high = msgs 1.0 in
  Tutil.check_bool
    (Printf.sprintf "mp=1.0 (%d msgs) >> mp=0 (%d msgs)" high low)
    true
    (high > low + 100)

let test_dq_beats_dc_on_messages () =
  let cfg = ycsb_for ~nparts:4 ~mp:1.0 () in
  let wl1 = Ycsb.make cfg in
  let m1 = Dq.run (dq_cfg ()) wl1 ~batches:3 in
  let wl2 = Ycsb.make cfg in
  let m2 = Dc.run (dc_cfg ()) wl2 ~batches:3 in
  Tutil.check_bool "queue shipping amortizes messages" true
    (m1.Metrics.msgs * 4 < m2.Metrics.msgs)

let test_dc_records_msg_bytes () =
  let wl = Ycsb.make (ycsb_for ~nparts:4 ~mp:0.5 ()) in
  let m = Dc.run (dc_cfg ()) wl ~batches:2 in
  Tutil.check_bool "payload bytes recorded" true (m.Metrics.msg_bytes > 0)

(* ------------------------- golden schedules ------------------------- *)

(* The exact schedules of both distributed engines, pinned: virtual
   time, busy time, messages, outcomes, crash replays, both pipeline
   stalls and the committed-state checksum.  The workload chains data
   dependencies across nodes and aborts some transactions, so value
   fills and abort resolutions flow.  A change to the cross-node runtime
   shared by the two engines must leave every value as it is. *)
let golden_ycsb () =
  ycsb_for ~nparts:4 ~mp:0.5 ~chain_deps:true ~abort_ratio:0.1 ()

let golden_faults s =
  match Quill_faults.Faults.parse s with
  | Ok f -> f
  | Error e -> failwith e

let golden_clients sim wl =
  Quill_clients.Clients.create ~sim ~nodes:2 wl
    { Quill_clients.Clients.default with
      Quill_clients.Clients.arrival = Quill_clients.Clients.Poisson 2e6;
      total = 384;
      seed = 7 }

(* [run sim wl] runs one engine; its result is pinned with [expect].
   [tpcc] runs that TPC-C configuration instead of the YCSB mix. *)
let golden ?(nparts = 4) ?tpcc name run expect =
  let wl =
    match tpcc with
    | Some cfg -> Tpcc.make cfg
    | None -> Ycsb.make { (golden_ycsb ()) with Ycsb.nparts }
  in
  let sim =
    Quill_sim.Sim.create ~wake_cost:Quill_sim.Costs.default.wakeup ()
  in
  let m = run sim wl in
  let got =
    [
      ("elapsed", m.Metrics.elapsed);
      ("busy", m.Metrics.busy);
      ("msgs", m.Metrics.msgs);
      ("committed", m.Metrics.committed);
      ("logic_aborted", m.Metrics.logic_aborted);
      ("redone", m.Metrics.redone);
      ("fill_stall", m.Metrics.pipe_fill_stall);
      ("drain_stall", m.Metrics.pipe_drain_stall);
      ("checksum", Db.checksum wl.Workload.db);
    ]
  in
  Alcotest.(check (list (pair string int))) name expect got

let test_golden_schedules () =
  let noisy =
    golden_faults "crash@t=150us:node=1:down=50us,drop=0.05,dup=0.05,seed=7"
  in
  let dq ?faults ?(clients = false) ?(batches = 4) cfg sim wl =
    let clients = if clients then Some (golden_clients sim wl) else None in
    Dq.run ~sim ?faults ?clients cfg wl
      ~batches:(if clients = None then batches else 0)
  in
  let dc ?faults ?(clients = false) cfg sim wl =
    let clients = if clients then Some (golden_clients sim wl) else None in
    Dc.run ~sim ?faults ?clients cfg wl
      ~batches:(if clients = None then 4 else 0)
  in
  golden "dist-quecc lockstep" (dq (dq_cfg ()))
    [
      ("elapsed", 7852236);
      ("busy", 6363680);
      ("msgs", 742);
      ("committed", 488);
      ("logic_aborted", 24);
      ("redone", 0);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 3754524370845509379)
    ];
  golden "dist-quecc pipelined" (dq (dq_cfg ~pipeline:true ()))
    [
      ("elapsed", 7747802);
      ("busy", 6363680);
      ("msgs", 742);
      ("committed", 488);
      ("logic_aborted", 24);
      ("redone", 0);
      ("fill_stall", 156815);
      ("drain_stall", 14212208);
      ("checksum", 3754524370845509379)
    ];
  golden "dist-quecc clients" (dq ~clients:true (dq_cfg ()))
    [
      ("elapsed", 6004928);
      ("busy", 4948450);
      ("msgs", 569);
      ("committed", 372);
      ("logic_aborted", 51);
      ("redone", 0);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 1341492139027834592)
    ];
  golden "dist-quecc crash + drop/dup" (dq ~faults:noisy (dq_cfg ()))
    [
      ("elapsed", 10126538);
      ("busy", 6565635);
      ("msgs", 742);
      ("committed", 488);
      ("logic_aborted", 24);
      ("redone", 21);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 3754524370845509379)
    ];
  golden ~nparts:2 "dist-quecc replicas=2 leader kill"
    (dq ~faults:(golden_faults "crash@t=300us:node=0")
       (dq_cfg ~nodes:1 ~replicas:2 ~spec_lag:2 ()))
    [
      ("elapsed", 2616322);
      ("busy", 4104010);
      ("msgs", 28);
      ("committed", 486);
      ("logic_aborted", 26);
      ("redone", 0);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 1146175515754635975)
    ];
  (* TPC-C on dist-quecc: fragments whose logic ends without a row
     access (an invalid item, a missing order) hand values and votes to
     other threads, so these pin that [Direct.step]'s local logic charge
     and the runtime's [output] sync before shared state.  The first
     deadlocks when [output] does not sync; the second moves when a
     non-local step does not sync after its logic. *)
  golden
    ~tpcc:(Tutil.small_tpcc ~warehouses:1 ~nparts:4 ~seed:1 ())
    "dist-quecc tpcc 1w" (dq (dq_cfg ~batch_size:256 ()))
    [
      ("elapsed", 16622782);
      ("busy", 38362030);
      ("msgs", 4572);
      ("committed", 1020);
      ("logic_aborted", 4);
      ("redone", 0);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 1248524950086161702)
    ];
  golden
    ~tpcc:
      { (Tutil.small_tpcc ~warehouses:2 ~nparts:8 ~seed:42 ()) with
        Tpcc_defs.items = 100_000 }
    "dist-quecc tpcc 2w"
    (dq ~batches:2 (dq_cfg ~planners:4 ~executors:4 ~batch_size:1024 ()))
    [
      ("elapsed", 30890057);
      ("busy", 83380920);
      ("msgs", 10111);
      ("committed", 2035);
      ("logic_aborted", 13);
      ("redone", 0);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 2076799466790817053)
    ];
  golden "dist-calvin lockstep" (dc (dc_cfg ()))
    [
      ("elapsed", 2959787);
      ("busy", 12184520);
      ("msgs", 1005);
      ("committed", 490);
      ("logic_aborted", 22);
      ("redone", 0);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 1912161862395229957)
    ];
  golden "dist-calvin pipelined" (dc (dc_cfg ~pipeline:true ()))
    [
      ("elapsed", 2890247);
      ("busy", 12184520);
      ("msgs", 1005);
      ("committed", 490);
      ("logic_aborted", 22);
      ("redone", 0);
      ("fill_stall", 55010);
      ("drain_stall", 2739356);
      ("checksum", 1912161862395229957)
    ];
  golden "dist-calvin clients" (dc ~clients:true (dc_cfg ()))
    [
      ("elapsed", 2778805);
      ("busy", 9830610);
      ("msgs", 801);
      ("committed", 372);
      ("logic_aborted", 51);
      ("redone", 0);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 1341492139027834592)
    ];
  golden "dist-calvin crash + drop/dup" (dc ~faults:noisy (dc_cfg ()))
    [
      ("elapsed", 3807141);
      ("busy", 12539410);
      ("msgs", 1006);
      ("committed", 490);
      ("logic_aborted", 22);
      ("redone", 82);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("checksum", 1912161862395229957)
    ]

let prop_dq_oracle_random =
  QCheck.Test.make ~name:"dist-quecc == serial oracle across seeds" ~count:6
    QCheck.(pair (int_range 0 500) (int_range 0 100))
    (fun (seed, mp_pct) ->
      let cfg =
        ycsb_for ~nparts:4 ~mp:(float_of_int mp_pct /. 100.0) ~seed
          ~abort_ratio:0.05 ()
      in
      let wl = Ycsb.make cfg in
      let wl_rec, logs = Tutil.record wl in
      let _ = Dq.run (dq_cfg ~batch_size:64 ()) wl_rec ~batches:2 in
      let wl2 = Ycsb.make cfg in
      let txns = Tutil.epoch_order logs ~streams:4 ~batch_size:64 ~batches:2 in
      let _ = Quill_protocols.Serial.run_txns wl2 txns in
      Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dist"
    [
      ( "dist-quecc",
        [
          Alcotest.test_case "matches serial oracle" `Quick
            test_dq_matches_serial;
          Alcotest.test_case "deterministic" `Quick test_dq_deterministic;
          Alcotest.test_case "message batching" `Quick test_dq_message_batching;
          Alcotest.test_case "single node" `Quick test_dq_single_node;
          Alcotest.test_case "bad partitioning rejected" `Quick
            test_dq_bad_partitioning_rejected;
          Alcotest.test_case "tpcc distributed" `Quick test_dq_tpcc;
          qc prop_dq_oracle_random;
        ] );
      ( "dist-calvin",
        [
          Alcotest.test_case "matches serial oracle" `Quick
            test_dc_matches_serial;
          Alcotest.test_case "deterministic" `Quick test_dc_deterministic;
          Alcotest.test_case "per-txn messaging" `Quick
            test_dc_per_txn_messaging;
          Alcotest.test_case "quecc ships fewer messages" `Quick
            test_dq_beats_dc_on_messages;
          Alcotest.test_case "records message bytes" `Quick
            test_dc_records_msg_bytes;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "dist-quecc pipelined identical" `Quick
            test_dq_pipeline_identical;
          Alcotest.test_case "dist-calvin pipelined identical" `Quick
            test_dc_pipeline_identical;
        ] );
      ( "golden",
        [
          Alcotest.test_case "golden dist schedules" `Quick
            test_golden_schedules;
        ] );
    ]
