(* Correctness of the baseline protocols.

   Non-deterministic engines can commit in any serializable order, so
   exact-state oracles don't apply; instead we check (a) the additive
   invariant (sum of field 0 = initial + committed deltas) on update-only
   YCSB, (b) completion without losing transactions, (c) run-to-run
   determinism of the simulation itself, and (d) for the deterministic
   engines (Calvin, serial) exact equality with the serial oracle. *)

open Quill_storage
open Quill_txn
open Quill_workloads
open Quill_protocols

let nd_cfg workers =
  { Nd_driver.default_cfg with Nd_driver.workers }

let calvin_cfg workers =
  { Calvin.workers; batch_size = 512; costs = Quill_sim.Costs.default }

let all_cc : (string * (module Nd_driver.CC)) list =
  [
    ("2pl-nowait", (module Twopl.No_wait_cc));
    ("2pl-waitdie", (module Twopl.Wait_die_cc));
    ("silo", (module Silo));
    ("tictoc", (module Tictoc));
    ("mvto", (module Mvto));
  ]

let additive_check name run =
  (* update-only YCSB at high contention: conflicts guaranteed *)
  let cfg =
    Tutil.small_ycsb ~table_size:256 ~theta:0.9 ~read_ratio:0.0 ~mp_ratio:0.0 ()
  in
  let wl = Ycsb.make cfg in
  let initial = Tutil.sum_field0 wl.Workload.db "usertable" in
  let wl_rec, logs = Tutil.record wl in
  let m = run wl_rec in
  (* every generated transaction was either committed or logic-aborted *)
  let txns =
    Hashtbl.fold
      (fun _ v acc -> Quill_common.Vec.to_list v @ acc)
      logs []
  in
  let delta = Tutil.ycsb_committed_delta txns in
  Tutil.check_int (name ^ ": additive invariant") (initial + delta)
    (Tutil.sum_field0 wl.Workload.db "usertable");
  Tutil.check_int
    (name ^ ": no transaction lost")
    2_000
    (m.Metrics.committed + m.Metrics.logic_aborted)

let test_additive_all_nd () =
  List.iter
    (fun (name, cc) ->
      additive_check name (fun wl -> Nd_driver.run cc (nd_cfg 4) wl ~txns:2000))
    all_cc

let test_additive_hstore () =
  additive_check "hstore" (fun wl ->
      Hstore.run { Hstore.workers = 4; costs = Quill_sim.Costs.default } wl
        ~txns:2000)

let test_additive_calvin () =
  additive_check "calvin" (fun wl ->
      Calvin.run (calvin_cfg 3) wl ~txns:2000)

let test_abort_rates_under_contention () =
  (* ND protocols must actually abort under contention — otherwise the
     whole comparison is vacuous — and still finish. *)
  List.iter
    (fun (name, cc) ->
      let wl =
        Ycsb.make (Tutil.small_ycsb ~table_size:64 ~theta:0.0 ~read_ratio:0.0 ())
      in
      let m = Nd_driver.run cc (nd_cfg 8) wl ~txns:1000 in
      Tutil.check_int (name ^ " commits") 1000 m.Metrics.committed;
      Tutil.check_bool (name ^ " experienced conflicts") true
        (m.Metrics.cc_aborts > 0))
    all_cc

let test_deterministic_engines_have_no_cc_aborts () =
  let wl = Ycsb.make (Tutil.small_ycsb ~table_size:64 ~theta:0.0 ()) in
  let m = Hstore.run { Hstore.workers = 4; costs = Quill_sim.Costs.default }
            wl ~txns:500
  in
  Tutil.check_int "hstore abort-free" 0 m.Metrics.cc_aborts;
  let wl2 = Ycsb.make (Tutil.small_ycsb ~table_size:64 ~theta:0.0 ()) in
  let m2 = Calvin.run (calvin_cfg 3) wl2
             ~txns:500
  in
  Tutil.check_int "calvin abort-free" 0 m2.Metrics.cc_aborts

let test_calvin_matches_serial () =
  (* Calvin is deterministic: its state equals serial execution of the
     sequencer's stream order (stream 0). *)
  let cfg = Tutil.small_ycsb ~theta:0.9 ~abort_ratio:0.15 ~mp_ratio:0.3 () in
  let wl = Ycsb.make cfg in
  let wl_rec, logs = Tutil.record wl in
  let m =
    Calvin.run (calvin_cfg 4) wl_rec ~txns:600
  in
  let wl_oracle = Ycsb.make cfg in
  let txns = Quill_common.Vec.to_list (Hashtbl.find logs 0) in
  let m2 = Quill_protocols.Serial.run_txns wl_oracle txns in
  Tutil.check_int "commits" m2.Metrics.committed m.Metrics.committed;
  Tutil.check_bool "state equals serial" true
    (Db.checksum wl.Workload.db = Db.checksum wl_oracle.Workload.db)

let test_run_to_run_determinism () =
  List.iter
    (fun (name, cc) ->
      let run () =
        let wl = Ycsb.make (Tutil.small_ycsb ~theta:0.9 ()) in
        let m = Nd_driver.run cc (nd_cfg 4) wl ~txns:800 in
        (Db.checksum wl.Workload.db, m.Metrics.cc_aborts, m.Metrics.elapsed)
      in
      Tutil.check_bool (name ^ " deterministic simulation") true
        (run () = run ()))
    all_cc

let test_serial_engine () =
  let cfg = Tutil.small_ycsb ~abort_ratio:0.2 ~read_ratio:0.0 () in
  let wl = Ycsb.make cfg in
  let initial = Tutil.sum_field0 wl.Workload.db "usertable" in
  let wl_rec, logs = Tutil.record wl in
  let m = Serial.run wl_rec ~txns:500 in
  Tutil.check_int "count" 500 (m.Metrics.committed + m.Metrics.logic_aborted);
  let txns = Quill_common.Vec.to_list (Hashtbl.find logs 0) in
  let delta = Tutil.ycsb_committed_delta txns in
  Tutil.check_int "serial additive" (initial + delta)
    (Tutil.sum_field0 wl.Workload.db "usertable");
  Tutil.check_int "serial never cc-aborts" 0 m.Metrics.cc_aborts

let test_hstore_partition_collapse () =
  (* The Table-2-row-1 mechanism: multi-partition transactions serialize
     H-Store's partitions, so throughput must collapse as MP% rises. *)
  let tput mp =
    let wl =
      Ycsb.make
        (Tutil.small_ycsb ~table_size:8_000 ~nparts:4 ~theta:0.0 ~mp_ratio:mp ())
    in
    let m = Hstore.run { Hstore.workers = 4; costs = Quill_sim.Costs.default }
              wl ~txns:2000
    in
    Metrics.throughput m
  in
  let t0 = tput 0.0 and t1 = tput 1.0 in
  Tutil.check_bool
    (Printf.sprintf "collapse (%.0f -> %.0f)" t0 t1)
    true
    (t1 < t0 /. 4.0)

let test_calvin_lock_manager_bottleneck () =
  (* Adding workers cannot push Calvin past its single-threaded lock
     manager: going 2 -> 8 workers helps far less than 4x. *)
  let tput workers =
    let wl = Ycsb.make (Tutil.small_ycsb ~table_size:8_000 ~theta:0.0 ()) in
    let m = Calvin.run (calvin_cfg workers) wl ~txns:3000 in
    Metrics.throughput m
  in
  let t2 = tput 2 and t8 = tput 8 in
  Tutil.check_bool "sublinear worker scaling" true (t8 < t2 *. 2.0)

let test_plock () =
  let open Quill_sim in
  let s = Sim.create () in
  let l = Plock.create () in
  let order = ref [] in
  for i = 0 to 2 do
    Sim.spawn s (fun () ->
        Sim.tick s (i * 10);
        Plock.acquire s l;
        order := i :: !order;
        Sim.tick s 100;
        Plock.release s l)
  done;
  Tutil.check_int "parked" 0 (Sim.run s);
  Alcotest.(check (list int)) "fifo handoff" [ 0; 1; 2 ] (List.rev !order);
  Tutil.check_bool "free at end" false (Plock.held l)

(* Calvin's lock table: with S held and an X queued, a later S waits
   behind the X instead of barging past it; the X is granted only on the
   first release, the S after the X's, and each ticket is granted once.
   A multi-key ticket is granted when its last key is. *)
let test_dlock () =
  let open Quill_sim in
  let s = Sim.create () in
  let granted = ref [] in
  let lt =
    Dlock.create s Costs.default ~on_grant:(fun tk -> granted := tk :: !granted)
  in
  let check what want =
    Alcotest.(check (list string))
      what want
      (List.rev_map Dlock.owner !granted)
  in
  let release name =
    Dlock.release lt (List.find (fun tk -> Dlock.owner tk = name) !granted)
  in
  Sim.spawn s (fun () ->
      Dlock.acquire lt "s1" [ (0, 7, false) ];
      Dlock.acquire lt "x" [ (0, 7, true) ];
      Dlock.acquire lt "s2" [ (0, 7, false) ];
      Dlock.acquire lt "both" [ (0, 8, false); (0, 7, false) ];
      check "only the first S" [ "s1" ];
      release "s1";
      check "X on the first release" [ "s1"; "x" ];
      release "x";
      check "queued S together after the X" [ "s1"; "x"; "s2"; "both" ];
      release "s2";
      release "both";
      check "each ticket granted once" [ "s1"; "x"; "s2"; "both" ];
      Tutil.check_int "one charge per request and per release (5 keys)"
        (5
        * (Costs.default.Costs.lock_mgr_op + Costs.default.Costs.lock_release))
        (Sim.now s));
  Tutil.check_int "parked" 0 (Sim.run s)

let test_mvto_versions () =
  (* MVTO run leaves version chains bounded and committed = live. *)
  let wl = Ycsb.make (Tutil.small_ycsb ~table_size:64 ~read_ratio:0.5 ()) in
  let _ = Nd_driver.run (module Mvto) (nd_cfg 4) wl ~txns:1000 in
  let tbl = Db.table_by_name wl.Workload.db "usertable" in
  for key = 0 to Table.capacity tbl - 1 do
    Tutil.check_bool "chain bounded" true
      (List.length (Table.versions tbl key) <= 8);
    Tutil.check_int "committed = live" (Table.get tbl key 0)
      (Table.committed tbl key 0)
  done

(* ------------------------- golden schedules ------------------------- *)

module E = Quill_harness.Experiment

(* The per-transaction engines' exact schedules, closed loop and behind
   open-loop clients: virtual time, busy time, commits, both abort
   counts, p99 and the committed-state checksum.  A refactor of the protocols or their
   shared runners must leave every value as it is. *)
let golden_workloads =
  [
    ("chained ycsb",
     E.Ycsb (Tutil.small_ycsb ~theta:0.9 ~abort_ratio:0.1 ~chain_deps:true ()));
    ("rmw ycsb",
     E.Ycsb (Tutil.small_ycsb ~theta:0.99 ~mp_ratio:0.5 ~read_ratio:0.0 ()));
    ("tpcc payment", E.Tpcc (Tutil.small_tpcc ~payment_only:true ()));
    ("tpcc 2w", E.Tpcc (Tutil.small_tpcc ~warehouses:2 ()));
  ]

(* Each pinned engine with the loops it runs in: the ND protocols and the
   per-transaction deterministic engines, closed and open loop; serial
   takes no clients. *)
let golden_nd_engines =
  let both = [ false; true ] in
  E.
    [
      (Twopl_nowait, both); (Twopl_waitdie, both); (Silo, both);
      (Tictoc, both); (Mvto, both); (Hstore, both); (Calvin, both);
      (Serial, [ false ]);
    ]

(* [elapsed; busy; committed; logic_aborted; cc_aborts; p99; checksum]. *)
let golden_nd engine workload ~clients =
  let clients =
    if clients then
      Some
        { Quill_clients.Clients.default with
          Quill_clients.Clients.arrival = Quill_clients.Clients.Poisson 1e6;
          seed = 7 }
    else None
  in
  let e =
    E.make ~threads:4 ~txns:1024 ~batch_size:128 ?clients engine workload
  in
  let db = ref None in
  let m = E.run ~on_workload:(fun wl -> db := Some wl.Workload.db) e in
  let checksum = match !db with Some d -> Db.checksum d | None -> 0 in
  [
    m.Metrics.elapsed;
    m.Metrics.busy;
    m.Metrics.committed;
    m.Metrics.logic_aborted;
    m.Metrics.cc_aborts;
    Quill_common.Stats.Hist.percentile m.Metrics.lat 99.0;
    checksum;
  ]

(* [golden_nd]'s values per engine, workload and loop. *)
let golden_nd_expect =
  [
    ("2pl-nowait chained ycsb closed",
     [ 1142936; 3901385; 985; 39; 285; 13311; 2511843955240449167 ]);
    ("2pl-nowait chained ycsb open",
     [ 1143400; 4161250; 1003; 104; 299; 12287; 2949693572401802026 ]);
    ("2pl-nowait rmw ycsb closed",
     [ 1619187; 4850010; 1024; 0; 597; 36863; 3399060117009271151 ]);
    ("2pl-nowait rmw ycsb open",
     [ 1606252; 4931425; 1024; 0; 627; 40959; 3399060117009271151 ]);
    ("2pl-nowait tpcc payment closed",
     [ 7656912; 7489900; 1021; 3; 101; 18431; 3844684704405354516 ]);
    ("2pl-nowait tpcc payment open",
     [ 7683381; 7561765; 1021; 12; 226; 344063; 3844684704405354516 ]);
    ("2pl-nowait tpcc 2w closed",
     [ 5323974; 10399275; 1016; 8; 833; 110591; 2723279764805203541 ]);
    ("2pl-nowait tpcc 2w open",
     [ 5253568; 10910460; 1016; 32; 861; 188415; 4122524828556760228 ]);
    ("2pl-waitdie chained ycsb closed",
     [ 1041309; 3816250; 987; 37; 183; 11263; 4211696880506004335 ]);
    ("2pl-waitdie chained ycsb open",
     [ 1111257; 4047345; 1002; 107; 198; 10239; 3789387592944718698 ]);
    ("2pl-waitdie rmw ycsb closed",
     [ 1357316; 4488305; 1024; 0; 387; 18431; 3399060117009271151 ]);
    ("2pl-waitdie rmw ycsb open",
     [ 1358179; 4533180; 1024; 0; 436; 17407; 3399060117009271151 ]);
    ("2pl-waitdie tpcc payment closed",
     [ 5551846; 8048770; 1021; 3; 1491; 196607; 3844684704405354516 ]);
    ("2pl-waitdie tpcc payment open",
     [ 5878642; 8009735; 1021; 12; 1109; 376831; 3844684704405354516 ]);
    ("2pl-waitdie tpcc 2w closed",
     [ 4138102; 10795910; 1016; 8; 860; 106495; 3720011750315133044 ]);
    ("2pl-waitdie tpcc 2w open",
     [ 4297072; 10800520; 1016; 32; 911; 106495; 4293352432350284380 ]);
    ("silo chained ycsb closed",
     [ 1148661; 4330180; 989; 35; 166; 12799; 281123926232619435 ]);
    ("silo chained ycsb open",
     [ 1197512; 4566500; 1000; 112; 187; 12799; 3611642565957805172 ]);
    ("silo rmw ycsb closed",
     [ 2068091; 6385175; 1024; 0; 463; 40959; 3399060117009271151 ]);
    ("silo rmw ycsb open",
     [ 2059834; 6327360; 1024; 0; 453; 30719; 3399060117009271151 ]);
    ("silo tpcc payment closed",
     [ 6780629; 11102820; 1021; 3; 283; 114687; 3844684704405354516 ]);
    ("silo tpcc payment open",
     [ 6275160; 13898130; 1021; 12; 491; 294911; 3844684704405354516 ]);
    ("silo tpcc 2w closed",
     [ 5377423; 15983535; 1016; 8; 309; 204799; 2097030886603471936 ]);
    ("silo tpcc 2w open",
     [ 4640646; 16984255; 1016; 32; 366; 196607; 3263267998785023212 ]);
    ("tictoc chained ycsb closed",
     [ 1116434; 4205335; 987; 37; 126; 12287; 2549834724304724079 ]);
    ("tictoc chained ycsb open",
     [ 1152339; 4431165; 1001; 107; 144; 12799; 1999827706098533294 ]);
    ("tictoc rmw ycsb closed",
     [ 2068091; 6385175; 1024; 0; 463; 40959; 3399060117009271151 ]);
    ("tictoc rmw ycsb open",
     [ 2059834; 6327360; 1024; 0; 453; 30719; 3399060117009271151 ]);
    ("tictoc tpcc payment closed",
     [ 4903391; 12357950; 1021; 3; 408; 155647; 3844684704405354516 ]);
    ("tictoc tpcc payment open",
     [ 4424152; 13758225; 1021; 12; 527; 188415; 3844684704405354516 ]);
    ("tictoc tpcc 2w closed",
     [ 4749286; 14141370; 1016; 8; 211; 147455; 1456118152126278366 ]);
    ("tictoc tpcc 2w open",
     [ 4477831; 15300755; 1016; 32; 227; 172031; 3263267998785023212 ]);
    ("mvto chained ycsb closed",
     [ 1145399; 4172770; 983; 41; 247; 18431; 1413885171679176529 ]);
    ("mvto chained ycsb open",
     [ 1217534; 4444980; 999; 118; 274; 16383; 2076286722449374159 ]);
    ("mvto rmw ycsb closed",
     [ 3173042; 6302870; 1024; 0; 597; 106495; 3399060117009271151 ]);
    ("mvto rmw ycsb open",
     [ 2662797; 6574575; 1024; 0; 738; 77823; 3399060117009271151 ]);
    ("mvto tpcc payment closed",
     [ 5670475; 12641005; 1021; 3; 711; 139263; 3844684704405354516 ]);
    ("mvto tpcc payment open",
     [ 5641944; 13396095; 1021; 12; 811; 311295; 3844684704405354516 ]);
    ("mvto tpcc 2w closed",
     [ 4190583; 12431615; 1016; 8; 366; 94207; 3167856933690843845 ]);
    ("mvto tpcc 2w open",
     [ 3781679; 13139395; 1016; 32; 414; 98303; 3263267998785023212 ]);
    ("hstore chained ycsb closed",
     [ 3598805; 4110920; 985; 39; 0; 55295; 1738850774117926276 ]);
    ("hstore chained ycsb open",
     [ 3809194; 4374910; 1001; 111; 0; 53247; 3251603820908429399 ]);
    ("hstore rmw ycsb closed",
     [ 7825590; 6445960; 1024; 0; 0; 73727; 3399060117009271151 ]);
    ("hstore rmw ycsb open",
     [ 7851034; 6445960; 1024; 0; 0; 73727; 3399060117009271151 ]);
    ("hstore tpcc payment closed",
     [ 28334720; 20355690; 1021; 3; 0; 155647; 3844684704405354516 ]);
    ("hstore tpcc payment open",
     [ 28643734; 20593685; 1021; 12; 0; 155647; 3844684704405354516 ]);
    ("hstore tpcc 2w closed",
     [ 29185215; 21866295; 1016; 8; 0; 196607; 527710866764555079 ]);
    ("hstore tpcc 2w open",
     [ 29827469; 22351295; 1016; 32; 0; 196607; 4122524828556760228 ]);
    ("calvin chained ycsb closed",
     [ 9475430; 12350310; 984; 40; 0; 12287; 1518634225530193001 ]);
    ("calvin chained ycsb open",
     [ 10381894; 13437490; 996; 126; 0; 12287; 4008407949772811656 ]);
    ("calvin rmw ycsb closed",
     [ 9475550; 12697600; 1024; 0; 0; 12350; 3027097019011861538 ]);
    ("calvin rmw ycsb open",
     [ 9476054; 12697600; 1024; 0; 0; 12350; 3399060117009271151 ]);
    ("calvin tpcc payment closed",
     [ 11842385; 18218190; 1023; 1; 0; 46365; 908476939025030008 ]);
    ("calvin tpcc payment open",
     [ 12332269; 18940275; 1021; 12; 0; 46365; 3844684704405354516 ]);
    ("calvin tpcc 2w closed",
     [ 20728295; 29416165; 1016; 8; 0; 221183; 3898850969671227978 ]);
    ("calvin tpcc 2w open",
     [ 19941019; 28598735; 1016; 32; 0; 221183; 4122524828556760228 ]);
    ("serial chained ycsb closed",
     [ 2878310; 2878310; 984; 40; 0; 2815; 1518634225530193001 ]);
    ("serial rmw ycsb closed",
     [ 3225600; 3225600; 1024; 0; 0; 2900; 3027097019011861538 ]);
    ("serial tpcc payment closed",
     [ 6319950; 6319950; 1023; 1; 0; 15640; 908476939025030008 ]);
    ("serial tpcc 2w closed",
     [ 8430380; 8430380; 1016; 8; 0; 44620; 3898850969671227978 ]);
  ]

let test_golden_nd () =
  let checked = ref 0 in
  List.iter
    (fun (engine, loops) ->
      List.iter
        (fun (wname, workload) ->
          List.iter
            (fun clients ->
              let name =
                Printf.sprintf "%s %s %s" (E.engine_name engine) wname
                  (if clients then "open" else "closed")
              in
              Alcotest.(check (list int))
                name
                (List.assoc name golden_nd_expect)
                (golden_nd engine workload ~clients);
              incr checked)
            loops)
        golden_workloads)
    golden_nd_engines;
  Tutil.check_int "every pin checked" !checked (List.length golden_nd_expect)

let prop_nd_additive =
  QCheck.Test.make ~name:"nd protocols keep the additive invariant" ~count:10
    QCheck.(pair (int_range 0 10_000) (int_range 0 4))
    (fun (seed, proto) ->
      let _, cc = List.nth all_cc proto in
      let cfg =
        Tutil.small_ycsb ~table_size:128 ~theta:0.8 ~read_ratio:0.0 ~seed ()
      in
      let wl = Ycsb.make cfg in
      let initial = Tutil.sum_field0 wl.Workload.db "usertable" in
      let wl_rec, logs = Tutil.record wl in
      let _ = Nd_driver.run cc (nd_cfg 3) wl_rec ~txns:300 in
      let txns =
        Hashtbl.fold (fun _ v acc -> Quill_common.Vec.to_list v @ acc) logs []
      in
      Tutil.sum_field0 wl.Workload.db "usertable"
      = initial + Tutil.ycsb_committed_delta txns)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "protocols"
    [
      ( "invariants",
        [
          Alcotest.test_case "additive: all nd protocols" `Quick
            test_additive_all_nd;
          Alcotest.test_case "additive: hstore" `Quick test_additive_hstore;
          Alcotest.test_case "additive: calvin" `Quick test_additive_calvin;
          Alcotest.test_case "serial engine" `Quick test_serial_engine;
          qc prop_nd_additive;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "nd protocols abort under contention" `Quick
            test_abort_rates_under_contention;
          Alcotest.test_case "deterministic engines never cc-abort" `Quick
            test_deterministic_engines_have_no_cc_aborts;
          Alcotest.test_case "calvin == serial oracle" `Quick
            test_calvin_matches_serial;
          Alcotest.test_case "run-to-run determinism" `Quick
            test_run_to_run_determinism;
          Alcotest.test_case "mvto version chains" `Quick test_mvto_versions;
          Alcotest.test_case "golden nd schedules" `Quick test_golden_nd;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "hstore multi-partition collapse" `Slow
            test_hstore_partition_collapse;
          Alcotest.test_case "calvin lock-manager bottleneck" `Slow
            test_calvin_lock_manager_bottleneck;
        ] );
      ("plock", [ Alcotest.test_case "fifo mutex" `Quick test_plock ]);
      ( "dlock",
        [ Alcotest.test_case "fifo S/X queues, no barging" `Quick test_dlock ] );
    ]
