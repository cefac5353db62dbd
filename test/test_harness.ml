(* Harness plumbing: every engine is runnable through the one-stop
   experiment API, names round-trip, and reports render. *)

open Quill_txn
module E = Quill_harness.Experiment
module Qe = Quill_quecc.Engine

let tiny_ycsb = E.Ycsb (Tutil.small_ycsb ~table_size:1_000 ~nparts:4 ())

let tiny_tpcc =
  E.Tpcc (Tutil.small_tpcc ~warehouses:1 ~nparts:4 ~payment_only:true ())

let test_engine_names_roundtrip () =
  List.iter
    (fun e ->
      match E.engine_of_string (E.engine_name e) with
      | Some e' ->
          Alcotest.(check string)
            "roundtrip" (E.engine_name e) (E.engine_name e')
      | None -> Alcotest.failf "no parse for %s" (E.engine_name e))
    (E.Serial :: E.Dist_quecc 2 :: E.Dist_calvin 8 :: E.all_centralized)

(* The registry is the one source of truth for names: everything it
   advertises (bar the <n> patterns, which stand for a family) must
   parse, resolve to a runnable module, and round-trip through its
   canonical name; capability flags must match the family. *)
let test_registry_names_resolve () =
  let module R = Quill_harness.Engine_registry in
  let advertised = R.names () in
  Tutil.check_bool "registry advertises engines" true
    (List.length advertised >= 10);
  List.iter
    (fun n ->
      if not (String.contains n '<') then
        match R.engine_of_string n with
        | None -> Alcotest.failf "advertised name %s does not parse" n
        | Some e -> (
            let (module M : Quill_harness.Engine_intf.S) = R.resolve e in
            Tutil.check_bool (n ^ " resolves to a named module") true
              (String.length M.name > 0);
            let canonical = R.engine_name e in
            match R.engine_of_string canonical with
            | Some e' ->
                Tutil.check_bool (n ^ " canonical round-trips") true (e = e')
            | None ->
                Alcotest.failf "canonical %s of %s does not parse" canonical n))
    advertised;
  let module Cap = Quill_harness.Capability in
  List.iter
    (fun e ->
      let (module M : Quill_harness.Engine_intf.S) = R.resolve e in
      let has c = Cap.mem c M.caps in
      (* fault support comes from having a network to fault (the dist
         engines) or a WAL to recover from (serial, the quecc family) *)
      Tutil.check_bool
        (R.engine_name e ^ " fault support iff distributed or WAL-capable")
        (has Cap.Dist || has Cap.Wal)
        (has Cap.Faults);
      Tutil.check_bool
        (R.engine_name e ^ " WAL support stays centralized")
        true
        ((not (has Cap.Wal)) || not (has Cap.Dist));
      (* the CDC hub stages at the WAL seam, so the capabilities travel
         together *)
      Tutil.check_bool
        (R.engine_name e ^ " CDC support implies WAL support")
        true
        ((not (has Cap.Cdc)) || has Cap.Wal))
    (R.Dist_quecc 4 :: R.Dist_calvin 2 :: R.all_centralized)

(* The capability chokepoint, exhaustively: every engine x every
   capability either honors the feature with an observable effect in
   the metrics, or rejects the request with [Invalid_argument] before
   the engine runs.  No third outcome (the old "silently ignored")
   exists. *)
let test_capability_sweep () =
  let module R = Quill_harness.Engine_registry in
  let module Cap = Quill_harness.Capability in
  let module F = Quill_faults.Faults in
  let module C = Quill_clients.Clients in
  let mk = E.make ~threads:4 ~txns:512 ~batch_size:128 in
  List.iter
    (fun engine ->
      let (module M : Quill_harness.Engine_intf.S) = R.resolve engine in
      let name = R.engine_name engine in
      let exp_for cap =
        match cap with
        | Cap.Faults ->
            (* a crash mid-run; centralized engines recover via the WAL,
               so the cross-feature rule adds --wal when available *)
            let wal = Cap.mem Cap.Wal M.caps in
            let probe = E.run (mk ~name engine tiny_ycsb) in
            let plan =
              {
                F.none with
                F.crashes =
                  [
                    {
                      F.node = M.nodes - 1;
                      at = probe.Metrics.elapsed / 2;
                      down = 1;
                    };
                  ];
              }
            in
            mk ~name ~faults:plan ~wal engine tiny_ycsb
        | Cap.Clients ->
            mk ~name
              ~clients:{ C.default with C.arrival = C.Poisson 1e6 }
              engine tiny_ycsb
        | Cap.Dist ->
            mk ~name ~faults:{ F.none with F.drop = 0.2 } engine tiny_ycsb
        | Cap.Wal -> mk ~name ~wal:true engine tiny_ycsb
        | Cap.Cdc -> mk ~name ~cdc:true engine tiny_ycsb
        | Cap.Replication ->
            (* replication wants a single-node leader (a cross-feature
               constraint below the capability check), so exercise the
               capability on the family's 1-node shape *)
            let engine =
              match engine with
              | R.Dist_quecc _ -> R.Dist_quecc 1
              | e -> e
            in
            mk ~name ~replicas:2 engine tiny_ycsb
        | Cap.Pipeline -> mk ~name ~pipeline:true engine tiny_ycsb
        | Cap.Adaptive -> mk ~name ~steal:true engine tiny_ycsb
      in
      let effect_of cap (m : Metrics.t) =
        match cap with
        | Cap.Faults -> m.Metrics.crashes > 0
        | Cap.Clients -> m.Metrics.offered > 0
        | Cap.Dist -> m.Metrics.msg_retries > 0
        | Cap.Wal -> m.Metrics.wal_fsyncs > 0
        | Cap.Cdc -> m.Metrics.cdc_events > 0
        | Cap.Replication -> Metrics.replicated m
        | Cap.Pipeline -> m.Metrics.pipe_fill_threads > 0
        | Cap.Adaptive -> m.Metrics.steal_attempts > 0
      in
      List.iter
        (fun cap ->
          let supported = Cap.mem cap M.caps in
          let what = name ^ " x " ^ Cap.to_string cap in
          match E.run (exp_for cap) with
          | m ->
              Tutil.check_bool (what ^ ": accepted iff supported") true
                supported;
              Tutil.check_bool (what ^ ": honored with effect") true
                (effect_of cap m)
          | exception Invalid_argument msg ->
              Tutil.check_bool
                (what ^ ": rejected iff unsupported (" ^ msg ^ ")")
                false supported;
              (* the rejection must name the engine so the exit-2
                 message is actionable *)
              Tutil.check_bool (what ^ ": rejection names engine") true
                (Tutil.contains msg M.name))
        Cap.all)
    (R.Dist_quecc 2 :: R.Dist_calvin 2 :: R.all_centralized)

let test_dist_suffix_parse () =
  let check_parse s expect =
    match E.engine_of_string s with
    | Some e -> Alcotest.(check string) s expect (E.engine_name e)
    | None -> Alcotest.failf "no parse for %s" s
  in
  check_parse "dist-quecc-4n" "dist-quecc-4n";
  check_parse "dist-quecc-16n" "dist-quecc-16n";
  check_parse "dist-calvin-8n" "dist-calvin-8n";
  List.iter
    (fun s ->
      Tutil.check_bool (s ^ " rejected") true (E.engine_of_string s = None))
    [
      "dist-quecc-0n";
      "dist-quecc--1n";
      "dist-quecc-xn";
      "dist-quecc-4";
      "dist-quecc-n";
      "dist-calvin-";
    ]

let test_all_engines_run_ycsb () =
  List.iter
    (fun engine ->
      let exp =
        E.make ~threads:4 ~txns:512 ~batch_size:128 engine tiny_ycsb
      in
      let m = E.run exp in
      Tutil.check_int
        (E.engine_name engine ^ " completes all txns")
        512
        (m.Metrics.committed + m.Metrics.logic_aborted))
    (E.Serial :: E.Dist_quecc 2 :: E.Dist_calvin 2 :: E.all_centralized)

let test_all_engines_run_tpcc () =
  List.iter
    (fun engine ->
      let exp = E.make ~threads:4 ~txns:256 ~batch_size:64 engine tiny_tpcc in
      let m = E.run exp in
      Tutil.check_bool
        (E.engine_name engine ^ " commits most txns")
        true
        (m.Metrics.committed > 200))
    [
      E.Serial;
      E.Quecc (Qe.Speculative, Qe.Serializable);
      E.Quecc (Qe.Conservative, Qe.Serializable);
      E.Twopl_nowait;
      E.Silo;
      E.Tictoc;
      E.Mvto;
      E.Hstore;
      E.Calvin;
    ]

let test_experiment_determinism () =
  let exp =
    E.make ~threads:4 ~txns:512 ~batch_size:128
      (E.Quecc (Qe.Speculative, Qe.Serializable))
      tiny_ycsb
  in
  let m1 = E.run exp and m2 = E.run exp in
  Tutil.check_int "same commits" m1.Metrics.committed m2.Metrics.committed;
  Tutil.check_int "same virtual time" m1.Metrics.elapsed m2.Metrics.elapsed

(* 500 requested txns round to 4 whole batches of 128 = 512, and every
   engine -- batch-oriented or per-txn -- must process that same count. *)
let test_effective_txns_equal () =
  let engines =
    [ E.Quecc (Qe.Speculative, Qe.Serializable); E.Serial; E.Silo ]
  in
  List.iter
    (fun engine ->
      let exp = E.make ~threads:4 ~txns:500 ~batch_size:128 engine tiny_ycsb in
      Tutil.check_int "batches" 4 (E.batches exp);
      Tutil.check_int "effective" 512 (E.effective_txns exp);
      let m = E.run exp in
      Tutil.check_int
        (E.engine_name engine ^ " records effective count")
        512 m.Metrics.effective_txns;
      Tutil.check_int
        (E.engine_name engine ^ " processes effective count")
        512
        (m.Metrics.committed + m.Metrics.logic_aborted))
    engines;
  (* 64 requested with batch 128 rounds up to one whole batch. *)
  let exp =
    E.make ~threads:4 ~txns:64 ~batch_size:128
      (E.Quecc (Qe.Speculative, Qe.Serializable))
      tiny_ycsb
  in
  Tutil.check_int "small run rounds up" 128 (E.effective_txns exp)

let test_trace_export_and_phases () =
  let exp =
    E.make ~threads:4 ~txns:512 ~batch_size:128
      (E.Quecc (Qe.Speculative, Qe.Serializable))
      tiny_ycsb
  in
  let tracer = Quill_trace.Trace.create () in
  let m = E.run ~tracer exp in
  Tutil.check_bool "trace captured events" true
    (Quill_trace.Trace.num_events tracer > 0);
  (match Tutil.json_error (Quill_trace.Trace.to_chrome_json tracer) with
  | None -> ()
  | Some err -> Alcotest.failf "trace JSON malformed: %s" err);
  (* Phase attribution covers (almost) all of QueCC's busy time. *)
  Tutil.check_bool "phases cover >= 95% of busy" true
    (Metrics.phase_busy m * 100 >= m.Metrics.busy * 95);
  Tutil.check_int "phase + other = busy" m.Metrics.busy
    (Metrics.phase_busy m + m.Metrics.other_busy);
  Tutil.check_int "idle causes partition idle" m.Metrics.idle
    (m.Metrics.idle_barrier + m.Metrics.idle_ivar + m.Metrics.idle_chan
   + m.Metrics.idle_sleep);
  (* Tracing must not perturb the simulation. *)
  let m' = E.run exp in
  Tutil.check_int "same commits with tracing off" m'.Metrics.committed
    m.Metrics.committed;
  Tutil.check_int "same virtual time with tracing off" m'.Metrics.elapsed
    m.Metrics.elapsed

let test_report_rendering () =
  let module R = Quill_harness.Report in
  let m = Metrics.create () in
  m.Metrics.committed <- 1234;
  m.Metrics.elapsed <- 1_000_000_000;
  m.Metrics.threads <- 8;
  m.Metrics.busy <- 6_000_000_000;
  m.Metrics.idle <- 2_000_000_000;
  m.Metrics.crashes <- 1;
  m.Metrics.offered <- 2000;
  m.Metrics.replicas <- 2;
  m.Metrics.failovers <- 1;
  m.Metrics.wal_fsyncs <- 3;
  m.Metrics.recovery_time <- 40_000;
  m.Metrics.cdc_events <- 10;
  Quill_common.Stats.Hist.add m.Metrics.lat 5_000;
  Quill_common.Stats.Hist.add m.Metrics.client_lat 7_000;
  let r = { R.label = "x"; metrics = m } in
  (* Tablefmt.render raises on a row longer than its header and
     misaligns a shorter one, so every group must match exactly. *)
  Tutil.check_int "seven groups" 7 (List.length R.groups);
  List.iter
    (fun g ->
      let cells = R.cells g r in
      Tutil.check_int (R.name g ^ " cell count") (List.length (R.header g))
        (List.length cells);
      Alcotest.(check string) (R.name g ^ " label") "x" (List.hd cells);
      ignore (Quill_common.Tablefmt.render ~header:(R.header g) [ cells ]))
    R.groups;
  let cells = R.cells R.core r in
  Alcotest.(check string) "tput si" "1.23k" (List.nth cells 1);
  (* speedup vs explicit baseline *)
  let cells2 = R.cells ~baseline:617.0 R.core r in
  Alcotest.(check string) "speedup" "2.00x" (List.nth cells2 8)

(* The BENCH writer's layout, and JSON (not OCaml) string escapes: a
   label with a quote, a backslash and a control character must still
   parse. *)
let test_bench_json () =
  let module J = Quill_harness.Bench_json in
  let s =
    J.render ~experiment:"t" ~scale:0.25
      ~head:
        [
          ("overhead_pct", J.Fixed (2, 1.5));
          ("crash", J.Obj [ ("ok", J.Bool true) ]);
        ]
      [
        [ ("label", J.Str "a\"b\\c\001d"); ("tput", J.Fixed (1, 2.0)) ];
        [ ("label", J.Str "plain"); ("theta", J.Num 0.6); ("n", J.Int 3) ];
      ]
  in
  (match Tutil.json_error s with
  | None -> ()
  | Some err -> Alcotest.failf "bench JSON malformed: %s\n%s" err s);
  Alcotest.(check string) "layout"
    {|{
  "experiment": "t",
  "scale": 0.25,
  "overhead_pct": 1.50,
  "crash": {"ok": true},
  "rows": [
    {"label": "a\"b\\c\u0001d", "tput": 2.0},
    {"label": "plain", "theta": 0.6, "n": 3}
  ]
}
|}
    s

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "engine names roundtrip" `Quick
            test_engine_names_roundtrip;
          Alcotest.test_case "registry names resolve" `Quick
            test_registry_names_resolve;
          Alcotest.test_case "capability sweep" `Quick test_capability_sweep;
          Alcotest.test_case "dist suffix parse" `Quick test_dist_suffix_parse;
          Alcotest.test_case "all engines run ycsb" `Quick
            test_all_engines_run_ycsb;
          Alcotest.test_case "all engines run tpcc" `Quick
            test_all_engines_run_tpcc;
          Alcotest.test_case "determinism" `Quick test_experiment_determinism;
          Alcotest.test_case "effective txns equal" `Quick
            test_effective_txns_equal;
          Alcotest.test_case "trace export and phases" `Quick
            test_trace_export_and_phases;
        ] );
      ( "report",
        [
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "bench json" `Quick test_bench_json;
        ] );
    ]
