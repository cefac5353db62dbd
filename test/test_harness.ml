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

(* ------------------------------------------------------------------ *)
(* The command line                                                    *)
(* ------------------------------------------------------------------ *)

module Cli = Quill_harness.Cli
module C = Quill_clients.Clients
open Quill_workloads

(* Every bad value is rejected by the one chokepoint with an
   Invalid_argument naming its flag, before the workload is built. *)
let test_range_checks () =
  let q = E.Quecc (Qe.Speculative, Qe.Serializable) in
  let ycsb f = E.Ycsb (f { Ycsb.default with Ycsb.table_size = 1_000 }) in
  let tpcc w = E.Tpcc { Tpcc.default with Tpcc_defs.warehouses = w } in
  let reject flag exp =
    match E.run exp with
    | _ -> Alcotest.failf "%s: bad value ran" flag
    | exception Invalid_argument msg ->
        Tutil.check_bool (flag ^ " named in: " ^ msg) true
          (Tutil.contains msg flag)
  in
  let make ?threads ?batch_size ?split ?replicas ?spec_lag ?snapshot_every
      spec =
    E.make ?threads ?batch_size ?split ?replicas ?spec_lag ?snapshot_every
      ~txns:256 q spec
  in
  let ok = ycsb Fun.id in
  reject "--threads" (make ~threads:0 ok);
  reject "--batch" (make ~batch_size:0 ok);
  reject "--batch" (make ~batch_size:(-5) ok);
  reject "--split" (make ~split:0 ok);
  reject "--replicas" (make ~replicas:(-1) ok);
  reject "--spec-lag" (make ~spec_lag:0 ok);
  reject "--snapshot-every" (make ~snapshot_every:0 ok);
  reject "--table-size" (make (ycsb (fun c -> { c with Ycsb.table_size = 5 })));
  reject "--table-size"
    (make (ycsb (fun c -> { c with Ycsb.table_size = 81; nparts = 8 })));
  List.iter
    (fun theta ->
      reject "--theta" (make (ycsb (fun c -> { c with Ycsb.theta }))))
    [ 1.0; -0.1; Float.nan ];
  List.iter
    (fun p ->
      reject "--mp" (make (ycsb (fun c -> { c with Ycsb.mp_ratio = p })));
      reject "--abort-ratio"
        (make (ycsb (fun c -> { c with Ycsb.abort_ratio = p }))))
    [ 2.0; -0.5 ];
  reject "--warehouses" (make (tpcc 0));
  (* the bounds themselves are legal *)
  List.iter
    (fun spec -> ignore (E.run (make ~threads:1 ~batch_size:1 spec)))
    [
      ycsb (fun c ->
          {
            c with
            Ycsb.table_size = c.Ycsb.ops_per_txn;
            nparts = 1;
            mp_ratio = 1.0;
            abort_ratio = 1.0;
          });
      E.Tpcc (Tpcc.payment_mix { Tpcc.default with Tpcc_defs.warehouses = 1 });
    ]

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) ignore

let eval cmd argv =
  Cmdliner.Cmd.eval_value ~catch:false ~help:null_fmt ~err:null_fmt
    ~argv:(Array.of_list argv) cmd

(* quill_cli's run command: the experiment plus the observability flags. *)
let run_cmd =
  Cmdliner.(
    Cmd.v (Cmd.info "run")
      Term.(
        const (fun e _ _ _ -> e)
        $ Cli.experiment $ Cli.trace $ Cli.phase_table $ Cli.check_conflicts))

let parse_run args =
  match eval run_cmd ("quill_cli" :: args) with
  | Ok (`Ok e) -> Some e
  | Ok (`Help | `Version) | Error _ -> None

let bench = Cli.bench ~micro:ignore

let bench_accepts args =
  match eval bench ("main.exe" :: args) with
  | Ok (`Ok _) -> true
  | Ok (`Help | `Version) | Error _ -> false

(* A quill_cli line exits 2 when it is a command-line error or its
   experiment is rejected with Invalid_argument. *)
let run_rejected args =
  match parse_run args with
  | None -> true
  | Some exp -> (
      match E.run exp with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* The exit-2 steps of `make check`, every rejection of an extension
   flag (pipeline, adaptive, replication, WAL, CDC, client) on an engine
   or configuration that cannot honor it, and the repros of values that
   used to die on an assertion, a division by zero or a late Sys_error,
   or ran silently. *)
let test_cli_rejections () =
  let gone f = Tutil.check_bool (f ^ " not written") false (Sys.file_exists f) in
  List.iter gone [ "x.json"; "y.json" ];
  List.iter
    (fun args ->
      Tutil.check_bool (String.concat " " args ^ " rejected") false
        (bench_accepts args))
    [
      [ "durability"; "0.01"; "--faults"; "drop=0.5"; "--json"; "x.json" ];
      [ "fig-latency"; "0.01"; "--json"; "y.json"; "--arrival"; "1000" ];
      [ "pipeline"; "0.01"; "--json"; "no-such-dir/z.json" ];
      [ "fig-batch"; "0.01"; "--trace"; "/nonexistent/t.json" ];
      [ "pipeline"; "inf"; "--json"; "x.json" ];
      [ "pipeline"; "nan" ];
      [ "pipeline"; "0" ];
      [ "fig-batch"; "0.01"; "--phase-table"; "extra" ];
      [ "fig-batch"; "0.01"; "--phase-table"; "--phase-table" ];
      [ "0.25" ];
    ];
  List.iter gone [ "x.json"; "y.json" ];
  List.iter
    (fun args ->
      Tutil.check_bool (String.concat " " args ^ " rejected") true
        (run_rejected args))
    [
      [ "--engine"; "silo"; "--workload"; "ycsb"; "--pipeline" ];
      [ "-e"; "dist-quecc-4n"; "--pipeline"; "--arrival"; "2000000" ];
      [ "-e"; "dist-calvin-4n"; "--pipeline"; "--arrival"; "2000000" ];
      [ "--engine"; "quecc"; "--workload"; "ycsb"; "--split"; "bogus" ];
      [ "--engine"; "quecc"; "--workload"; "ycsb"; "--adapt"; "wat" ];
      [ "--engine"; "silo"; "--workload"; "ycsb"; "--split"; "32" ];
      [ "--engine"; "quecc"; "--workload"; "ycsb"; "--adapt"; "batch" ];
      [ "--engine"; "dist-quecc-1n"; "--replicas"; "2"; "--spec-lag"; "0" ];
      [ "--engine"; "silo"; "--replicas"; "2" ];
      [ "--engine"; "silo"; "--wal" ];
      [ "--engine"; "quecc"; "--wal"; "--snapshot-every"; "0" ];
      [ "--engine"; "quecc"; "--txns"; "2048"; "--faults"; "crash@t=1ms" ];
      [ "--engine"; "quecc"; "--wal"; "--faults"; "torn@rec=1,torn@rec=2" ];
      [ "--engine"; "silo"; "--cdc" ];
      [ "--engine"; "hstore"; "--views" ];
      [ "--engine"; "quecc"; "--cdc"; "--wal"; "--faults"; "crash@t=1ms" ];
      [ "--engine"; "calvin"; "--txns"; "2048"; "--arrival"; "200000";
        "--admission"; "deadline:64"; "--deadline"; "inf" ];
      [ "--batch"; "0" ];
      [ "--batch=-5" ];
      [ "--threads"; "0" ];
      [ "--table-size"; "5" ];
      [ "--engine"; "quecc"; "--workload"; "ycsb"; "--table-size"; "20";
        "--threads"; "8" ];
      [ "--engine"; "quecc"; "--workload"; "ycsb"; "--table-size"; "81";
        "--threads"; "8" ];
      (* one partition of 20 rows for quecc, but four for dist-quecc *)
      [ "--engine"; "dist-quecc-4n"; "--table-size"; "20"; "--threads"; "1" ];
      [ "-w"; "tpcc"; "--warehouses"; "0" ];
      [ "--theta"; "1.0" ];
      [ "--mp"; "2" ];
      [ "--abort-ratio"; "5" ];
      [ "--txns"; "512"; "--trace"; "/nonexistent/t.json" ];
      [ "--engine"; "dist-quecc-<n>n" ];
      [ "--seed"; "1"; "--seed"; "2" ];
      [ "stray" ];
    ]

(* Every bench target x every flag: accepted exactly when the target
   reads the flag. *)
let test_bench_read_sets () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "quill-cli.json" in
  let flags =
    [
      ("--trace", [ "--trace"; path ]);
      ("--phase-table", [ "--phase-table" ]);
      ("--check-conflicts", [ "--check-conflicts" ]);
      ("--json", [ "--json"; path ]);
      ("--faults", [ "--faults"; "drop=0.5" ]);
      ("--arrival", [ "--arrival"; "1000" ]);
      ("--admission", [ "--admission"; "shed:64" ]);
      ("--deadline", [ "--deadline"; "5ms" ]);
      ("--retries", [ "--retries"; "2:5us" ]);
    ]
  in
  let suite = [ "--trace"; "--phase-table"; "--check-conflicts" ] in
  let json = "--json" :: suite in
  let reads =
    [
      ("table2-row1", suite);
      ("table2-row2", suite);
      ("table2-row3", suite);
      ("fig-contention", suite);
      ("fig-scalability", suite);
      ("fig-modes", suite);
      ("fig-latency", suite);
      ("fig-batch", suite);
      ("pipeline", json);
      ("skew", json);
      ("fault-tolerance", "--faults" :: suite);
      ("failover", "--faults" :: json);
      ("durability", json);
      ("cdc", json);
      ("overload", [ "--arrival"; "--admission"; "--deadline"; "--retries" ] @ suite);
      ("micro", []);
      ("all", suite);
    ]
  in
  List.iter
    (fun (target, read) ->
      Tutil.check_bool (target ^ " alone") true (bench_accepts [ target ]);
      Tutil.check_bool (target ^ " with a scale") true
        (bench_accepts [ target; "0.25" ]);
      List.iter
        (fun (flag, args) ->
          Tutil.check_bool
            (Printf.sprintf "%s %s accepted iff read" target flag)
            (List.mem flag read)
            (bench_accepts ((target :: "0.25" :: args))))
        flags)
    reads;
  (* no target: everything at scale 0.5, reading the suite flags *)
  Tutil.check_bool "no target" true (bench_accepts []);
  List.iter
    (fun (flag, args) ->
      Tutil.check_bool ("no target, " ^ flag) (List.mem flag suite)
        (bench_accepts args))
    flags;
  Tutil.check_bool "temp path left alone" false (Sys.file_exists path)

(* The command lines of the Makefile, bench/dune's runtest rule,
   scripts/bench_diff.sh and the README parse to what they meant before
   the grammar moved. *)
let test_documented_lines () =
  let q = E.Quecc (Qe.Speculative, Qe.Serializable) in
  let ycsb ?(threads = 8) ?(theta = 0.0) ?(global_zipf = false) () =
    E.Ycsb
      {
        Ycsb.default with
        Ycsb.table_size = 100_000;
        nparts = threads;
        theta;
        abort_threshold = 128;
        global_zipf;
        seed = 42;
      }
  in
  let fault s = match Quill_faults.Faults.parse s with Ok f -> f | Error m -> failwith m in
  let smoke = Filename.concat (Filename.get_temp_dir_name ()) "quill-smoke.json" in
  List.iter
    (fun (line, expect) ->
      match parse_run (String.split_on_char ' ' line) with
      | None -> Alcotest.failf "%s: does not parse" line
      | Some e -> Tutil.check_bool line true (e = expect))
    [
      ( "--engine quecc --workload ycsb --txns 2048 --batch 512 --trace "
        ^ smoke ^ " --phase-table --pipeline --steal --check-conflicts",
        E.make ~txns:2048 ~batch_size:512 ~pipeline:true ~steal:true q
          (ycsb ()) );
      ( "--engine calvin --txns 2048 --arrival 200000 --admission deadline:64 \
         --deadline 20us --retries 2",
        E.make ~txns:2048
          ~clients:
            {
              C.default with
              C.seed = 42;
              arrival = C.Poisson 200_000.;
              policy = C.Deadline;
              depth = 64;
              deadline = 20_000;
              max_retries = 2;
            }
          E.Calvin (ycsb ()) );
      ("--engine quecc --workload ycsb --theta 0.9", E.make q (ycsb ~theta:0.9 ()));
      ( "--engine tictoc --workload tpcc --warehouses 1",
        E.make E.Tictoc
          (E.Tpcc
             (Tpcc.payment_mix
                { Tpcc.default with Tpcc_defs.warehouses = 1; nparts = 8; seed = 42 }))
      );
      ( "--engine quecc --workload ycsb --theta 0.9 --global-zipf --split 32 \
         --adapt repart --phase-table",
        E.make ~split:32 ~adapt_repart:true q
          (ycsb ~theta:0.9 ~global_zipf:true ()) );
      ( "--engine dist-quecc-1n --threads 4 --replicas 2 --spec-lag 2 --faults \
         crash@t=2ms:node=0",
        E.make ~threads:4 ~replicas:2 ~spec_lag:2
          ~faults:(fault "crash@t=2ms:node=0") (E.Dist_quecc 1)
          (ycsb ~threads:4 ()) );
      ( "--engine quecc --wal --snapshot-every 4 --faults crash@t=2ms",
        E.make ~wal:true ~snapshot_every:4 ~faults:(fault "crash@t=2ms") q
          (ycsb ()) );
      ( "--engine quecc --cdc --views --phase-table",
        E.make ~cdc:true ~views:true q (ycsb ()) );
      ( "-e dist-quecc",
        E.make ~name:"dist-quecc" (E.Dist_quecc 4) (ycsb ()) );
    ];
  let json t = Filename.concat (Filename.get_temp_dir_name ()) (t ^ ".json") in
  List.iter
    (fun args ->
      Tutil.check_bool (String.concat " " args) true (bench_accepts args))
    ([
       [];
       [ "table2-row3"; "0.5" ];
       [ "skew"; "0.5" ];
       [ "failover"; "0.5"; "--json"; json "failover" ];
       [ "durability"; "0.5"; "--json"; json "durability" ];
       [ "cdc"; "0.5"; "--json"; json "cdc" ];
       [ "all"; "0.5" ];
       [ "pipeline"; "0.25"; "--check-conflicts" ];
       [ "fault-tolerance"; "0.25"; "--check-conflicts" ];
       [ "skew"; "0.25" ];
       [ "failover"; "0.25" ];
       [ "durability"; "0.25" ];
       [ "overload"; "0.25" ];
       [ "cdc"; "0.25" ];
       [ "fig-latency"; "0.125" ];
     ]
    @ List.map
        (fun t -> [ t; "1"; "--json"; json t ])
        [ "durability"; "cdc"; "pipeline"; "skew"; "failover" ]
    @ List.map
        (fun t ->
          [ t; "0.25"; "--phase-table" ]
          @
          if List.mem t [ "pipeline"; "skew"; "failover"; "durability"; "cdc" ]
          then [ "--json"; json t ]
          else [])
        [
          "table2-row1"; "table2-row2"; "table2-row3"; "fig-contention";
          "fig-scalability"; "fig-modes"; "fig-latency"; "fig-batch";
          "pipeline"; "skew"; "fault-tolerance"; "failover"; "durability";
          "cdc"; "overload";
        ])

(* The claim checker passes when every claim holds and otherwise raises
   with exactly the false claims' lines, in order. *)
let test_claims () =
  let module X = Quill_harness.Experiments in
  X.check [];
  X.check [ (true, "a"); (true, "b") ];
  match X.check [ (false, "a"); (true, "b"); (false, "c"); (true, "d") ] with
  | () -> Alcotest.fail "false claims passed"
  | exception X.Claim_failed lines ->
      Alcotest.(check (list string)) "false claims" [ "a"; "c" ] lines

(* Random valid flag sets: parse, print back with [to_argv], parse again
   and get the same experiment. *)
let qcheck_to_argv =
  let open QCheck.Gen in
  let maybe g = map (function Some x -> x | None -> []) (opt g) in
  let valued name g = map (fun v -> [ name ^ "=" ^ v ]) g in
  let num = map string_of_int in
  let real lo hi = map (Printf.sprintf "%.17g") (float_range lo hi) in
  let time = map2 (Printf.sprintf "%d%s") (int_range 1 5000) (oneofl [ "ns"; "us"; "ms" ]) in
  let flag name = map (fun b -> if b then [ name ] else []) bool in
  let gen =
    map List.concat
      (flatten_l
         [
           valued "--engine"
             (oneofl
                ("dist-quecc-1n" :: "dist-calvin-3n"
                :: List.filter
                     (fun n -> not (String.contains n '<'))
                     (Quill_harness.Engine_registry.names ())));
           maybe (valued "--workload" (oneofl [ "ycsb"; "tpcc"; "tpcc-full" ]));
           maybe (valued "--threads" (num (int_range 1 16)));
           maybe (valued "--txns" (num (int_range 1 50_000)));
           maybe (valued "--batch" (num (int_range 1 4096)));
           maybe (valued "--theta" (real 0.0 0.99));
           maybe (valued "--mp" (real 0.0 1.0));
           maybe (valued "--abort-ratio" (real 0.0 1.0));
           maybe (valued "--warehouses" (num (int_range 1 8)));
           maybe (valued "--table-size" (num (int_range 10 200_000)));
           maybe (valued "--seed" (num (int_range 0 1000)));
           maybe
             (valued "--faults"
                (oneofl
                   [
                     "drop=0.01";
                     "crash@t=5ms:node=1,drop=0.01,seed=7";
                     "torn@rec=3";
                     "part@t=1ms:a=0:b=1:until=2ms,dup=0.2,seed=3";
                     "delay=0.1:by=5us,retries=4,rto=3us";
                   ]));
           maybe
             (valued "--arrival"
                (oneof
                   [
                     real 1.0 1e7;
                     map3 (Printf.sprintf "burst:%s:%s:%s") (real 1.0 1e7) time
                       time;
                   ]));
           maybe
             (valued "--admission"
                (map2 ( ^ )
                   (oneofl [ "block"; "shed"; "shed-oldest"; "shed-newest"; "deadline" ])
                   (oneof [ return ""; map (Printf.sprintf ":%d") (int_range 1 4096) ])));
           maybe (valued "--deadline" time);
           maybe
             (valued "--retries"
                (map2 ( ^ ) (num (int_range 0 9))
                   (oneof [ return ""; map (fun t -> ":" ^ t) time ])));
           flag "--pipeline";
           flag "--steal";
           maybe (valued "--split" (num (int_range 1 256)));
           maybe (valued "--adapt" (oneofl [ "repart"; "batch"; "all" ]));
           maybe (valued "--replicas" (num (int_range 0 4)));
           maybe (valued "--spec-lag" (num (int_range 1 8)));
           flag "--wal";
           maybe (valued "--snapshot-every" (num (int_range 1 64)));
           flag "--cdc";
           flag "--views";
           flag "--global-zipf";
         ])
  in
  QCheck.Test.make ~count:300 ~name:"to_argv parses back to the same experiment"
    (QCheck.make gen ~print:(String.concat " "))
    (fun args ->
      match parse_run args with
      | None -> QCheck.Test.fail_reportf "does not parse"
      | Some e -> (
          let argv = Cli.to_argv e in
          match parse_run argv with
          | Some e' when e' = e -> true
          | Some _ -> QCheck.Test.fail_reportf "differs: %s" (String.concat " " argv)
          | None -> QCheck.Test.fail_reportf "no parse: %s" (String.concat " " argv)))

let test_to_argv_rejects () =
  let q = E.Quecc (Qe.Speculative, Qe.Serializable) in
  let rejected what exp =
    match Cli.to_argv exp with
    | _ -> Alcotest.failf "%s: printed a command line" what
    | exception Invalid_argument _ -> ()
  in
  let costs = Quill_sim.Costs.default in
  rejected "costs"
    (E.make ~costs:{ costs with Quill_sim.Costs.wakeup = costs.wakeup + 1 } q
       tiny_ycsb);
  rejected "label" (E.make ~name:"my label" q tiny_ycsb);
  rejected "workload" (E.make q tiny_ycsb);
  Tutil.check_bool "the CLI's own default prints" true
    (parse_run [] |> Option.map Cli.to_argv <> None)

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
          Alcotest.test_case "claims" `Quick test_claims;
        ] );
      ( "cli",
        [
          Alcotest.test_case "range checks" `Quick test_range_checks;
          Alcotest.test_case "rejections" `Quick test_cli_rejections;
          Alcotest.test_case "bench read sets" `Quick test_bench_read_sets;
          Alcotest.test_case "documented lines" `Quick test_documented_lines;
          Alcotest.test_case "to_argv rejects" `Quick test_to_argv_rejects;
          QCheck_alcotest.to_alcotest qcheck_to_argv;
        ] );
      ( "report",
        [
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "bench json" `Quick test_bench_json;
        ] );
    ]
