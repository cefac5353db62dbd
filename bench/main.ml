(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) plus bechamel
   micro-benchmarks of the engine's hot paths.  The targets and their
   flags are Quill_harness.Cli.bench; options follow the target name.

   Usage:
     bench/main.exe                 -- everything at the default scale
     bench/main.exe table2-row1     -- one experiment
     bench/main.exe micro           -- microbenchmarks only
     bench/main.exe all 0.25        -- everything at quarter scale
     bench/main.exe --help          -- the targets; TARGET --help: its flags *)

open Quill_common
open Quill_workloads
module H = Quill_harness

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: real-time cost of the hot paths.         *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let zipf = Zipf.create ~theta:0.99 1_000_000 in
  let rng = Rng.create 11 in
  let bench_zipf =
    Test.make ~name:"zipf-sample-0.99"
      (Staged.stage (fun () -> ignore (Zipf.sample_scrambled zipf rng)))
  in
  (* The scheduler's context switch: 16 runnable fibers, each tick
     yields to the next one due. *)
  let bench_sim_switch =
    Test.make ~name:"sim-16-fiber-tick"
      (Staged.stage (fun () ->
           let sim = Quill_sim.Sim.create () in
           for _ = 1 to 16 do
             Quill_sim.Sim.spawn sim (fun () ->
                 for _ = 1 to 64 do
                   Quill_sim.Sim.tick sim 10
                 done)
           done;
           ignore (Quill_sim.Sim.run sim)))
  in
  let ycsb =
    Ycsb.make { Ycsb.default with Ycsb.table_size = 10_000; nparts = 4 }
  in
  let stream = ycsb.Quill_txn.Workload.new_stream 0 in
  let bench_gen_ycsb =
    Test.make ~name:"ycsb-gen-txn" (Staged.stage (fun () -> ignore (stream ())))
  in
  let tpcc =
    Tpcc.make
      { Tpcc.default with Tpcc_defs.warehouses = 1; nparts = 4; items = 10_000 }
  in
  let tstream = tpcc.Quill_txn.Workload.new_stream 0 in
  let bench_gen_tpcc =
    Test.make ~name:"tpcc-gen-txn" (Staged.stage (fun () -> ignore (tstream ())))
  in
  let bench_sim_tick =
    Test.make ~name:"sim-1k-thread-barrier"
      (Staged.stage (fun () ->
           let sim = Quill_sim.Sim.create () in
           let b = Quill_sim.Sim.Barrier.create 8 in
           for _ = 1 to 8 do
             Quill_sim.Sim.spawn sim (fun () ->
                 for _ = 1 to 16 do
                   Quill_sim.Sim.tick sim 10;
                   Quill_sim.Sim.Barrier.await sim b
                 done)
           done;
           ignore (Quill_sim.Sim.run sim)))
  in
  let bench_quecc_batch =
    let wl = Ycsb.make { Ycsb.default with Ycsb.table_size = 20_000; nparts = 4 } in
    Test.make ~name:"quecc-256txn-batch"
      (Staged.stage (fun () ->
           ignore
             (Quill_quecc.Engine.run
                {
                  Quill_quecc.Engine.default_cfg with
                  Quill_quecc.Engine.planners = 4;
                  executors = 4;
                  batch_size = 256;
                }
                wl ~batches:1)))
  in
  Test.make_grouped ~name:"quill"
    [
      bench_zipf;
      bench_sim_switch;
      bench_gen_ycsb;
      bench_gen_tpcc;
      bench_sim_tick;
      bench_quecc_batch;
    ]

let run_micro () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  print_endline "\n== Microbenchmarks (real time per run) ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                                      ~predictors:[| Measure.run |]) i raw)
      instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false
                                 ~predictors:[| Measure.run |]) instances results in
  (* lint: order-insensitive — rows are List.sort-ed before printing *)
  Hashtbl.iter
    (fun measure tbl ->
      ignore measure;
      let rows =
        (* lint: order-insensitive — same: accumulated rows sorted below *)
        Hashtbl.fold
          (fun name ols acc ->
            let est =
              match Analyze.OLS.estimates ols with
              | Some [ e ] -> Printf.sprintf "%.1f ns" e
              | _ -> "-"
            in
            [ name; est ] :: acc)
          tbl []
      in
      Tablefmt.print ~header:[ "benchmark"; "time/run" ]
        (List.sort compare rows))
    results

let () = H.Cli.eval (H.Cli.bench ~micro:run_micro)
