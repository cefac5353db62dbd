(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) plus bechamel
   micro-benchmarks of the engine's hot paths.

   Usage:
     bench/main.exe                 -- everything at the default scale
     bench/main.exe table2-row1     -- one experiment
     bench/main.exe micro           -- microbenchmarks only
     bench/main.exe all 0.25        -- everything at quarter scale *)

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

(* ------------------------------------------------------------------ *)

let usage ?hint () =
  (match hint with
  | Some h -> Printf.eprintf "main.exe: %s\n" h
  | None -> ());
  prerr_endline
    "usage: main.exe [table2-row1|table2-row2|table2-row3|fig-contention|\n\
    \                 fig-scalability|fig-modes|fig-latency|fig-batch|\n\
    \                 pipeline|skew|fault-tolerance|failover|durability|\n\
    \                 cdc|overload|micro|all]\n\
    \                [scale] [--trace FILE] [--phase-table] [--faults SPEC]\n\
    \                [--arrival RATE] [--admission POLICY[:DEPTH]]\n\
    \                [--deadline TIME] [--retries N[:BACKOFF]]\n\
    \                [--json FILE  (pipeline/skew/failover/durability/cdc: \
     machine-readable results)]\n\
    \                [--check-conflicts  (QueCC runs: verify planned order)]";
  exit 2

(* Pull the option flags out of argv; what remains is positional. *)
type opts = {
  mutable trace_file : string option;
  mutable faults : Quill_faults.Faults.spec option;
  mutable arrival : Quill_clients.Clients.arrival option;
  mutable admission : (Quill_clients.Clients.policy * int) option;
  mutable deadline : int option;
  mutable retries : (int * int) option;
  mutable json : string option;
}

let parse_args () =
  let o =
    {
      trace_file = None;
      faults = None;
      arrival = None;
      admission = None;
      deadline = None;
      retries = None;
      json = None;
    }
  in
  let positional = ref [] in
  let takes_value = function
    | "--trace" | "--faults" | "--arrival" | "--admission" | "--deadline"
    | "--retries" | "--json" ->
        true
    | _ -> false
  in
  let value flag i =
    if i + 1 >= Array.length Sys.argv then
      usage ~hint:(flag ^ " needs an argument") ();
    Sys.argv.(i + 1)
  in
  let parsed flag parse s =
    match parse s with
    | Ok v -> v
    | Error msg -> usage ~hint:(Printf.sprintf "bad %s: %s" flag msg) ()
  in
  let rec go i =
    if i < Array.length Sys.argv then begin
      (match Sys.argv.(i) with
      | "--trace" -> o.trace_file <- Some (value "--trace" i)
      | "--faults" ->
          o.faults <-
            Some (parsed "--faults" Quill_faults.Faults.parse (value "--faults" i))
      | "--arrival" ->
          o.arrival <-
            Some
              (parsed "--arrival" Quill_clients.Clients.parse_arrival
                 (value "--arrival" i))
      | "--admission" ->
          o.admission <-
            Some
              (parsed "--admission" Quill_clients.Clients.parse_admission
                 (value "--admission" i))
      | "--deadline" -> (
          let s = value "--deadline" i in
          match Quill_clients.Clients.parse_time s with
          | d -> o.deadline <- Some d
          | exception _ ->
              usage ~hint:("bad --deadline " ^ s ^ " (want NUM[ns|us|ms|s])") ())
      | "--retries" ->
          o.retries <-
            Some
              (parsed "--retries" Quill_clients.Clients.parse_retries
                 (value "--retries" i))
      | "--json" -> o.json <- Some (value "--json" i)
      | "--check-conflicts" -> H.Experiments.check_conflicts := true
      | "--phase-table" -> H.Report.phase_tables := true
      | a when String.length a > 0 && a.[0] = '-' ->
          usage ~hint:("unknown option " ^ a) ()
      | a -> positional := a :: !positional);
      go (i + if takes_value Sys.argv.(i) then 2 else 1)
    end
  in
  go 1;
  (o, List.rev !positional)

let () =
  let o, positional = parse_args () in
  let trace_file = o.trace_file and faults = o.faults in
  let arg = match positional with a :: _ -> a | [] -> "all" in
  let scale =
    match positional with
    | _ :: s :: _ -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> f
        | Some _ | None ->
            usage ~hint:("scale must be a positive number, got " ^ s) ())
    | _ -> 0.5
  in
  (match trace_file with
  | Some _ -> H.Experiments.tracer := Quill_trace.Trace.create ()
  | None -> ());
  Printf.printf "quill benchmark harness (scale=%.2f)\n%!" scale;
  (match arg with
  | "table2-row1" -> H.Experiments.table2_row1 ~scale ()
  | "table2-row2" -> H.Experiments.table2_row2 ~scale ()
  | "table2-row3" -> H.Experiments.table2_row3 ~scale ()
  | "fig-contention" -> H.Experiments.fig_contention ~scale ()
  | "fig-scalability" -> H.Experiments.fig_scalability ~scale ()
  | "fig-modes" -> H.Experiments.fig_modes ~scale ()
  | "fig-latency" -> H.Experiments.fig_latency ~scale ()
  | "fig-batch" -> H.Experiments.fig_batch ~scale ()
  | "pipeline" -> H.Experiments.pipeline ~scale ?json:o.json ()
  | "skew" -> H.Experiments.skew ~scale ?json:o.json ()
  | "fault-tolerance" -> H.Experiments.fault_tolerance ~scale ?plan:faults ()
  | "failover" ->
      H.Experiments.failover ~scale ?json:o.json ?plan:faults ()
  | "durability" -> H.Experiments.durability ~scale ?json:o.json ()
  | "cdc" -> H.Experiments.cdc ~scale ?json:o.json ()
  | "overload" ->
      H.Experiments.overload ~scale ?arrival:o.arrival ?admission:o.admission
        ?deadline:o.deadline ?retries:o.retries ()
  | "micro" -> run_micro ()
  | "all" ->
      H.Experiments.all ~scale ();
      run_micro ()
  | a -> usage ~hint:("unknown experiment " ^ a) ());
  (match trace_file with
  | Some path ->
      let tr = !H.Experiments.tracer in
      Quill_trace.Trace.write_file tr path;
      Printf.printf "trace: %d events written to %s\n"
        (Quill_trace.Trace.num_events tr) path
  | None -> ());
  print_endline "\ndone."
