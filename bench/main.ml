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
    \                [scale] [--trace FILE] [--phase-table]\n\
    \                [--check-conflicts  (QueCC runs: verify planned order)]\n\
    \                [--faults SPEC  (fault-tolerance/failover)]\n\
    \                [--json FILE  (pipeline/skew/failover/durability/cdc: \
     machine-readable results)]\n\
    \                [--arrival RATE] [--admission POLICY[:DEPTH]]\n\
    \                [--deadline TIME] [--retries N[:BACKOFF]]  (overload)\n\
    \                micro reads no flags; a flag the target does not read \
     is an error";
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
  mutable seen : string list;  (* option flags given, checked per target *)
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
      seen = [];
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
      let a = Sys.argv.(i) in
      if String.length a > 0 && a.[0] = '-' then o.seen <- a :: o.seen;
      (match a with
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

(* Every target with the option flags it reads.  The suite-wide flags
   apply to every experiment; a flag the chosen target never reads is a
   usage error, not silently ignored. *)
let targets o ~scale =
  let module X = H.Experiments in
  let suite = [ "--trace"; "--phase-table"; "--check-conflicts" ] in
  let plain name (run : ?scale:float -> unit -> unit) =
    (name, suite, fun () -> run ~scale ())
  in
  let json = o.json in
  [
    plain "table2-row1" X.table2_row1;
    plain "table2-row2" X.table2_row2;
    plain "table2-row3" X.table2_row3;
    plain "fig-contention" X.fig_contention;
    plain "fig-scalability" X.fig_scalability;
    plain "fig-modes" X.fig_modes;
    plain "fig-latency" X.fig_latency;
    plain "fig-batch" X.fig_batch;
    ("pipeline", "--json" :: suite, fun () -> X.pipeline ~scale ?json ());
    ("skew", "--json" :: suite, fun () -> X.skew ~scale ?json ());
    ( "fault-tolerance",
      "--faults" :: suite,
      fun () -> X.fault_tolerance ~scale ?plan:o.faults () );
    ( "failover",
      "--json" :: "--faults" :: suite,
      fun () -> X.failover ~scale ?json ?plan:o.faults () );
    ("durability", "--json" :: suite, fun () -> X.durability ~scale ?json ());
    ("cdc", "--json" :: suite, fun () -> X.cdc ~scale ?json ());
    ( "overload",
      [ "--arrival"; "--admission"; "--deadline"; "--retries" ] @ suite,
      fun () ->
        X.overload ~scale ?arrival:o.arrival ?admission:o.admission
          ?deadline:o.deadline ?retries:o.retries () );
    ("micro", [], run_micro);
    ( "all",
      suite,
      fun () ->
        X.all ~scale ();
        run_micro () );
  ]

(* Fail before the run, not after it: the experiment writes its JSON
   only once every row has finished. *)
let check_writable path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove path
  | exception Sys_error msg -> usage ~hint:("cannot write --json: " ^ msg) ()

let () =
  let o, positional = parse_args () in
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
  let run =
    match List.find_opt (fun (n, _, _) -> n = arg) (targets o ~scale) with
    | None -> usage ~hint:("unknown experiment " ^ arg) ()
    | Some (_, reads, run) ->
        List.iter
          (fun flag ->
            if not (List.mem flag reads) then
              usage ~hint:(Printf.sprintf "%s is not read by %s" flag arg) ())
          (List.rev o.seen);
        run
  in
  Option.iter check_writable o.json;
  if o.trace_file <> None then
    H.Experiments.tracer := Quill_trace.Trace.create ();
  Printf.printf "quill benchmark harness (scale=%.2f)\n%!" scale;
  run ();
  (match o.trace_file with
  | Some path ->
      let tr = !H.Experiments.tracer in
      Quill_trace.Trace.write_file tr path;
      Printf.printf "trace: %d events written to %s\n"
        (Quill_trace.Trace.num_events tr) path
  | None -> ());
  print_endline "\ndone."
