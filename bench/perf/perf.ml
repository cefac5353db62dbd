(* The repo's benchmark: four named workloads, end-to-end virtual and
   wall-clock metrics, per-layer attribution and a traced run.  See
   README.md for the metric catalogue and the run protocol.

     perf.exe run --workload NAME [--seed N] [--json FILE]
                  [--trace FILE]
     perf.exe bench --workload NAME --seed N --seconds S --trace 0|1
     perf.exe pass --seed N --json FILE
     perf.exe compare BASE NEW [--bench BENCHMARK.json]
     perf.exe baseline --out FILE NAME=SETFILE ...
     perf.exe smoke [--bench BENCHMARK.json]

   Every timed run goes through [Experiment.run]; layers are measured
   only from outside, through their public functions and the
   [Metrics.t] a run returns. *)

open Quill_txn
module E = Quill_harness.Experiment
module Db = Quill_storage.Db
module Hist = Quill_common.Stats.Hist
module Trace = Quill_trace.Trace
module C = Quill_clients.Clients

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

type dir = Lower | Higher

let dir_name = function Lower -> "lower" | Higher -> "higher"

(* End-to-end metrics.  [det] metrics are virtual time: a pure function
   of the seed. *)
type spec = { name : string; unit : string; dir : dir; det : bool }

let e2e_specs =
  [
    { name = "vtput_mtps"; unit = "Mtxn/vs"; dir = Higher; det = true };
    { name = "vlat_mean_us"; unit = "vus"; dir = Lower; det = true };
    { name = "wall_ktps"; unit = "ktxn/s"; dir = Higher; det = false };
    { name = "setup_s"; unit = "s"; dir = Lower; det = false };
    { name = "peak_heap_mb"; unit = "MB"; dir = Lower; det = false };
  ]

(* ------------------------------------------------------------------ *)
(* One timed rep                                                       *)
(* ------------------------------------------------------------------ *)

type rep = {
  t0 : int;  (** wall ns: [Experiment.run] called *)
  t1 : int;  (** wall ns: [on_workload], workload built and loaded *)
  t2 : int;  (** wall ns: [Experiment.run] returned *)
  m : Metrics.t;
  checksum : int;
  minor_words : float;  (** GC deltas over the run region *)
  promoted_words : float;
  major_collections : int;
}

let setup_s r = Wall.secs (r.t1 - r.t0)
let run_s r = Wall.secs (r.t2 - r.t1)

(* Compacting first gives every rep the same starting heap. *)
let timed_rep ?tracer exp =
  Gc.compact ();
  let wl = ref None and g0 = ref (Gc.quick_stat ()) in
  let t0 = Wall.now () in
  let t1 = ref t0 in
  let m =
    E.run ?tracer
      ~on_workload:(fun w ->
        wl := Some w;
        g0 := Gc.quick_stat ();
        t1 := Wall.now ())
      exp
  in
  let t2 = Wall.now () in
  let g1 = Gc.quick_stat () in
  let wl = Option.get !wl in
  ( {
      t0;
      t1 = !t1;
      t2;
      m;
      checksum = Db.checksum wl.Workload.db;
      minor_words = g1.Gc.minor_words -. !g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. !g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - !g0.Gc.major_collections;
    },
    wl )

(* Everything virtual a run produces; equal lists mean bit-identical
   runs. *)
let signature (m : Metrics.t) checksum =
  let h x =
    [ Hist.count x; Hist.percentile x 50.; Hist.percentile x 99.9; Hist.max_value x ]
  in
  [
    checksum; m.committed; m.logic_aborted; m.cc_aborts; m.cascades; m.elapsed; m.busy;
    m.idle; m.batches; m.plan_busy; m.exec_busy; m.recover_busy; m.publish_busy;
    m.pipe_fill_stall; m.pipe_drain_stall; m.wal_bytes; m.wal_fsyncs; m.snapshots;
    m.cdc_events; m.cdc_bytes; m.cdc_lag_max; m.offered; m.shed; m.deadline_miss;
    m.retry_exhausted; m.qmax;
  ]
  @ h m.lat @ h m.client_lat

(* Transactions offered but neither committed nor logic-aborted: shed,
   deadline-missed, retry-exhausted, or lost. *)
let offered (m : Metrics.t) = if m.offered > 0 then m.offered else m.effective_txns
let failed (m : Metrics.t) = offered m - m.committed - m.logic_aborted

let conserved (m : Metrics.t) =
  offered m = m.effective_txns
  && failed m = m.shed + m.deadline_miss + m.retry_exhausted

(* Rank [ceil (p * n)] of a sorted sample, the rank [Hist.percentile]
   uses, so the two can be compared exactly. *)
let pct (a : int array) p =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 1 (min n (int_of_float (ceil (p /. 100. *. float_of_int n)))) - 1)

let hist_agrees h (a : int array) =
  Hist.count h = Array.length a
  && List.for_all
       (fun p ->
         Hist.percentile h p
         = min (Hist.upper_edge (Hist.index_of (pct a p))) (Hist.max_value h))
       [ 50.; 99.; 99.9 ]

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type value = {
  spec : spec;
  v : float;
      (** virtual: pooled over one rep per sub-seed; wall: median over
          the warm reps *)
  runs : float list;  (** the per-rep values behind [v] *)
}

type result = {
  workload : string;
  seed : int;
  div : int;
  checksum : int;
  checks : (string * bool) list;
  attempted : int;
  fails : int;
  e2e : value list;
  layers : (string * string * dir * float) list;
}

let correct r = List.for_all snd r.checks

(* Python's [statistics.quantiles(xs, n=4)] (exclusive method), so the
   quartiles printed here match the ones computed from the JSON. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let result_to_json r =
  let open Json in
  let num f = Num f in
  Obj
    [
      ("workload", Str r.workload);
      ("seed", num (float_of_int r.seed));
      ("div", num (float_of_int r.div));
      ("checksum", Str (string_of_int r.checksum));
      ("correct", Bool (correct r));
      ("checks", Obj (List.map (fun (n, ok) -> (n, Bool ok)) r.checks));
      ("attempted", num (float_of_int r.attempted));
      ("failed", num (float_of_int r.fails));
      ( "end_to_end",
        Obj
          (List.map
             (fun x ->
               let q1, q3 = quartiles x.runs in
               ( x.spec.name,
                 Obj
                   [
                     ("value", num x.v);
                     ("unit", Str x.spec.unit);
                     ("runs", Arr (List.map num x.runs));
                     ("q1", num q1);
                     ("q3", num q3);
                   ] ))
             r.e2e) );
      ( "per_layer",
        Obj
          (List.map
             (fun (n, u, _, v) -> (n, Obj [ ("value", num v); ("unit", Str u) ]))
             r.layers) );
    ]

let print_result r =
  List.iter
    (fun (n, ok) -> Printf.printf "check %-36s %s\n" n (if ok then "ok" else "FAILED"))
    r.checks;
  List.iter
    (fun x ->
      let q1, q3 = quartiles x.runs in
      Printf.printf "%s %s %.6g %s runs=%s q1=%.6g q3=%.6g\n" r.workload x.spec.name x.v
        x.spec.unit
        (String.concat "," (List.map (Printf.sprintf "%.6g") x.runs))
        q1 q3)
    r.e2e;
  List.iter
    (fun (n, u, _, v) -> Printf.printf "%s %s %.6g %s\n" r.workload n v u)
    r.layers

(* ------------------------------------------------------------------ *)
(* The run protocol                                                    *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let mtps x = x /. 1e6

(* A rate-ladder rung is met when client p99.9 stays within 1 ms, nothing
   is shed or dropped, and the admission queue never filled. *)
let limit_ns = 1_000_000

let rung_ok (m : Metrics.t) depth =
  Hist.percentile m.client_lat 99.9 <= limit_ns && failed m = 0 && m.qmax < depth

(* The trace must hold the engine's virtual phase spans and the bench's
   wall-clock lane. *)
let trace_ok path =
  match Json.read_file path with
  | exception Failure _ -> false
  | j ->
      let evs = Json.to_list (Json.member "traceEvents" j) in
      let has f = List.exists (fun e -> try f e with Failure _ -> false) evs in
      has (fun e -> Json.to_str (Json.member "cat" e) = "phase")
      && has (fun e ->
             Json.to_str (Json.member "ph" e) = "M"
             && Json.to_str (Json.member "name" (Json.member "args" e)) = "bench-wall")

(* Timed rep [i] runs sub-seed [i mod subseeds]; sub-seed 0 is the
   [--seed] itself.  Pooling distinct inputs in one invocation is what
   keeps the virtual metrics steady across seeds: a TPC-C run's time is
   set by the few batches whose logic aborts cascade. *)
let sub_seed seed i = seed + (1_000_003 * i)
let subseeds = 4

(* The traced rep (sub-seed 0, bit-identical to timed rep 0), then the
   per-layer micro-timing loops on its workload and, for open-loop
   workloads, the rate ladder; writes the trace to [path].  Returns the
   extra checks and the per-layer metrics. *)
let traced (w : Suite.t) exp ~div ~subseeds ~path ~(timed : rep array) (v : Verify.t) =
  let m = timed.(0).m in
  let tracer = Trace.create () in
  let tr, twl = timed_rep ~tracer exp in
  Wall.spans :=
    ("traced: engine run", tr.t1 - Wall.origin, tr.t2 - tr.t1)
    :: ("traced: workload build", tr.t0 - Wall.origin, tr.t1 - tr.t0)
    :: !Wall.spans;
  let db = twl.Workload.db and table = v.Verify.hot_table in
  let sized n = n / div in
  let tick = Wall.span "sim.tick loop" (fun () -> Layers.sim_tick_ns ~n:(sized 400_000)) in
  let handoff =
    Wall.span "sim.handoff loop" (fun () -> Layers.sim_handoff_ns ~n:(sized 200_000))
  in
  let barrier =
    Wall.span "sim.barrier loop" (fun () -> Layers.sim_barrier_ns ~n:(sized 200_000))
  in
  let find =
    Wall.span "storage.find loop" (fun () -> Layers.find_ns db ~table v.Verify.hot_keys)
  in
  let checksum_ms = Wall.span "storage.checksum loop" (fun () -> Layers.checksum_ms db) in
  let gen =
    Wall.span "workloads.gen loop" (fun () ->
        Layers.gen_ns twl ~streams:exp.E.threads ~n:(sized 16_384))
  in
  let rows = Layers.sample_rows db ~table ~n:(sized 8192) in
  let wal = Wall.span "wal.encode loop" (fun () -> Layers.wal_ns_per_byte rows ~table) in
  let cdc =
    Wall.span "cdc.stage+publish loop" (fun () -> Layers.cdc_ns_per_event rows ~table)
  in
  let clone_ms = Wall.span "storage.clone loop" (fun () -> Layers.clone_ms db) in
  let max_rate =
    match exp.E.clients with
    | None -> 0.
    | Some c ->
        let rungs =
          (Suite.open_rate, m)
          :: List.map
               (fun rate ->
                 ( rate,
                   Wall.span (Printf.sprintf "ladder %.1fM" (mtps rate)) (fun () ->
                       E.run (Suite.at_rate exp rate)) ))
               w.Suite.ladder
          |> List.sort compare
        in
        let rec climb best = function
          | (rate, rm) :: rest when rung_ok rm c.C.depth -> climb rate rest
          | _ -> best
        in
        mtps (climb 0. rungs)
  in
  Trace.begin_process tracer "bench-wall";
  List.iter
    (fun (name, ts, dur) -> Trace.span tracer ~tid:0 ~cat:"wall" ~name ~ts ~dur ())
    (List.rev !Wall.spans);
  mkdir_p (Filename.dirname path);
  Trace.write_file tracer path;
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let per x = ratio x m.committed in
  let idle_pct x = 100. *. ratio x (m.busy + m.idle) in
  let us a p = float_of_int (pct a p) /. 1e3 in
  let lat = v.Verify.lat and client = v.Verify.client_lat in
  let warm = List.tl (Array.to_list timed) in
  let median_of f = Wall.median (List.map f warm) in
  (* the untraced baseline: warm reps of the traced rep's sub-seed 0 *)
  let untraced_run =
    Wall.median
      (List.filteri (fun i _ -> i > 0 && i mod subseeds = 0) (Array.to_list timed)
      |> List.map run_s)
  in
  let layers =
    [
      ("quecc.plan_ns_per_txn", "vns", Lower, per m.plan_busy);
      ("quecc.exec_ns_per_txn", "vns", Lower, per m.exec_busy);
      ("quecc.publish_ns_per_txn", "vns", Lower, per m.publish_busy);
      ("quecc.recover_ns_per_txn", "vns", Lower, per m.recover_busy);
      ("quecc.fill_stall_us", "vus", Lower, float_of_int (Metrics.fill_stall_avg m) /. 1e3);
      ("quecc.drain_stall_us", "vus", Lower, float_of_int (Metrics.drain_stall_avg m) /. 1e3);
      ("quecc.cascades", "count", Lower, float_of_int m.cascades);
      ("quecc.batch_txns", "txn", Higher, ratio m.committed m.batches);
      ("nd.abort_rate", "ratio", Lower, Metrics.abort_rate m);
      ("nd.busy_ns_per_commit", "vns", Lower, per m.busy);
      ("sim.util", "ratio", Higher, Metrics.utilization m);
      ("sim.idle_barrier_pct", "%", Lower, idle_pct m.idle_barrier);
      ("sim.idle_ivar_pct", "%", Lower, idle_pct m.idle_ivar);
      ("sim.idle_chan_pct", "%", Lower, idle_pct m.idle_chan);
      ("sim.idle_sleep_pct", "%", Lower, idle_pct m.idle_sleep);
      ("sim.tick_ns", "ns", Lower, tick);
      ("sim.handoff_ns", "ns", Lower, handoff);
      ("sim.barrier_ns", "ns", Lower, barrier);
      ("storage.probes_per_txn", "count", Lower, per v.Verify.probes);
      ("storage.inserts_per_txn", "count", Lower, per v.Verify.inserts);
      ("storage.find_ns", "ns", Lower, find);
      ("storage.clone_ms", "ms", Lower, clone_ms);
      ("storage.checksum_ms", "ms", Lower, checksum_ms);
      ("workloads.gen_ns_per_txn", "ns", Lower, gen);
      ("workloads.frags_per_txn", "count", Lower, v.Verify.frags_per_txn);
      ("serial.ns_per_txn", "ns", Lower, ratio v.Verify.replay_ns v.Verify.replayed);
      ("wal.bytes_per_txn", "B", Lower, per m.wal_bytes);
      ("wal.group_txns", "txn", Higher, Metrics.wal_group_size m);
      ("wal.fsyncs", "count", Lower, float_of_int m.wal_fsyncs);
      ("wal.snapshots", "count", Lower, float_of_int m.snapshots);
      ("wal.durable_frac", "ratio", Higher, per v.Verify.durable_txns);
      ("wal.encode_ns_per_byte", "ns/B", Lower, wal);
      ("cdc.events_per_txn", "count", Lower, per m.cdc_events);
      ("cdc.bytes_per_txn", "B", Lower, per m.cdc_bytes);
      ("cdc.lag_max", "batch", Lower, float_of_int m.cdc_lag_max);
      ("cdc.ns_per_event", "ns", Lower, cdc);
      ("clients.offered_mtps", "Mtxn/vs", Higher, mtps (Metrics.offered_rate m));
      ("clients.qmax", "txn", Lower, float_of_int m.qmax);
      ("clients.shed", "txn", Lower, float_of_int m.shed);
      ("clients.deadline_miss", "txn", Lower, float_of_int m.deadline_miss);
      ("latency.vlat_p50_us", "vus", Lower, us lat 50.);
      ("latency.vlat_p999_us", "vus", Lower, us lat 99.9);
      ("latency.vlat_samples", "count", Higher, float_of_int (Array.length lat));
      ("latency.client_p50_us", "vus", Lower, us client 50.);
      ("latency.client_p999_us", "vus", Lower, us client 99.9);
      ("latency.client_samples", "count", Higher, float_of_int (Array.length client));
      ("clients.admit_wait_us", "vus", Lower, us client 50. -. us lat 50.);
      ("clients.max_rate_mtps", "Mtxn/s", Higher, max_rate);
      ("clients.fail_frac", "ratio", Lower, ratio (failed m) (offered m));
      ( "gc.minor_words_per_txn", "words", Lower,
        median_of (fun r -> r.minor_words /. float_of_int r.m.committed) );
      ( "gc.promoted_words_per_txn", "words", Lower,
        median_of (fun r -> r.promoted_words /. float_of_int r.m.committed) );
      ( "gc.major_collections", "count", Lower,
        median_of (fun r -> float_of_int r.major_collections) );
      ("trace.overhead_pct", "%", Lower, 100. *. ((run_s tr /. untraced_run) -. 1.));
    ]
  in
  ( [
      ("traced rep bit-identical", signature tr.m tr.checksum = signature m timed.(0).checksum);
      ("trace has phase and bench-wall lanes", trace_ok path);
    ],
    layers )

(* [subseeds] + 1 timed reps at least (the last repeats sub-seed 0), more
   until [seconds] have passed; then the verification rep; then, when
   [trace_file] is given, the traced rep, the per-layer micro-timing
   loops and the rate ladder.  Rep 0 runs in a cold process, so wall
   metrics are medians over the reps after it. *)
let measure (w : Suite.t) ~seed ~div ~subseeds ~seconds ~trace_file =
  let exps = Array.init subseeds (fun i -> w.Suite.make ~seed:(sub_seed seed i) ~div) in
  let exp = exps.(0) in
  let start = Wall.now () in
  let timed = ref [] and heap_mb = ref 0. in
  let n = ref 0 in
  while !n <= subseeds || Wall.secs (Wall.now () - start) < seconds do
    let r, _ = timed_rep exps.(!n mod subseeds) in
    if !n = 0 then
      heap_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    timed := r :: !timed;
    incr n
  done;
  let timed = Array.of_list (List.rev !timed) in
  let first = timed.(0) in
  let m = first.m in
  let sig_of r = signature r.m r.checksum in
  let sig0 = sig_of first in
  let pooled = Array.to_list (Array.sub timed 0 subseeds) in
  let warm = List.tl (Array.to_list timed) in
  let v = Verify.run w exp in
  let lat = v.Verify.lat and client = v.Verify.client_lat in
  let all_reps p = Array.for_all (fun r -> p r.m) timed in
  let checks =
    v.Verify.checks
    @ [
        ( "repeated sub-seeds bit-identical",
          Array.for_all Fun.id
            (Array.mapi (fun i r -> sig_of r = sig_of timed.(i mod subseeds)) timed) );
        ( "verification rep = timed rep",
          signature v.Verify.metrics v.Verify.checksum = sig0 );
        ("conservation", all_reps conserved);
        ("fail_frac = 0", all_reps (fun m -> failed m = 0));
        ("lat histogram = exact latencies", hist_agrees m.lat lat);
        ( "client histogram = exact latencies",
          Hist.count m.client_lat = 0 || hist_agrees m.client_lat client );
      ]
  in
  let median_of f = Wall.median (List.map f warm) in
  (* The latency a client sees: arrival -> commit in open loop, submit ->
     commit in closed loop. *)
  let seen (m : Metrics.t) =
    if Hist.count m.client_lat > 0 then m.client_lat else m.lat
  in
  let lat_sum r = Hist.mean (seen r.m) *. float_of_int (Hist.count (seen r.m)) in
  let lat_n r = float_of_int (Hist.count (seen r.m)) in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. pooled in
  let e2e =
    List.map
      (fun spec ->
        let virt v f = { spec; v; runs = List.map f pooled } in
        let wall f = { spec; v = median_of f; runs = List.map f warm } in
        match spec.name with
        | "vtput_mtps" ->
            let total f = sum (fun r -> float_of_int (f r.m)) in
            virt
              (1e3 *. total (fun m -> m.committed) /. total (fun m -> m.elapsed))
              (fun r -> mtps (Metrics.throughput r.m))
        | "vlat_mean_us" ->
            virt (sum lat_sum /. sum lat_n /. 1e3) (fun r -> lat_sum r /. lat_n r /. 1e3)
        | "wall_ktps" -> wall (fun r -> float_of_int r.m.committed /. run_s r /. 1e3)
        | "setup_s" -> wall setup_s
        | "peak_heap_mb" -> { spec; v = !heap_mb; runs = [ !heap_mb ] }
        | n -> invalid_arg ("perf: no rule for metric " ^ n))
      e2e_specs
  in
  let checks, layers =
    match trace_file with
    | None -> (checks, [])
    | Some path ->
        let extra, layers = traced w exp ~div ~subseeds ~path ~timed v in
        (checks @ extra, layers)
  in
  {
    workload = w.Suite.name;
    seed;
    div;
    checksum = first.checksum;
    checks;
    attempted = Array.fold_left (fun a r -> a + offered r.m) 0 timed;
    fails = Array.fold_left (fun a r -> a + failed r.m) 0 timed;
    e2e;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Comparing result sets                                               *)
(* ------------------------------------------------------------------ *)

(* [split_at c s] = the parts before and after the first [c]. *)
let split_at c s =
  Option.map
    (fun i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)))
    (String.index_opt s c)

(* A side is a comma-separated list of files, each one result, a set
   written by [pass], or [FILE#NAME] for a set inside a baseline file. *)
let load_side spec =
  List.concat_map
    (fun item ->
      let j =
        match split_at '#' item with
        | Some (file, set) -> Json.member set (Json.member "sets" (Json.read_file file))
        | None -> Json.read_file item
      in
      match Json.member_opt "results" j with Some l -> Json.to_list l | None -> [ j ])
    (String.split_on_char ',' spec)

let bounds_of bench =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_num (Json.member "bound" m)))
    (Json.to_list (Json.member "end_to_end" (Json.read_file bench)))

let runs_of name r =
  List.map Json.to_num
    (Json.to_list (Json.member "runs" (Json.member name (Json.member "end_to_end" r))))

let workload_of r = Json.to_str (Json.member "workload" r)

(* One row per workload x end-to-end metric, labelled worse (beyond the
   bound), unresolved (spread wider than the bound and NEW does not beat
   BASE on every run) or ok.  Virtual values are a pure function of the
   seed, so when both sides ran the same seeds they are compared
   exactly, seed by seed.  Exits 1 on any worse row, a higher fail_frac
   or a changed committed-state checksum. *)
let compare_sides ~bench base_spec new_spec =
  let base = load_side base_spec and nw = load_side new_spec in
  let bounds = bounds_of bench in
  let seed r = Json.to_num (Json.member "seed" r) in
  let get key name r =
    Option.map
      (fun m -> Json.to_num (Json.member "value" m))
      (Json.member_opt name (Json.member key r))
  in
  let bad = ref false in
  let row w name xs ys ~bound label =
    let bm = Wall.median xs and nm = Wall.median ys in
    let bq1, bq3 = quartiles xs and nq1, nq3 = quartiles ys in
    if label = "worse" then bad := true;
    Printf.printf "%-13s %-22s %10.4g [%5.4g,%5.4g] %10.4g [%5.4g,%5.4g] %+7.2f%% %6s  %s\n"
      w name bm bq1 bq3 nm nq1 nq3
      (100. *. (nm -. bm) /. Float.abs bm)
      bound label
  in
  Printf.printf "%-13s %-22s %24s %24s %8s %6s  %s\n" "workload" "metric"
    "base median [q1,q3]" "new median [q1,q3]" "change" "bound" "label";
  List.iter
    (fun w ->
      let b = List.filter (fun r -> workload_of r = w) base
      and n = List.filter (fun r -> workload_of r = w) nw in
      let seeds rs = List.sort_uniq compare (List.map seed rs) in
      let exact = b <> [] && seeds b = seeds n in
      (* some seed on which NEW reads worse than BASE *)
      let worse_on_a_seed key name dir =
        List.exists
          (fun rb ->
            List.exists
              (fun rn ->
                seed rn = seed rb
                &&
                match (get key name rb, get key name rn) with
                | Some x, Some y -> if dir = Lower then y > x else y < x
                | _ -> false)
              n)
          b
      in
      if b <> [] && n <> [] then begin
        List.iter
          (fun s ->
            let bound = Option.value ~default:0. (List.assoc_opt s.name bounds) in
            let br = List.concat_map (runs_of s.name) b
            and nr = List.concat_map (runs_of s.name) n in
            let bm = Wall.median br and nm = Wall.median nr in
            let worse_by x =
              (match s.dir with Lower -> x -. bm | Higher -> bm -. x) /. Float.abs bm
            in
            let beats x y = match s.dir with Lower -> x < y | Higher -> x > y in
            let spread xs m =
              let q1, q3 = quartiles xs in
              (q3 -. q1) /. Float.abs m
            in
            let exact = exact && s.det in
            let label =
              if exact then if worse_on_a_seed "end_to_end" s.name s.dir then "worse" else "ok"
              else if worse_by nm > bound then "worse"
              else if
                Float.max (spread br bm) (spread nr nm) > bound
                && not (List.for_all (fun x -> List.for_all (beats x) br) nr)
              then "unresolved"
              else "ok"
            in
            row w s.name br nr label
              ~bound:(if exact then "exact" else Printf.sprintf "%.0f%%" (100. *. bound)))
          e2e_specs;
        (* the exact latency percentiles of the traced runs *)
        List.iter
          (fun name ->
            let vals rs = List.filter_map (get "per_layer" name) rs in
            if vals b <> [] && vals n <> [] then
              row w name (vals b) (vals n) ~bound:"exact"
                (if not exact then "info"
                 else if worse_on_a_seed "per_layer" name Lower then "worse"
                 else "ok"))
          [
            "latency.vlat_p50_us";
            "latency.vlat_p999_us";
            "latency.client_p50_us";
            "latency.client_p999_us";
          ];
        if worse_on_a_seed "per_layer" "clients.fail_frac" Lower then begin
          bad := true;
          Printf.printf "%-13s clients.fail_frac rose: worse\n" w
        end;
        List.iter
          (fun rb ->
            List.iter
              (fun rn ->
                if seed rn = seed rb && Json.member "checksum" rn <> Json.member "checksum" rb
                then begin
                  bad := true;
                  Printf.printf "%-13s seed %.0f: committed-state checksum changed: worse\n" w
                    (seed rb)
                end)
              n)
          b
      end)
    Suite.names;
  if !bad then exit 1

(* ------------------------------------------------------------------ *)
(* Passes and the checked-in baseline                                  *)
(* ------------------------------------------------------------------ *)

(* One full pass: every workload in its own process, one after the
   other, written as one set. *)
let pass ~seed ~out =
  let dir = Filename.dirname out in
  mkdir_p dir;
  let t0 = Wall.now () in
  let results =
    List.map
      (fun w ->
        let json = Filename.concat dir (Printf.sprintf ".pass-%s-%d.json" w seed) in
        let argv =
          [| Sys.executable_name; "run"; "--workload"; w; "--seed"; string_of_int seed;
             "--json"; json |]
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ ->
            Printf.eprintf "perf: pass: %s failed\n" w;
            exit 1);
        let r = Json.read_file json in
        Sys.remove json;
        r)
      Suite.names
  in
  let wall = Wall.secs (Wall.now () - t0) in
  Json.write_file out
    (Json.Obj
       [
         ("seed", Json.Num (float_of_int seed));
         ("pass_wall_s", Json.Num wall);
         ("results", Json.Arr results);
       ]);
  Printf.printf "pass: seed %d, %d workloads in %.1f s -> %s\n" seed (List.length results) wall
    out

(* Gather named sets into one file and record, per workload and
   end-to-end metric, the quartile spread each set showed next to the
   metric's bound. *)
let baseline ~bench ~out args =
  let bounds = bounds_of bench in
  let sets =
    List.map
      (fun a ->
        match split_at '=' a with
        | Some (name, file) -> (name, Json.read_file file)
        | None -> invalid_arg ("perf: baseline wants NAME=SETFILE, got " ^ a))
      args
  in
  let spread w s =
    ( s.name,
      Json.Obj
        (("bound", Json.Num (Option.value ~default:nan (List.assoc_opt s.name bounds)))
        :: List.map
             (fun (name, set) ->
               let xs =
                 List.concat_map (runs_of s.name)
                   (List.filter
                      (fun r -> workload_of r = w)
                      (Json.to_list (Json.member "results" set)))
               in
               let q1, q3 = quartiles xs in
               (name, Json.Num ((q3 -. q1) /. Float.abs (Wall.median xs))))
             sets) )
  in
  Json.write_file out
    (Json.Obj
       [
         ( "pass_wall_s",
           Json.Obj (List.map (fun (n, set) -> (n, Json.member "pass_wall_s" set)) sets) );
         ( "spread",
           Json.Obj
             (List.map (fun w -> (w, Json.Obj (List.map (spread w) e2e_specs))) Suite.names) );
         ("sets", Json.Obj sets);
       ])

(* ------------------------------------------------------------------ *)
(* Smoke test                                                          *)
(* ------------------------------------------------------------------ *)

(* Every workload at 1/16 size, one sub-seed (rep 0 and its repeat),
   every check on: each metric BENCHMARK.json names must come out with
   its unit and direction, and the JSON and trace files must parse. *)
let smoke ~bench =
  let spec = Json.read_file bench in
  let named key =
    List.map
      (fun m ->
        let str k = Json.to_str (Json.member k m) in
        (str "name", (str "unit", str "better")))
      (Json.to_list (Json.member key spec))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Suite.t) ->
      let name = w.Suite.name in
      Wall.spans := [];
      let t0 = Wall.now () in
      let trace = Filename.temp_file "perf-smoke" ".trace.json" in
      let json = Filename.temp_file "perf-smoke" ".json" in
      let r = measure w ~seed:42 ~div:16 ~subseeds:1 ~seconds:0. ~trace_file:(Some trace) in
      Json.write_file json (result_to_json r);
      let back = Json.read_file json in
      Sys.remove json;
      Sys.remove trace;
      List.iter (fun (n, ok) -> if not ok then problem "%s: check %s failed" name n) r.checks;
      let dirs =
        List.map (fun x -> (x.spec.name, x.spec.dir)) r.e2e
        @ List.map (fun (n, _, d, _) -> (n, d)) r.layers
      in
      List.iter
        (fun key ->
          let names = named key and got = Json.member key back in
          if List.length (Json.to_assoc got) <> List.length names then
            problem "%s: %d %s metrics emitted, BENCHMARK.json names %d" name
              (List.length (Json.to_assoc got))
              key (List.length names);
          List.iter
            (fun (n, (unit, better)) ->
              match Json.member_opt n got with
              | None -> problem "%s: %s metric %s missing" name key n
              | Some m ->
                  let u = Json.to_str (Json.member "unit" m) in
                  if u <> unit then
                    problem "%s: %s has unit %s, BENCHMARK.json says %s" name n u unit;
                  if dir_name (List.assoc n dirs) <> better then
                    problem "%s: %s direction disagrees with BENCHMARK.json" name n;
                  if not (Float.is_finite (Json.to_num (Json.member "value" m))) then
                    problem "%s: %s is not a number" name n)
            names)
        [ "end_to_end"; "per_layer" ];
      Printf.printf "smoke %-13s %s in %.2f s\n%!" name
        (if correct r then "ok" else "FAILED")
        (Wall.secs (Wall.now () - t0)))
    Suite.all;
  match !problems with
  | [] -> print_endline "smoke: all workloads ok"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe run --workload NAME [--seed N] [--json FILE] [--trace FILE]\n\
    \       perf.exe bench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perf.exe pass --seed N --json FILE\n\
    \       perf.exe compare BASE NEW [--bench FILE]\n\
    \       perf.exe baseline --out FILE NAME=SETFILE ...\n\
    \       perf.exe smoke [--bench FILE]\n\
     workloads: ";
  prerr_endline (String.concat ", " Suite.names);
  exit 2

(* [--flag value] pairs and positional arguments. *)
let parse_args args =
  let is_flag f = String.length f > 2 && String.sub f 0 2 = "--" in
  let rec go flags pos = function
    | f :: v :: rest when is_flag f -> go ((f, v) :: flags) pos rest
    | [ f ] when is_flag f -> usage ()
    | a :: rest -> go flags (a :: pos) rest
    | [] -> (flags, List.rev pos)
  in
  go [] [] args

let () =
  let cmd, rest =
    match List.tl (Array.to_list Sys.argv) with c :: r -> (c, r) | [] -> usage ()
  in
  let flags, pos = parse_args rest in
  let flag f = List.assoc_opt f flags in
  let int_flag f d =
    match flag f with
    | None -> d
    | Some s -> ( match int_of_string_opt s with Some n -> n | None -> usage ())
  in
  let workload () =
    match Option.bind (flag "--workload") Suite.find with Some w -> w | None -> usage ()
  in
  let seed () = int_flag "--seed" 42 in
  let default_trace (w : Suite.t) = Printf.sprintf "_build/perf/%s.trace.json" w.Suite.name in
  let bench = Option.value (flag "--bench") ~default:"BENCHMARK.json" in
  let finish r =
    if not (correct r) then begin
      List.iter
        (fun (n, ok) -> if not ok then Printf.eprintf "perf: check failed: %s\n" n)
        r.checks;
      exit 1
    end
  in
  try
    match (cmd, pos) with
    | "run", [] ->
        let w = workload () in
        let trace = Option.value (flag "--trace") ~default:(default_trace w) in
        let r =
          measure w ~seed:(seed ()) ~div:1 ~subseeds ~seconds:0. ~trace_file:(Some trace)
        in
        print_result r;
        Printf.printf "trace: %s\n" trace;
        Option.iter (fun f -> Json.write_file f (result_to_json r)) (flag "--json");
        finish r
    | "bench", [] ->
        let w = workload () in
        let traced = int_flag "--trace" 0 = 1 in
        let seconds = float_of_int (int_flag "--seconds" 10) in
        let trace_file = if traced then Some (default_trace w) else None in
        let r = measure w ~seed:(seed ()) ~div:1 ~subseeds ~seconds ~trace_file in
        print_result r;
        let metric n v u = (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]) in
        let metrics =
          if traced then List.map (fun (n, u, _, v) -> metric n v u) r.layers
          else List.map (fun x -> metric x.spec.name x.v x.spec.unit) r.e2e
        in
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("correct", Json.Bool (correct r));
                  ("attempted", Json.Num (float_of_int r.attempted));
                  ("failed", Json.Num (float_of_int r.fails));
                  ("metrics", Json.Obj metrics);
                ]));
        finish r
    | "pass", [] -> (
        match flag "--json" with Some out -> pass ~seed:(seed ()) ~out | None -> usage ())
    | "compare", [ b; n ] -> compare_sides ~bench b n
    | "baseline", (_ :: _ as sets) -> (
        match flag "--out" with Some out -> baseline ~bench ~out sets | None -> usage ())
    | "smoke", [] -> smoke ~bench
    | _ -> usage ()
  with Failure msg | Invalid_argument msg | Sys_error msg ->
    Printf.eprintf "perf: %s\n" msg;
    exit 1
