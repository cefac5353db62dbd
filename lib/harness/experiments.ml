open Quill_workloads
module E = Experiment
module Qe = Quill_quecc.Engine

let scaled scale n ~min_v = max min_v (int_of_float (float_of_int n *. scale))

(* Tracer shared by every run of the suite (bench --trace); the default
   null tracer records nothing. *)
let tracer = ref Quill_trace.Trace.null

(* When set (bench/CLI --check-conflicts), every QueCC-family run in the
   suite records its row accesses and is replayed through
   Conflict_check when it completes; a violation fails the whole suite.
   Engines outside the family run unrecorded — the detector's rules are
   about planned queues, which only the QueCC engines have. *)
let check_conflicts = ref false

(* ------------------------------------------------------------------ *)
(* Claims                                                              *)
(* ------------------------------------------------------------------ *)

exception Claim_failed of string list

(* A claim and the line that reports it false, naming the value and the
   bound it missed. *)
let claim holds fmt = Printf.ksprintf (fun line -> (holds, line)) fmt

let check claims =
  match
    List.filter_map (fun (holds, line) -> if holds then None else Some line)
      claims
  with
  | [] -> ()
  | failed -> raise (Claim_failed failed)

(* Runs replayed through the conflict checker so far. *)
let conflict_checked = ref 0

(* Under --check-conflicts, the checker replayed some run since [since]
   (an empty replay would check nothing). *)
let recorded_since since =
  claim
    ((not !check_conflicts) || !conflict_checked > since)
    "conflict-check: no run was recorded"

let records_conflicts (engine : E.engine) =
  match engine with
  | E.Quecc _ | E.Dist_quecc _ -> true
  | E.Serial | E.Twopl_nowait | E.Twopl_waitdie | E.Silo | E.Tictoc
  | E.Mvto | E.Hstore | E.Calvin | E.Dist_calvin _ ->
      false

(* [record:false] keeps a run out of the conflict recorder even under
   --check-conflicts (replication and the WAL touch rows outside the
   planned-queue attribution). *)
let run_exp ?(record = true) ?on_workload e =
  if not (record && !check_conflicts && records_conflicts e.E.engine) then
    E.run ~tracer:!tracer ?on_workload e
  else begin
    let module CC = Quill_analysis.Conflict_check in
    let log = Quill_analysis.Access_log.create () in
    let m = E.run ~tracer:!tracer ~recorder:log ?on_workload e in
    let r = CC.check_log log in
    Format.printf "[conflict-check] %s: %a@." e.E.name CC.pp_report r;
    incr conflict_checked;
    check
      [
        claim (CC.ok r) "conflict-check: %d planned-order violations in %s"
          (List.length r.CC.violations) e.E.name;
        claim (r.CC.r_rows > 0) "conflict-check: 0 row accesses recorded in %s"
          e.E.name;
      ];
    m
  end

(* [run_exp] plus the checksum of the committed database it left. *)
let run_checksummed ?record e =
  let db = ref None in
  let on_workload wl = db := Some wl.Quill_txn.Workload.db in
  let m = run_exp ?record ~on_workload e in
  (m, match !db with Some db -> Quill_storage.Db.checksum db | None -> 0)

module J = Bench_json

(* Every BENCH row reports throughput with one decimal. *)
let tput m = J.Fixed (1, Quill_txn.Metrics.throughput m)

let run_row engine spec ~threads ~txns ~batch_size =
  let e = E.make ~threads ~txns ~batch_size engine spec in
  { Report.label = E.engine_name e.E.engine; metrics = run_exp e }

(* ------------------------------------------------------------------ *)

let table2_row1 ?(scale = 1.0) () =
  let txns = scaled scale 12_288 ~min_v:2048 in
  let size = scaled scale 200_000 ~min_v:20_000 in
  let series =
    List.map
      (fun mp ->
        let spec =
          E.Ycsb
            {
              Ycsb.default with
              Ycsb.table_size = size;
              nparts = 8;
              theta = 0.0;
              mp_ratio = mp;
              parts_per_txn = 4;
            }
        in
        let rows =
          [
            run_row (E.Quecc (Qe.Speculative, Qe.Serializable)) spec
              ~threads:8 ~txns ~batch_size:2048;
            run_row E.Hstore spec ~threads:8 ~txns ~batch_size:2048;
          ]
        in
        (Printf.sprintf "%.0f%%" (mp *. 100.0), rows))
      [ 0.0; 0.01; 0.05; 0.1; 0.2; 0.5; 1.0 ]
  in
  Report.print_sweep
    ~title:
      "Table 2 row 1: QueCC vs H-Store, YCSB multi-partition (4 parts/txn, \
       8 cores)"
    ~param:"multi-partition txns" series

let table2_row2 ?(scale = 1.0) () =
  let txns = scaled scale 20_480 ~min_v:4096 in
  let size = scaled scale 320_000 ~min_v:32_000 in
  let spec mp nparts =
    E.Ycsb
      {
        Ycsb.default with
        Ycsb.table_size = size;
        nparts;
        theta = 0.0;
        mp_ratio = mp;
        parts_per_txn = 2;
      }
  in
  let series =
    List.map
      (fun mp ->
        let rows =
          [
            (* 16 virtual cores per node: 8 planners + 8 executors. *)
            run_row (E.Dist_quecc 4) (spec mp 32) ~threads:16 ~txns
              ~batch_size:4096;
            run_row (E.Dist_calvin 4) (spec mp 16) ~threads:16 ~txns
              ~batch_size:4096;
          ]
        in
        (Printf.sprintf "%.0f%%" (mp *. 100.0), rows))
      [ 0.0; 0.2 ]
  in
  Report.print_sweep
    ~title:
      "Table 2 row 2: distributed QueCC vs Calvin, YCSB uniform (4 nodes x \
       16 cores)"
    ~param:"multi-node txns" series

let table2_row3 ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let series =
    List.map
      (fun w ->
        let spec =
          E.Tpcc
            (Tpcc.payment_mix
               { Tpcc.default with Tpcc_defs.warehouses = w; nparts = 8 })
        in
        let engines =
          [
            E.Quecc (Qe.Conservative, Qe.Serializable);
            E.Quecc (Qe.Speculative, Qe.Serializable);
            E.Twopl_nowait;
            E.Twopl_waitdie;
            E.Silo;
            E.Tictoc;
            E.Mvto;
          ]
        in
        let rows =
          List.map
            (fun e -> run_row e spec ~threads:8 ~txns ~batch_size:1024)
            engines
        in
        (string_of_int w, rows))
      [ 1; 4 ]
  in
  Report.print_sweep
    ~title:
      "Table 2 row 3: QueCC vs non-deterministic protocols, TPC-C \
       NewOrder/Payment (8 cores)"
    ~param:"warehouses" series

(* ------------------------------------------------------------------ *)

let fig_contention ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  let series =
    List.map
      (fun theta ->
        let spec =
          E.Ycsb
            { Ycsb.default with Ycsb.table_size = size; nparts = 8; theta }
        in
        let rows =
          List.map
            (fun e -> run_row e spec ~threads:8 ~txns ~batch_size:2048)
            E.all_centralized
        in
        (Printf.sprintf "%.2f" theta, rows))
      [ 0.0; 0.6; 0.9; 0.99 ]
  in
  Report.print_sweep
    ~title:"Contention sweep: YCSB zipfian theta (8 cores)" ~param:"theta"
    series

let fig_scalability ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  let series =
    List.map
      (fun threads ->
        let spec =
          E.Ycsb
            {
              Ycsb.default with
              Ycsb.table_size = size;
              nparts = threads;
              theta = 0.9;
            }
        in
        let rows =
          List.map
            (fun e -> run_row e spec ~threads ~txns ~batch_size:2048)
            [
              E.Quecc (Qe.Speculative, Qe.Serializable);
              E.Silo;
              E.Twopl_nowait;
              E.Calvin;
            ]
        in
        (string_of_int threads, rows))
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Report.print_sweep ~title:"Scalability: YCSB theta=0.9" ~param:"cores"
    series

let fig_modes ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  let series =
    List.map
      (fun abort_ratio ->
        let spec =
          E.Ycsb
            {
              Ycsb.default with
              Ycsb.table_size = size;
              nparts = 8;
              theta = 0.6;
              abort_ratio;
              abort_threshold = 128;
              chain_deps = true;
            }
        in
        let rows =
          List.map
            (fun (label, mode, iso) ->
              let e = E.make ~threads:8 ~txns ~batch_size:2048
                        (E.Quecc (mode, iso)) spec
              in
              { Report.label; metrics = run_exp e })
            [
              ("speculative/serializable", Qe.Speculative, Qe.Serializable);
              ("conservative/serializable", Qe.Conservative, Qe.Serializable);
              ("speculative/read-committed", Qe.Speculative, Qe.Read_committed);
              ( "conservative/read-committed",
                Qe.Conservative,
                Qe.Read_committed );
            ]
        in
        (Printf.sprintf "%.0f%%" (abort_ratio *. 100.0), rows))
      [ 0.0; 0.02; 0.1 ]
  in
  Report.print_sweep
    ~title:
      "Execution modes & isolation ablation (paper section 3.2): YCSB with \
       abortable fragments"
    ~param:"abortable txns" series

let fig_latency ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  let spec =
    E.Ycsb
      { Ycsb.default with Ycsb.table_size = size; nparts = 8; theta = 0.9 }
  in
  let rows =
    List.map
      (fun e -> run_row e spec ~threads:8 ~txns ~batch_size:2048)
      [
        E.Quecc (Qe.Speculative, Qe.Serializable);
        E.Calvin;
        E.Silo;
        E.Twopl_nowait;
      ]
  in
  Report.print_table
    ~title:"Latency distribution: YCSB theta=0.9 (batching vs per-txn)" rows

let fig_batch ?(scale = 1.0) () =
  let txns = scaled scale 32_768 ~min_v:8192 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  let spec =
    E.Ycsb
      { Ycsb.default with Ycsb.table_size = size; nparts = 8; theta = 0.9 }
  in
  let rows =
    List.map
      (fun batch_size ->
        let e =
          E.make
            ~name:(Printf.sprintf "quecc-batch-%d" batch_size)
            ~threads:8 ~txns ~batch_size
            (E.Quecc (Qe.Speculative, Qe.Serializable))
            spec
        in
        { Report.label = e.E.name; metrics = run_exp e })
      [ 128; 512; 2048; 8192 ]
  in
  Report.print_table
    ~title:
      "Batch-size sensitivity: larger batches amortize planning but pay \
       latency (YCSB theta=0.9, 8 cores)"
    rows

(* Pipelined batch execution.  Each theta runs QueCC with the pipeline
   off and on on the same workload spec, so the off row is the oracle
   both for state (bit-identical per seed, covered by the test suite)
   and for the speedup the sweep table shows.  The distributed engines
   get the lag-1 variant at low contention.  [json] additionally dumps
   every row as machine-readable JSON. *)
let pipeline ?(scale = 1.0) ?json () =
  let module M = Quill_txn.Metrics in
  let txns = scaled scale 16_384 ~min_v:4096 in
  let size = scaled scale 200_000 ~min_v:20_000 in
  let checked0 = !conflict_checked in
  let results = ref [] in
  let row engine label ~theta ~pipeline ~threads ~batch_size spec =
    let e = E.make ~threads ~txns ~batch_size ~pipeline engine spec in
    let m = run_exp e in
    results := (E.engine_name engine, theta, pipeline, m) :: !results;
    { Report.label; metrics = m }
  in
  let series =
    List.map
      (fun theta ->
        let spec =
          E.Ycsb
            { Ycsb.default with Ycsb.table_size = size; nparts = 8; theta }
        in
        let quecc = E.Quecc (Qe.Speculative, Qe.Serializable) in
        let r = row quecc ~theta ~threads:8 ~batch_size:1024 in
        let rows =
          [
            (* lint: engine-name-ok — report row label, not dispatch *)
            r "quecc" ~pipeline:false spec;
            r "quecc+pipe" ~pipeline:true spec;
          ]
        in
        (Printf.sprintf "theta=%.2f" theta, rows))
      [ 0.0; 0.6; 0.9 ]
  in
  Report.print_sweep
    ~title:
      "Pipelined batches: planning of batch N+1 overlapped with execution \
       of batch N (YCSB, 8 cores, committed state identical per seed)"
    ~param:"contention" series;
  let dspec =
    E.Ycsb
      {
        Ycsb.default with
        Ycsb.table_size = size;
        nparts = 16;
        theta = 0.0;
        mp_ratio = 0.2;
        parts_per_txn = 2;
      }
  in
  let drows =
    let r = row ~theta:0.0 ~threads:8 ~batch_size:2048 in
    [
      (* lint: engine-name-ok — report row label, not dispatch *)
      r (E.Dist_quecc 4) "dist-quecc" ~pipeline:false dspec;
      r (E.Dist_quecc 4) "dist-quecc+pipe" ~pipeline:true dspec;
      (* lint: engine-name-ok — report row label, not dispatch *)
      r (E.Dist_calvin 4) "dist-calvin" ~pipeline:false dspec;
      r (E.Dist_calvin 4) "dist-calvin+pipe" ~pipeline:true dspec;
    ]
  in
  Report.print_table
    ~title:
      "Distributed lag-1 pipelining: plan/sequence batch N+1 during batch \
       N (YCSB theta=0, 20% multi-node, 4 nodes)"
    drows;
  (* OCaml evaluates list elements right-to-left, so [results]
     accumulates in a surprising order; sort on the identifying fields
     for a stable artifact. *)
  let rows =
    List.sort
      (fun (n1, t1, p1, _) (n2, t2, p2, _) -> compare (n1, t1, p1) (n2, t2, p2))
      !results
  in
  (match json with
  | None -> ()
  | Some path ->
      J.write path ~experiment:"pipeline" ~scale
        (List.map
           (fun (name, theta, pipe, m) ->
             [
               ("engine", J.Str name); ("theta", J.Num theta);
               ("pipeline", J.Bool pipe);
               ("tput", tput m); ("committed", J.Int m.M.committed);
               ("fill_stall", J.Int m.M.pipe_fill_stall);
               ("drain_stall", J.Int m.M.pipe_drain_stall);
             ])
           rows));
  let find name theta ~pipe =
    List.find_map
      (fun (n, t, p, m) ->
        if n = name && t = theta && p = pipe then Some m else None)
      rows
  in
  let piped =
    List.filter_map
      (fun (n, t, p, m) -> if p then Some (n, t, m) else None)
      rows
  in
  let pair_claims (name, theta, m) =
    match find name theta ~pipe:false with
    | None ->
        [ claim false "pipeline: %s theta=%.2f: no lockstep row" name theta ]
    | Some b ->
        [
          claim (m.M.committed = b.M.committed)
            "pipeline: %s theta=%.2f: commits diverge (%d vs %d)" name theta
            m.M.committed b.M.committed;
          claim (M.throughput m >= M.throughput b)
            "pipeline: %s theta=%.2f: pipelined tput %.1f < lockstep %.1f" name
            theta (M.throughput m) (M.throughput b);
        ]
  in
  let quecc = E.engine_name (E.Quecc (Qe.Speculative, Qe.Serializable)) in
  let speedup =
    match (find quecc 0.0 ~pipe:true, find quecc 0.0 ~pipe:false) with
    | Some m, Some b -> M.throughput m /. M.throughput b
    | _ -> 0.0
  in
  check
    (recorded_since checked0
    :: claim (piped <> []) "pipeline: no pipelined rows"
    :: claim (speedup >= 1.1)
         "pipeline: quecc theta=0 pipeline speedup %.3f < 1.1" speedup
    :: List.concat_map pair_claims piped)

(* Adaptive planning under skew: QueCC with hot-key queue splitting and
   dynamic repartitioning against the plain planner, on a YCSB variant
   whose zipfian draw is global (the same hottest keys from every
   stream — the worst case for static key→executor routing).  The plain
   row at each theta is the state oracle: splitting and repartitioning
   are schedule-preserving, so the committed-state checksum must match
   it bit-for-bit ([json] dumps it with the split/repartition counters). *)
let skew ?(scale = 1.0) ?json () =
  let module M = Quill_txn.Metrics in
  let txns = scaled scale 16_384 ~min_v:4096 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  let results = ref [] in
  let quecc = E.Quecc (Qe.Speculative, Qe.Serializable) in
  let row label ~theta ~split ~adapt_repart spec =
    let e =
      E.make ~threads:8 ~txns ~batch_size:1024 ?split ~adapt_repart quecc
        spec
    in
    let m, chk = run_checksummed e in
    results := (theta, split, adapt_repart, chk, m) :: !results;
    { Report.label; metrics = m }
  in
  let thetas = [ 0.0; 0.6; 0.9 ] in
  let series =
    List.map
      (fun theta ->
        let spec =
          E.Ycsb
            {
              Ycsb.default with
              Ycsb.table_size = size;
              nparts = 8;
              theta;
              global_zipf = true;
            }
        in
        let rows =
          [
            (* lint: engine-name-ok — report row label, not dispatch *)
            row "quecc" ~theta ~split:None ~adapt_repart:false spec;
            row "quecc+split" ~theta ~split:(Some 32) ~adapt_repart:false
              spec;
            row "quecc+split+repart" ~theta ~split:(Some 32)
              ~adapt_repart:true spec;
          ]
        in
        (Printf.sprintf "theta=%.2f" theta, rows))
      thetas
  in
  Report.print_sweep
    ~title:
      "Adaptive planning under skew: hot-key queue splitting and dynamic \
       repartitioning vs the static planner (YCSB global-zipf, 8 cores, \
       committed state identical per seed)"
    ~param:"contention" series;
  (match json with
  | None -> ()
  | Some path ->
      let rows =
        List.sort
          (fun (t1, s1, r1, _, _) (t2, s2, r2, _, _) ->
            compare (t1, s1, r1) (t2, s2, r2))
          !results
      in
      J.write path ~experiment:"skew" ~scale
        (List.map
           (fun (theta, split, repart, chk, m) ->
             [
               ("engine", J.Str (E.engine_name quecc)); ("theta", J.Num theta);
               ("split", J.Int (Option.value split ~default:0));
               ("repart", J.Bool repart); ("tput", tput m);
               ("committed", J.Int m.M.committed);
               ("split_keys", J.Int m.M.split_keys);
               ("split_subqueues", J.Int m.M.split_subqueues);
               ("repart_moves", J.Int m.M.repart_moves);
               ("db_checksum", J.Int chk);
             ])
           rows));
  let pick theta split repart =
    List.find
      (fun (t, s, r, _, _) -> t = theta && s = split && r = repart)
      !results
  in
  let _, _, _, _, hot = pick 0.9 (Some 32) true in
  let _, _, _, _, plain0 = pick 0.0 None false in
  let ratio = M.throughput hot /. M.throughput plain0 in
  let same theta =
    let group = List.filter (fun (t, _, _, _, _) -> t = theta) !results in
    let values f = List.map (fun r -> string_of_int (f r)) group in
    let one f = List.length (List.sort_uniq compare (values f)) = 1 in
    let chk (_, _, _, c, _) = c and committed (_, _, _, _, m) = m.M.committed in
    [
      claim (one chk)
        "skew: theta=%.2f: adaptive rows diverge from plain (checksums %s)"
        theta (String.concat ", " (values chk));
      claim (one committed) "skew: theta=%.2f: commit counts diverge (%s)" theta
        (String.concat ", " (values committed));
    ]
  in
  check
    (claim
       (hot.M.split_keys > 0 && hot.M.split_subqueues > 0)
       "skew: splitting never fired at theta=0.90 (split k/q %d/%d)"
       hot.M.split_keys hot.M.split_subqueues
    :: claim (hot.M.repart_moves > 0)
         "skew: repartitioning never fired at theta=0.90 (%d moves)"
         hot.M.repart_moves
    :: claim (ratio >= 0.85)
         "skew: adaptive theta=0.90 holds only %.3f of theta=0 tput (bound \
          0.85)"
         ratio
    :: List.concat_map same thetas)

(* One crash mid-run on node 1 plus 1% drop and 1% duplication: the
   EXPERIMENTS.md robustness headline.  The crash time is tuned to land
   inside the execution window of BOTH engines even at the minimum
   scale: dist-quecc finishes a 2048-txn run in ~600us of virtual time,
   so the crash must come well before that (dist-calvin runs ~8x
   longer; see the fault table's crashes column for confirmation it
   fired). *)
let default_fault_plan =
  match
    Quill_faults.Faults.parse
      "crash@t=200us:node=1:down=200us,drop=0.01,dup=0.01,seed=7"
  with
  | Ok s -> s
  | Error _ -> assert false

let fault_tolerance ?(scale = 1.0) ?plan () =
  let own_plan = plan = None in
  let plan = Option.value plan ~default:default_fault_plan in
  let checked0 = !conflict_checked in
  let txns = scaled scale 8_192 ~min_v:2048 in
  let size = scaled scale 64_000 ~min_v:8_000 in
  let spec =
    E.Ycsb
      {
        Ycsb.default with
        Ycsb.table_size = size;
        nparts = 16;
        theta = 0.6;
        mp_ratio = 0.2;
        parts_per_txn = 2;
      }
  in
  let row engine faults =
    let e = E.make ~threads:8 ~txns ~batch_size:1024 ~faults engine spec in
    {
      Report.label = E.engine_name e.E.engine;
      metrics = run_exp e;
    }
  in
  let engines = [ E.Dist_quecc 4; E.Dist_calvin 4 ] in
  let series =
    [
      ("none", List.map (fun e -> row e Quill_faults.Faults.none) engines);
      ( Quill_faults.Faults.to_string plan,
        List.map (fun e -> row e plan) engines );
    ]
  in
  Report.print_sweep
    ~title:
      "Fault tolerance: dist-quecc (queue replay) vs dist-calvin (sequencer \
       replay) under an identical fault plan (4 nodes x 8 cores)"
    ~param:"fault plan" series;
  let recover =
    List.concat_map
      (fun (_, rows) ->
        List.map (fun r -> r.Report.metrics.Quill_txn.Metrics.recover_busy)
          rows)
      series
  in
  check
    (recorded_since checked0
    :: (if own_plan then
          [
            claim
              (List.exists (fun t -> t > 0) recover)
              "fault-tolerance: no recovery time recorded under the crash \
               plan (recover busy ns per row: %s)"
              (String.concat ", " (List.map string_of_int recover));
          ]
        else []))

(* HA replication and leader failover: a single-node dist-quecc leader
   streams its planned queues to two backups that speculatively execute
   behind a bounded commit-marker lag.  Three rows: the unreplicated
   baseline, the replicated fault-free run (the replication tax), and
   the replicated run with the leader killed mid-run (the failover
   bill).  All three must commit the same transactions to the same
   state — replication is visibility-deferred speculation over the same
   deterministic plan, and failover loses nothing the leader ever
   acknowledged.  [json] dumps per-row checksums, failover_ns and the
   fault-free epoch_ns; [plan] overrides the probed mid-run crash.

   Rows run with [~record:false]: replication does not compose with
   the conflict recorder (the backups replay txns outside the planned
   queue attribution), so the suite-wide --check-conflicts flag must not
   attach one here. *)
let failover ?(scale = 1.0) ?json ?plan () =
  let module M = Quill_txn.Metrics in
  let txns = scaled scale 8_192 ~min_v:2048 in
  let size = scaled scale 64_000 ~min_v:8_000 in
  let spec =
    E.Ycsb
      {
        Ycsb.default with
        Ycsb.table_size = size;
        nparts = 2;
        theta = 0.6;
        mp_ratio = 0.2;
      }
  in
  let results = ref [] in
  let row label ~replicas ~faults =
    let e =
      E.make ~threads:4 ~txns ~batch_size:1024 ~faults ~replicas ~spec_lag:2
        (E.Dist_quecc 1) spec
    in
    let m, chk = run_checksummed ~record:false e in
    results := !results @ [ (label, replicas, chk, m) ];
    ({ Report.label; metrics = m }, (label, m, chk))
  in
  let base, (_, mbase, base_chk) =
    row "dist-quecc-1n" ~replicas:0 ~faults:Quill_faults.Faults.none
  in
  let ha, ((_, mha, _) as ha_run) =
    row "+2 replicas" ~replicas:2 ~faults:Quill_faults.Faults.none
  in
  let epoch_ns = mha.M.elapsed / max 1 (E.batches (E.make (E.Dist_quecc 1) spec ~txns ~batch_size:1024)) in
  let own_plan = plan = None in
  let plan =
    match plan with
    | Some p -> p
    | None ->
        (* kill the leader in the middle of the replicated run *)
        {
          Quill_faults.Faults.none with
          Quill_faults.Faults.seed = 7;
          crashes =
            [
              {
                Quill_faults.Faults.node = 0;
                at = mha.M.elapsed / 2;
                down = 1;
              };
            ];
        }
  in
  let crash, ((_, mcrash, _) as crash_run) =
    row "+2 replicas, leader crash" ~replicas:2 ~faults:plan
  in
  Report.print_table
    ~title:
      "HA replication: speculative backups and leader failover \
       (dist-quecc 1 leader + 2 backups, 4 cores, spec-lag 2; committed \
       state identical across all rows)"
    [ base; ha; crash ];
  (match json with
  | None -> ()
  | Some path ->
      J.write path ~experiment:"failover" ~scale
        ~head:[ ("epoch_ns", J.Int epoch_ns) ]
        (List.map
           (fun (label, replicas, chk, m) ->
             [
               ("label", J.Str label); ("replicas", J.Int replicas);
               ("tput", tput m); ("committed", J.Int m.M.committed);
               ("crashes", J.Int m.M.crashes);
               ("failovers", J.Int m.M.failovers);
               ("failover_ns", J.Int m.M.failover_time);
               ("spec_executed", J.Int m.M.spec_executed);
               ("spec_wasted", J.Int m.M.spec_wasted);
               ("rep_lag_max", J.Int m.M.rep_lag_max);
               ("db_checksum", J.Int chk);
             ])
           !results));
  let replicated (label, m, chk) =
    [
      claim (m.M.committed = mbase.M.committed)
        "failover: %s: lost commits (%d vs %d)" label m.M.committed
        mbase.M.committed;
      claim (chk = base_chk)
        "failover: %s: committed state diverges from baseline (checksum %d \
         vs %d)"
        label chk base_chk;
      claim (m.M.spec_executed > 0) "failover: %s: backups never speculated"
        label;
    ]
  in
  check
    (replicated ha_run @ replicated crash_run
    @
    if not own_plan then []
    else
      [
        claim
          (mcrash.M.crashes = 1 && mcrash.M.failovers = 1)
          "failover: leader crash did not trigger a failover (crashes %d, \
           failovers %d)"
          mcrash.M.crashes mcrash.M.failovers;
        claim
          (0 < mcrash.M.failover_time && mcrash.M.failover_time < epoch_ns)
          "failover: failover took %dns, epoch is %dns"
          mcrash.M.failover_time epoch_ns;
      ])

(* Durability: QueCC's planned queues already fix the commit order, so
   durability is one group-commit fsync per batch — the WAL logs each
   batch's row images and hardens them at the batch commit point.  Four
   rows: the no-WAL baseline (what durability costs), the WAL run (the
   overhead must stay small at theta 0), the serial engine with the same
   group-commit log, and the WAL run killed mid-run.  The crashed run
   recovers from the newest snapshot plus the log and must land
   bit-identical to a fault-free run truncated to the same durable
   boundary — that oracle run is re-executed here and the checksums
   compared.  [json] dumps per-row counters plus the oracle comparison.

   Rows run with [~record:false]: the WAL's commit-point index
   probes happen outside planned-queue attribution, so the suite-wide
   --check-conflicts recorder must not attach here (same reason as
   [failover]). *)
let durability ?(scale = 1.0) ?json () =
  let module M = Quill_txn.Metrics in
  let module F = Quill_faults.Faults in
  let txns = scaled scale 8_192 ~min_v:2048 in
  let size = scaled scale 64_000 ~min_v:8_000 in
  let ycfg =
    { Ycsb.default with Ycsb.table_size = size; nparts = 8; theta = 0.0 }
  in
  let spec = E.Ycsb ycfg in
  let threads = 8 and batch_size = 512 in
  let results = ref [] in
  let run_one label engine ~txns ~wal ~faults =
    let e =
      E.make ~name:label ~threads ~txns ~batch_size ~faults ~wal
        ~snapshot_every:8 engine spec
    in
    run_checksummed ~record:false e
  in
  let row label engine ~txns ~wal ~faults =
    let m, chk = run_one label engine ~txns ~wal ~faults in
    results := !results @ [ (label, wal, chk, m) ];
    ({ Report.label; metrics = m }, m, chk)
  in
  let quecc = E.Quecc (Qe.Speculative, Qe.Serializable) in
  let base, mbase, base_chk =
    (* lint: engine-name-ok — report row label, not dispatch *)
    row "quecc" quecc ~txns ~wal:false ~faults:F.none
  in
  let walled, mwal, wal_chk =
    row "quecc --wal" quecc ~txns ~wal:true ~faults:F.none
  in
  let serial_r, _, _ =
    row "serial --wal" E.Serial ~txns ~wal:true ~faults:F.none
  in
  (* kill the WAL run in the middle; recovery happens inside the run *)
  let plan =
    {
      F.none with
      F.seed = 9;
      crashes = [ { F.node = 0; at = mwal.M.elapsed / 2; down = 1 } ];
    }
  in
  let crash_r, mcrash, crash_chk =
    row "quecc --wal, crash" quecc ~txns ~wal:true ~faults:plan
  in
  (* Oracle: a fault-free run over the same streams, truncated to the
     crashed run's durable boundary.  Bit-identity at that boundary is
     the whole durability claim. *)
  let durable_txns = mcrash.M.durable_batches * batch_size in
  let oracle_chk, oracle_committed =
    if durable_txns = 0 then
      (* nothing durable: recovery must yield the pristine loaded db *)
      ( Quill_storage.Db.checksum
          (Ycsb.make ycfg).Quill_txn.Workload.db,
        0 )
    else
      let m, chk =
        run_one "oracle" quecc ~txns:durable_txns ~wal:false ~faults:F.none
      in
      (chk, m.M.committed)
  in
  let state_match =
    crash_chk = oracle_chk && mcrash.M.committed = oracle_committed
  in
  let overhead_pct =
    100.0 *. (1.0 -. (M.throughput mwal /. M.throughput mbase))
  in
  Report.print_table
    ~title:
      "Durability: batch-aligned group-commit WAL (YCSB theta=0, 8 cores; \
       snapshot every 8 batches; crashed run recovers to the last durable \
       batch)"
    [ base; walled; serial_r; crash_r ];
  Printf.printf
    "durability: WAL overhead %.1f%%; crash recovered %d batches \
     (%d txns), state %s the truncated fault-free run\n"
    overhead_pct mcrash.M.durable_batches mcrash.M.committed
    (if state_match then "matches" else "DIVERGES FROM");
  (match json with
  | None -> ()
  | Some path ->
      let crash =
        [
          ("durable_batches", J.Int mcrash.M.durable_batches);
          ("durable_txns", J.Int durable_txns);
          ("recovered_committed", J.Int mcrash.M.committed);
          ("oracle_committed", J.Int oracle_committed);
          ("recovered_checksum", J.Int crash_chk);
          ("oracle_checksum", J.Int oracle_chk);
          ("state_match", J.Bool state_match);
          ("recovery_ns", J.Int mcrash.M.recovery_time);
        ]
      in
      J.write path ~experiment:"durability" ~scale
        ~head:
          [ ("overhead_pct", J.Fixed (2, overhead_pct)); ("crash", J.Obj crash) ]
        (List.map
           (fun (label, wal, chk, m) ->
             [
               ("label", J.Str label); ("wal", J.Bool wal); ("tput", tput m);
               ("committed", J.Int m.M.committed);
               ("durable_batches", J.Int m.M.durable_batches);
               ("wal_bytes", J.Int m.M.wal_bytes);
               ("fsyncs", J.Int m.M.wal_fsyncs);
               ("fsync_fails", J.Int m.M.wal_fsync_fails);
               ("snapshots", J.Int m.M.snapshots);
               ("truncations", J.Int m.M.wal_truncations);
               ("torn", J.Int m.M.torn_records);
               ("crashes", J.Int m.M.crashes);
               ("recovery_ns", J.Int m.M.recovery_time);
               ("db_checksum", J.Int chk);
             ])
           !results));
  check
    [
      claim
        (mcrash.M.crashes = 1 && mcrash.M.recovery_time > 0)
        "durability: mid-run kill did not crash and recover (crashes %d, \
         recovery %dns)"
        mcrash.M.crashes mcrash.M.recovery_time;
      claim (mcrash.M.durable_batches > 0)
        "durability: nothing durable at the crash point (%d batches)"
        mcrash.M.durable_batches;
      claim state_match
        "durability: recovered state diverges from the durable-boundary \
         oracle (checksum %d vs %d)"
        crash_chk oracle_chk;
      claim
        (mcrash.M.committed = oracle_committed)
        "durability: lost or double commits (%d recovered vs %d in the \
         oracle)"
        mcrash.M.committed oracle_committed;
      claim
        (mwal.M.committed = mbase.M.committed && wal_chk = base_chk)
        "durability: WAL changed the committed state (%d commits, checksum \
         %d; baseline %d, %d)"
        mwal.M.committed wal_chk mbase.M.committed base_chk;
      claim
        (mwal.M.durable_batches * batch_size >= mwal.M.committed
        && mwal.M.wal_fsyncs = mwal.M.durable_batches)
        "durability: group commit did not harden every batch (%d durable \
         batches x %d < %d commits, or %d fsyncs)"
        mwal.M.durable_batches batch_size mwal.M.committed mwal.M.wal_fsyncs;
      claim (overhead_pct <= 15.0)
        "durability: WAL overhead %.2f%% exceeds the 15%% budget" overhead_pct;
    ]

(* CDC: QueCC's planning phase fixes the commit order before execution
   starts, so the change stream is a pure function of the input batches
   — the CDC feed must come out byte-identical across lockstep,
   pipelined and split-queue runs of the same seed, and the
   subscription hub must cost little at the commit point.  Rows: the
   no-CDC quecc baseline, quecc --cdc (replica subscription), quecc
   --cdc --views (replica + verified materialized view), the two
   alternate quecc schedules with --cdc, and serial --cdc (group-commit
   feed; its batch boundaries differ, so its digest is reported but not
   compared).  The view must equal a full recompute at every caught-up
   point (View verifies internally and the run fails on divergence).
   [json] dumps digests + counters. *)
let cdc ?(scale = 1.0) ?json () =
  let module M = Quill_txn.Metrics in
  let module Cdc = Quill_cdc.Cdc in
  let txns = scaled scale 8_192 ~min_v:2048 in
  let size = scaled scale 64_000 ~min_v:8_000 in
  let spec =
    E.Ycsb
      { Ycsb.default with Ycsb.table_size = size; nparts = 8; theta = 0.6 }
  in
  let threads = 8 and batch_size = 512 in
  let results = ref [] in
  let row label engine ~cdc ~views ?(pipeline = false) ?split () =
    let e =
      E.make ~name:label ~threads ~txns ~batch_size ~cdc ~views ~pipeline
        ?split engine spec
    in
    let feed = ref None in
    let m =
      E.run ~tracer:!tracer
        ~on_cdc:(fun h ->
          feed := Some (Cdc.digest h, Cdc.feed_bytes h, Cdc.events h))
        e
    in
    results := !results @ [ (label, cdc, !feed, m) ];
    ({ Report.label; metrics = m }, m, !feed)
  in
  let quecc = E.Quecc (Qe.Speculative, Qe.Serializable) in
  let base, mbase, _ =
    (* lint: engine-name-ok — report row label, not dispatch *)
    row "quecc" quecc ~cdc:false ~views:false ()
  in
  let cdc_r, mcdc, feed0 = row "quecc --cdc" quecc ~cdc:true ~views:false () in
  let views_r, mviews, feed_v =
    row "quecc --cdc --views" quecc ~cdc:true ~views:true ()
  in
  let pipe_r, _, feed_p =
    row "pipelined --cdc" quecc ~cdc:true ~views:false ~pipeline:true ()
  in
  let split_r, _, feed_sp =
    row "split --cdc" quecc ~cdc:true ~views:false ~split:16 ()
  in
  let serial_r, _, _ = row "serial --cdc" E.Serial ~cdc:true ~views:false () in
  let digest = function Some (d, _, _) -> d | None -> 0 in
  let deterministic =
    List.for_all
      (fun f -> digest f = digest feed0 && digest feed0 <> 0)
      [ feed_v; feed_p; feed_sp ]
  in
  let view_ok = mviews.M.view_refreshes > 0 in
  let overhead_pct =
    100.0 *. (1.0 -. (M.throughput mcdc /. M.throughput mbase))
  in
  Report.print_table
    ~title:
      "CDC: ordered commit-stream subscriptions (YCSB theta=0.6, 8 cores; \
       replica at staleness 4; view verified against recompute)"
    [ base; cdc_r; views_r; pipe_r; split_r; serial_r ];
  Printf.printf
    "cdc: feed %s across lockstep/pipelined/split (digest %08x); \
     view=recompute %s; overhead %.1f%%\n"
    (if deterministic then "byte-identical" else "DIVERGES")
    (digest feed0)
    (if view_ok then "held" else "NOT EXERCISED")
    overhead_pct;
  (match json with
  | None -> ()
  | Some path ->
      J.write path ~experiment:"cdc" ~scale
        ~head:
          [
            ("overhead_pct", J.Fixed (2, overhead_pct));
            ("deterministic", J.Bool deterministic);
            ("view_ok", J.Bool view_ok);
          ]
        (List.map
           (fun (label, _, feed, m) ->
             let d, bytes, events =
               Option.value feed ~default:(0, 0, 0)
             in
             [
               ("label", J.Str label); ("tput", tput m);
               ("committed", J.Int m.M.committed); ("digest", J.Int d);
               ("feed_bytes", J.Int bytes); ("events", J.Int events);
               ("batches", J.Int m.M.cdc_batches);
               ("subs", J.Int m.M.cdc_subs);
               ("lag_max", J.Int m.M.cdc_lag_max);
               ("catchup", J.Int m.M.cdc_catchup);
               ("view_refreshes", J.Int m.M.view_refreshes);
             ])
           !results));
  let family =
    [
      ("quecc --cdc", feed0); ("quecc --cdc --views", feed_v);
      ("pipelined --cdc", feed_p); ("split --cdc", feed_sp);
    ]
  in
  let fed (label, cdc, feed, m) =
    let _, _, events = Option.value feed ~default:(0, 0, 0) in
    if not cdc then []
    else
      [
        claim
          (events > 0 && m.M.cdc_batches > 0)
          "cdc: feed never flowed on %s (%d events, %d batches)" label events
          m.M.cdc_batches;
        claim (m.M.cdc_lag_max <= 4)
          "cdc: %s: replica staleness %d exceeds the bound 4" label
          m.M.cdc_lag_max;
      ]
  in
  check
    (claim
       (List.exists (fun (_, cdc, _, _) -> cdc) !results)
       "cdc: no --cdc rows"
    :: claim deterministic "cdc: feed digests diverge across quecc schedules"
    :: claim
         (List.for_all (fun (_, f) -> f = feed0) family)
         "cdc: quecc-family feeds diverge: %s"
         (String.concat ", "
            (List.map
               (fun (l, f) -> Printf.sprintf "%s %x" l (digest f))
               family))
    :: claim view_ok "cdc: materialized view never refreshed/verified"
    :: claim (overhead_pct <= 10.0)
         "cdc: CDC overhead %.2f%% exceeds the 10%% budget" overhead_pct
    :: List.concat_map fed !results)

(* ------------------------------------------------------------------ *)

module C = Quill_clients.Clients

(* The overload sweep: open-loop clients offer 0.25x..4x of each
   engine's own closed-loop saturation throughput and the table
   contrasts plateau (admission control sheds / deadlines drop the
   excess, goodput holds) with collapse (Block bounds the queue but
   stalls the offered stream).  Anchoring the multipliers on a
   per-engine closed-loop probe keeps "2x saturation" meaningful for
   engines an order of magnitude apart in peak throughput.

   [arrival] pins an absolute arrival process for every row instead of
   the multiplier sweep; [admission] collapses the per-policy QueCC
   variants to a single policy for every engine; [deadline] / [retries]
   override the deadline-row budget and the retry policy. *)
let overload ?(scale = 1.0) ?arrival ?admission ?deadline ?retries () =
  let txns = scaled scale 8_192 ~min_v:2048 in
  let size = scaled scale 64_000 ~min_v:8_000 in
  let spec =
    E.Ycsb { Ycsb.default with Ycsb.table_size = size; nparts = 8; theta = 0.6 }
  in
  let threads = 8 and batch_size = 512 in
  let engines =
    [ E.Quecc (Qe.Speculative, Qe.Serializable); E.Calvin; E.Twopl_nowait ]
  in
  let probe =
    List.map
      (fun eng ->
        let e = E.make ~threads ~txns ~batch_size eng spec in
        (eng, run_exp e))
      engines
  in
  let sat eng =
    Float.max 1.0 (Quill_txn.Metrics.throughput (List.assoc eng probe))
  in
  (* Deadline budget: the closed-loop QueCC p99 — the SLO a capacity
     plan would set from the engine's profile at saturation.  Roomy
     below saturation, but shorter than the residency of a full
     admission queue, so overload shows up as deadline misses rather
     than silently-late commits. *)
  let dl =
    match deadline with
    | Some d -> d
    | None ->
        let quecc_m = List.assoc (List.hd engines) probe in
        max 200_000
          (Quill_common.Stats.Hist.percentile quecc_m.Quill_txn.Metrics.lat 99.0)
  in
  let max_retries, backoff =
    match retries with Some r -> r | None -> (3, 2_000)
  in
  let depth = match admission with Some (_, d) -> d | None -> 1024 in
  let variants =
    match admission with
    | Some (policy, _) -> List.map (fun eng -> (eng, policy)) engines
    | None ->
        [
          (List.nth engines 0, C.Shed_oldest);
          (List.nth engines 0, C.Deadline);
          (List.nth engines 0, C.Block);
          (List.nth engines 1, C.Shed_oldest);
          (List.nth engines 2, C.Shed_oldest);
        ]
  in
  let row ~mult (eng, policy) =
    let arrival =
      match arrival with
      | Some a -> a
      | None -> C.Poisson (mult *. sat eng)
    in
    let ccfg =
      {
        C.default with
        C.arrival;
        depth;
        policy;
        deadline = (if policy = C.Deadline then dl else 0);
        max_retries;
        backoff;
      }
    in
    let label =
      Printf.sprintf "%s+%s" (E.engine_name eng) (C.policy_name policy)
    in
    let e =
      E.make ~name:label ~threads ~txns ~batch_size ~clients:ccfg eng spec
    in
    { Report.label; metrics = run_exp e }
  in
  let series =
    match arrival with
    | Some a ->
        [ (C.arrival_to_string a, List.map (row ~mult:1.0) variants) ]
    | None ->
        List.map
          (fun mult ->
            (Printf.sprintf "%.2fx" mult, List.map (row ~mult) variants))
          [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
  in
  Report.print_sweep
    ~title:
      "Overload: open-loop clients at a multiple of each engine's saturation \
       throughput (YCSB theta=0.6, 8 cores)"
    ~param:"offered load" series;
  let module M = Quill_txn.Metrics in
  let rows =
    List.concat_map
      (fun (load, rows) ->
        List.map (fun r -> (r.Report.label ^ " at " ^ load, r.metrics)) rows)
      series
  in
  let own_sweep =
    arrival = None && admission = None && deadline = None && retries = None
  in
  let served (label, m) =
    [
      claim (M.throughput m > 0.0) "overload: %s: zero goodput" label;
      claim
        (Quill_common.Stats.Hist.count m.M.client_lat > 0)
        "overload: %s: no client latency samples (p99 not rendered)" label;
    ]
  in
  check
    ((if own_sweep then
        [
          claim
            (List.exists (fun (_, m) -> m.M.shed > 0) rows)
            "overload: no transactions shed anywhere in the sweep";
        ]
      else [])
    @ List.concat_map served rows)

let all ?(scale = 1.0) () =
  table2_row1 ~scale ();
  table2_row2 ~scale ();
  table2_row3 ~scale ();
  fig_contention ~scale ();
  fig_scalability ~scale ();
  fig_modes ~scale ();
  fig_latency ~scale ();
  fig_batch ~scale ();
  pipeline ~scale ();
  skew ~scale ();
  fault_tolerance ~scale ();
  failover ~scale ();
  durability ~scale ();
  cdc ~scale ();
  overload ~scale ()
