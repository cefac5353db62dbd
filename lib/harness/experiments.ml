open Quill_workloads
module E = Experiment
module M = Quill_txn.Metrics
module F = Quill_faults.Faults
module Qe = Quill_quecc.Engine

let scaled scale n ~min_v = max min_v (int_of_float (float_of_int n *. scale))

(* A YCSB spec of [size] rows; the settings not named keep
   [Ycsb.default]'s. *)
let ycsb ?(nparts = 8) ?(theta = 0.0) ?(mp = 0.0) ?(parts = 2)
    ?(global_zipf = false) size =
  E.Ycsb
    {
      Ycsb.default with
      Ycsb.table_size = size;
      nparts;
      theta;
      mp_ratio = mp;
      parts_per_txn = parts;
      global_zipf;
    }

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

(* The QueCC family records (a replicated dist-quecc run records its
   leader's executors; backups and a post-failover leader replay through
   [Direct] unrecorded). *)
let records_conflicts (e : E.t) =
  match e.E.engine with
  | E.Quecc _ | E.Dist_quecc _ -> true
  | E.Serial | E.Twopl_nowait | E.Twopl_waitdie | E.Silo | E.Tictoc
  | E.Mvto | E.Hstore | E.Calvin | E.Dist_calvin _ ->
      false

(* ------------------------------------------------------------------ *)
(* Rows and results                                                    *)
(* ------------------------------------------------------------------ *)

type row = {
  label : string;
  sweep : string option;
  exp : E.t;
  metrics : M.t;
  checksum : int;
  digest : int option;
}

type table = { title : string; param : string option; rows : row list }

type t = {
  tables : table list;
  notes : string list;
  summary : (string * Bench_json.value) list;
  claims : (bool * string) list;
}

(* Runs [e] as the row [label] (default: the experiment's name) of the
   table value [sweep], keeping the checksum of the committed database
   it left and, on a CDC run, the feed digest. *)
let run ?sweep ?label e =
  let db = ref None and digest = ref None in
  let on_workload wl = db := Some wl.Quill_txn.Workload.db
  and on_cdc hub = digest := Some (Quill_cdc.Cdc.digest hub) in
  let metrics =
    if not (!check_conflicts && records_conflicts e) then
      E.run ~tracer:!tracer ~on_workload ~on_cdc e
    else begin
      let module CC = Quill_analysis.Conflict_check in
      let log = Quill_analysis.Access_log.create () in
      let m = E.run ~tracer:!tracer ~recorder:log ~on_workload ~on_cdc e in
      let r = CC.check_log log in
      Format.printf "[conflict-check] %s: %a@." e.E.name CC.pp_report r;
      incr conflict_checked;
      check
        [
          claim (CC.ok r) "conflict-check: %d planned-order violations in %s"
            (List.length r.CC.violations) e.E.name;
          claim (r.CC.r_rows > 0)
            "conflict-check: 0 row accesses recorded in %s" e.E.name;
        ];
      m
    end
  in
  {
    label = Option.value label ~default:e.E.name;
    sweep;
    exp = e;
    metrics;
    checksum = Option.fold ~none:0 ~some:Quill_storage.Db.checksum !db;
    digest = !digest;
  }

let find ?sweep label rows =
  List.find (fun r -> r.label = label && r.sweep = sweep) rows

let tput r = M.throughput r.metrics
let table ?param title rows = { title; param; rows }

let result ?(notes = []) ?(summary = []) ?(claims = []) tables =
  { tables; notes; summary; claims }

(* The table's rows per sweep value, in order. *)
let series rows =
  List.fold_right
    (fun r acc ->
      match acc with
      | (v, rs) :: rest when v = r.sweep -> (v, r :: rs) :: rest
      | _ -> (r.sweep, [ r ]) :: acc)
    rows []

let print ~phase_table t =
  let report r = { Report.label = r.label; metrics = r.metrics } in
  List.iter
    (fun { title; param; rows } ->
      match param with
      | None -> Report.print_table ~phase_table ~title (List.map report rows)
      | Some param ->
          Report.print_sweep ~phase_table ~title ~param
            (List.map
               (fun (v, rs) -> (Option.value v ~default:"", List.map report rs))
               (series rows)))
    t.tables;
  List.iter print_endline t.notes

(* A swept table: the rows [rows ~sweep v] for each value [v], [sweep]
   being [v] as the table prints it. *)
let sweep ~param ~show title values rows =
  table ~param title
    (List.concat_map (fun v -> rows ~sweep:(show v) v) values)

let pct f = Printf.sprintf "%.0f%%" (f *. 100.0)
let quecc = E.Quecc (Qe.Speculative, Qe.Serializable)

(* ------------------------------------------------------------------ *)

let table2_row1 ?(scale = 1.0) () =
  let txns = scaled scale 12_288 ~min_v:2048 in
  let size = scaled scale 200_000 ~min_v:20_000 in
  result
    [
      sweep ~param:"multi-partition txns" ~show:pct
        "Table 2 row 1: QueCC vs H-Store, YCSB multi-partition (4 parts/txn, \
         8 cores)"
        [ 0.0; 0.01; 0.05; 0.1; 0.2; 0.5; 1.0 ]
        (fun ~sweep mp ->
          List.map
            (fun engine ->
              run ~sweep
                (E.make ~threads:8 ~txns ~batch_size:2048 engine
                   (ycsb ~mp ~parts:4 size)))
            [ quecc; E.Hstore ]);
    ]

let table2_row2 ?(scale = 1.0) () =
  let txns = scaled scale 20_480 ~min_v:4096 in
  let size = scaled scale 320_000 ~min_v:32_000 in
  result
    [
      sweep ~param:"multi-node txns" ~show:pct
        "Table 2 row 2: distributed QueCC vs Calvin, YCSB uniform (4 nodes x \
         16 cores)"
        [ 0.0; 0.2 ]
        (fun ~sweep mp ->
          (* 16 virtual cores per node: 8 planners + 8 executors. *)
          List.map
            (fun (engine, nparts) ->
              run ~sweep
                (E.make ~threads:16 ~txns ~batch_size:4096 engine
                   (ycsb ~nparts ~mp size)))
            [ (E.Dist_quecc 4, 32); (E.Dist_calvin 4, 16) ]);
    ]

let table2_row3 ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  result
    [
      sweep ~param:"warehouses" ~show:string_of_int
        "Table 2 row 3: QueCC vs non-deterministic protocols, TPC-C \
         NewOrder/Payment (8 cores)"
        [ 1; 4 ]
        (fun ~sweep w ->
          let spec =
            E.Tpcc
              (Tpcc.payment_mix
                 { Tpcc.default with Tpcc_defs.warehouses = w; nparts = 8 })
          in
          List.map
            (fun e ->
              run ~sweep (E.make ~threads:8 ~txns ~batch_size:1024 e spec))
            [
              E.Quecc (Qe.Conservative, Qe.Serializable); quecc; E.Twopl_nowait;
              E.Twopl_waitdie; E.Silo; E.Tictoc; E.Mvto;
            ]);
    ]

(* ------------------------------------------------------------------ *)

let fig_contention ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  result
    [
      sweep ~param:"theta" ~show:(Printf.sprintf "%.2f")
        "Contention sweep: YCSB zipfian theta (8 cores)"
        [ 0.0; 0.6; 0.9; 0.99 ]
        (fun ~sweep theta ->
          List.map
            (fun e ->
              run ~sweep
                (E.make ~threads:8 ~txns ~batch_size:2048 e (ycsb ~theta size)))
            E.all_centralized);
    ]

let fig_scalability ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  result
    [
      sweep ~param:"cores" ~show:string_of_int "Scalability: YCSB theta=0.9"
        [ 1; 2; 4; 8; 16; 32 ]
        (fun ~sweep threads ->
          List.map
            (fun e ->
              run ~sweep
                (E.make ~threads ~txns ~batch_size:2048 e
                   (ycsb ~nparts:threads ~theta:0.9 size)))
            [ quecc; E.Silo; E.Twopl_nowait; E.Calvin ]);
    ]

let fig_modes ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  result
    [
      sweep ~param:"abortable txns" ~show:pct
        "Execution modes & isolation ablation (paper section 3.2): YCSB with \
         abortable fragments"
        [ 0.0; 0.02; 0.1 ]
        (fun ~sweep abort_ratio ->
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
          List.map
            (fun (label, mode, iso) ->
              run ~sweep ~label
                (E.make ~threads:8 ~txns ~batch_size:2048
                   (E.Quecc (mode, iso)) spec))
            [
              ("speculative/serializable", Qe.Speculative, Qe.Serializable);
              ("conservative/serializable", Qe.Conservative, Qe.Serializable);
              ("speculative/read-committed", Qe.Speculative, Qe.Read_committed);
              ( "conservative/read-committed",
                Qe.Conservative,
                Qe.Read_committed );
            ]);
    ]

let fig_latency ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:2048 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  result
    [
      table "Latency distribution: YCSB theta=0.9 (batching vs per-txn)"
        (List.map
           (fun e ->
             run
               (E.make ~threads:8 ~txns ~batch_size:2048 e
                  (ycsb ~theta:0.9 size)))
           [ quecc; E.Calvin; E.Silo; E.Twopl_nowait ]);
    ]

let fig_batch ?(scale = 1.0) () =
  let txns = scaled scale 32_768 ~min_v:8192 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  result
    [
      table
        "Batch-size sensitivity: larger batches amortize planning but pay \
         latency (YCSB theta=0.9, 8 cores)"
        (List.map
           (fun batch_size ->
             run
               (E.make
                  ~name:(Printf.sprintf "quecc-batch-%d" batch_size)
                  ~threads:8 ~txns ~batch_size quecc (ycsb ~theta:0.9 size)))
           [ 128; 512; 2048; 8192 ]);
    ]

(* Pipelined batch execution.  Each theta runs QueCC with the pipeline
   off and on on the same workload spec, so the off row is the oracle
   both for state (bit-identical per seed, covered by the test suite)
   and for the speedup the sweep table shows.  The distributed engines
   get the lag-1 variant at low contention. *)
let pipeline ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:4096 in
  let size = scaled scale 200_000 ~min_v:20_000 in
  let checked0 = !conflict_checked in
  (* A lockstep row and its pipelined twin, [label] and [label+pipe]. *)
  let pair ?sweep label engine ~batch_size spec =
    let row pipeline label =
      run ?sweep ~label
        (E.make ~threads:8 ~txns ~batch_size ~pipeline engine spec)
    in
    [ row false label; row true (label ^ "+pipe") ]
  in
  let by_theta =
    sweep ~param:"contention" ~show:(Printf.sprintf "theta=%.2f")
      "Pipelined batches: planning of batch N+1 overlapped with execution \
       of batch N (YCSB; lockstep on 8 cores, pipelined on 16: 8 planners \
       + 8 executors; committed state identical per seed)"
      [ 0.0; 0.6; 0.9 ]
      (fun ~sweep theta ->
        (* lint: engine-name-ok — report row label, not dispatch *)
        pair ~sweep "quecc" quecc ~batch_size:1024 (ycsb ~theta size))
  in
  let dist =
    table
      "Distributed lag-1 pipelining: plan/sequence batch N+1 during batch \
       N (YCSB theta=0, 20% multi-node, 4 nodes)"
      (List.concat_map
         (fun (label, engine) ->
           pair label engine ~batch_size:2048 (ycsb ~nparts:16 ~mp:0.2 size))
         (* lint: engine-name-ok — report row labels, not dispatch *)
         [ ("dist-quecc", E.Dist_quecc 4); ("dist-calvin", E.Dist_calvin 4) ])
  in
  let rows = by_theta.rows @ dist.rows in
  let piped = List.filter (fun r -> r.exp.E.pipeline) rows in
  let theta r =
    match r.exp.E.workload with E.Ycsb c -> c.Ycsb.theta | E.Tpcc _ -> 0.0
  in
  (* A pipelined row against its lockstep twin: the same experiment,
     unpipelined. *)
  let pair_claims p =
    let name = E.engine_name p.exp.E.engine and theta = theta p in
    let lockstep = { p.exp with E.pipeline = false } in
    let b = List.find (fun b -> b.exp = lockstep) rows in
    [
      claim (p.metrics.M.committed = b.metrics.M.committed)
        "pipeline: %s theta=%.2f: commits diverge (%d vs %d)" name theta
        p.metrics.M.committed b.metrics.M.committed;
      claim (tput p >= tput b)
        "pipeline: %s theta=%.2f: pipelined tput %.1f on %d virtual cores < \
         lockstep %.1f on %d"
        name theta (tput p) p.metrics.M.threads (tput b) b.metrics.M.threads;
    ]
  in
  let at0 label = find ~sweep:"theta=0.00" label by_theta.rows in
  (* lint: engine-name-ok — report row label, not dispatch *)
  let speedup = tput (at0 "quecc+pipe") /. tput (at0 "quecc") in
  result [ by_theta; dist ]
    ~claims:
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
   it bit-for-bit. *)
let skew ?(scale = 1.0) () =
  let txns = scaled scale 16_384 ~min_v:4096 in
  let size = scaled scale 100_000 ~min_v:10_000 in
  let thetas = [ 0.0; 0.6; 0.9 ] in
  let show = Printf.sprintf "theta=%.2f" in
  let by_theta =
    sweep ~param:"contention" ~show
      "Adaptive planning under skew: hot-key queue splitting and dynamic \
       repartitioning vs the static planner (YCSB global-zipf, 8 cores, \
       committed state identical per seed)"
      thetas
      (fun ~sweep theta ->
        List.map
          (fun (label, split, adapt_repart) ->
            run ~sweep ~label
              (E.make ~threads:8 ~txns ~batch_size:1024 ?split ~adapt_repart
                 quecc (ycsb ~theta ~global_zipf:true size)))
          [
            (* lint: engine-name-ok — report row label, not dispatch *)
            ("quecc", None, false);
            ("quecc+split", Some 32, false);
            ("quecc+split+repart", Some 32, true);
          ])
  in
  let rows = by_theta.rows in
  let hot = (find ~sweep:(show 0.9) "quecc+split+repart" rows).metrics in
  (* lint: engine-name-ok — report row label, not dispatch *)
  let ratio = M.throughput hot /. tput (find ~sweep:(show 0.0) "quecc" rows) in
  let same theta =
    let group = List.filter (fun r -> r.sweep = Some (show theta)) rows in
    let values f = List.map (fun r -> string_of_int (f r)) group in
    let one f = List.length (List.sort_uniq compare (values f)) = 1 in
    let chk r = r.checksum and committed r = r.metrics.M.committed in
    [
      claim (one chk)
        "skew: theta=%.2f: adaptive rows diverge from plain (checksums %s)"
        theta (String.concat ", " (values chk));
      claim (one committed) "skew: theta=%.2f: commit counts diverge (%s)" theta
        (String.concat ", " (values committed));
    ]
  in
  result [ by_theta ]
    ~claims:
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
    F.parse
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
  let spec = ycsb ~nparts:16 ~theta:0.6 ~mp:0.2 size in
  let by_plan =
    sweep ~param:"fault plan" ~show:fst
      "Fault tolerance: dist-quecc (queue replay) vs dist-calvin (sequencer \
       replay) under an identical fault plan (4 nodes x 8 cores)"
      [ ("none", F.none); (F.to_string plan, plan) ]
      (fun ~sweep (_, faults) ->
        List.map
          (fun engine ->
            run ~sweep
              (E.make ~threads:8 ~txns ~batch_size:1024 ~faults engine spec))
          [ E.Dist_quecc 4; E.Dist_calvin 4 ])
  in
  let recover = List.map (fun r -> r.metrics.M.recover_busy) by_plan.rows in
  result [ by_plan ]
    ~claims:
      (recorded_since checked0
      ::
      (if own_plan then
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
   acknowledged.  The summary holds the fault-free epoch_ns; [plan]
   overrides the probed mid-run crash. *)
let failover ?(scale = 1.0) ?plan () =
  let checked0 = !conflict_checked in
  let txns = scaled scale 8_192 ~min_v:2048 in
  let size = scaled scale 64_000 ~min_v:8_000 in
  let spec = ycsb ~nparts:2 ~theta:0.6 ~mp:0.2 size in
  let row label ~replicas ~faults =
    run ~label
      (E.make ~threads:4 ~txns ~batch_size:1024 ~faults ~replicas ~spec_lag:2
         (E.Dist_quecc 1) spec)
  in
  let base = row "dist-quecc-1n" ~replicas:0 ~faults:F.none in
  let ha = row "+2 replicas" ~replicas:2 ~faults:F.none in
  let epoch_ns = ha.metrics.M.elapsed / max 1 (E.batches ha.exp) in
  let own_plan = plan = None in
  let plan =
    match plan with
    | Some p -> p
    | None ->
        (* kill the leader in the middle of the replicated run *)
        F.
          {
            none with
            seed = 7;
            crashes = [ { node = 0; at = ha.metrics.M.elapsed / 2; down = 1 } ];
          }
  in
  let crash = row "+2 replicas, leader crash" ~replicas:2 ~faults:plan in
  let mbase = base.metrics and mcrash = crash.metrics in
  let replicated r =
    let m = r.metrics in
    [
      claim (m.M.committed = mbase.M.committed)
        "failover: %s: lost commits (%d vs %d)" r.label m.M.committed
        mbase.M.committed;
      claim (r.checksum = base.checksum)
        "failover: %s: committed state diverges from baseline (checksum %d \
         vs %d)"
        r.label r.checksum base.checksum;
      claim (m.M.spec_executed > 0) "failover: %s: backups never speculated"
        r.label;
    ]
  in
  result
    [
      table
        "HA replication: speculative backups and leader failover \
         (dist-quecc 1 leader + 2 backups, 4 cores, spec-lag 2; committed \
         state identical across all rows)"
        [ base; ha; crash ];
    ]
    ~summary:[ ("epoch_ns", Bench_json.Int epoch_ns) ]
    ~claims:
      (claim
         ((not !check_conflicts) || !conflict_checked - checked0 = 3)
         "conflict-check: %d of 3 failover rows recorded"
         (!conflict_checked - checked0)
      :: replicated ha @ replicated crash
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
   compared (the summary's crash object). *)
let durability ?(scale = 1.0) () =
  let checked0 = !conflict_checked in
  let txns = scaled scale 8_192 ~min_v:2048 in
  let size = scaled scale 64_000 ~min_v:8_000 in
  let ycfg =
    { Ycsb.default with Ycsb.table_size = size; nparts = 8; theta = 0.0 }
  in
  let threads = 8 and batch_size = 512 in
  let row label engine ~txns ~wal ~faults =
    run
      (E.make ~name:label ~threads ~txns ~batch_size ~faults ~wal
         ~snapshot_every:8 engine (E.Ycsb ycfg))
  in
  (* lint: engine-name-ok — report row label, not dispatch *)
  let base = row "quecc" quecc ~txns ~wal:false ~faults:F.none in
  let walled = row "quecc --wal" quecc ~txns ~wal:true ~faults:F.none in
  let serial = row "serial --wal" E.Serial ~txns ~wal:true ~faults:F.none in
  let mbase = base.metrics and mwal = walled.metrics in
  (* kill the WAL run in the middle; recovery happens inside the run *)
  let plan =
    {
      F.none with
      F.seed = 9;
      crashes = [ { F.node = 0; at = mwal.M.elapsed / 2; down = 1 } ];
    }
  in
  let crash = row "quecc --wal, crash" quecc ~txns ~wal:true ~faults:plan in
  let mcrash = crash.metrics in
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
      let o = row "oracle" quecc ~txns:durable_txns ~wal:false ~faults:F.none in
      (o.checksum, o.metrics.M.committed)
  in
  let state_match =
    crash.checksum = oracle_chk && mcrash.M.committed = oracle_committed
  in
  let overhead_pct = 100.0 *. (1.0 -. (tput walled /. tput base)) in
  let crash_summary =
    Bench_json.
      [
        ("durable_batches", Int mcrash.M.durable_batches);
        ("durable_txns", Int durable_txns);
        ("recovered_committed", Int mcrash.M.committed);
        ("oracle_committed", Int oracle_committed);
        ("recovered_checksum", Int crash.checksum);
        ("oracle_checksum", Int oracle_chk);
        ("state_match", Bool state_match);
        ("recovery_ns", Int mcrash.M.recovery_time);
      ]
  in
  result
    [
      table
        "Durability: batch-aligned group-commit WAL (YCSB theta=0, 8 cores; \
         snapshot every 8 batches; crashed run recovers to the last durable \
         batch)"
        [ base; walled; serial; crash ];
    ]
    ~notes:
      [
        Printf.sprintf
          "durability: WAL overhead %.1f%%; crash recovered %d batches (%d \
           txns), state %s the truncated fault-free run"
          overhead_pct mcrash.M.durable_batches mcrash.M.committed
          (if state_match then "matches" else "DIVERGES FROM");
      ]
    ~summary:
      Bench_json.
        [
          ("overhead_pct", Fixed (2, overhead_pct));
          ("crash", Obj crash_summary);
        ]
    ~claims:
      [
        recorded_since checked0;
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
          crash.checksum oracle_chk;
        claim
          (mcrash.M.committed = oracle_committed)
          "durability: lost or double commits (%d recovered vs %d in the \
           oracle)"
          mcrash.M.committed oracle_committed;
        claim
          (mwal.M.committed = mbase.M.committed
          && walled.checksum = base.checksum)
          "durability: WAL changed the committed state (%d commits, checksum \
           %d; baseline %d, %d)"
          mwal.M.committed walled.checksum mbase.M.committed base.checksum;
        claim
          (mwal.M.durable_batches * batch_size >= mwal.M.committed
          && mwal.M.wal_fsyncs = mwal.M.durable_batches)
          "durability: group commit did not harden every batch (%d durable \
           batches x %d < %d commits, or %d fsyncs)"
          mwal.M.durable_batches batch_size mwal.M.committed mwal.M.wal_fsyncs;
        claim (overhead_pct <= 15.0)
          "durability: WAL overhead %.2f%% exceeds the 15%% budget"
          overhead_pct;
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
   point (View verifies internally and the run fails on divergence). *)
let cdc ?(scale = 1.0) () =
  let checked0 = !conflict_checked in
  let txns = scaled scale 8_192 ~min_v:2048 in
  let size = scaled scale 64_000 ~min_v:8_000 in
  let spec = ycsb ~theta:0.6 size in
  let threads = 8 and batch_size = 512 in
  let row label engine ~cdc ~views ?(pipeline = false) ?split () =
    run
      (E.make ~name:label ~threads ~txns ~batch_size ~cdc ~views ~pipeline
         ?split engine spec)
  in
  (* lint: engine-name-ok — report row label, not dispatch *)
  let base = row "quecc" quecc ~cdc:false ~views:false () in
  let fed = row "quecc --cdc" quecc ~cdc:true ~views:false () in
  let views = row "quecc --cdc --views" quecc ~cdc:true ~views:true () in
  let piped =
    row "pipelined --cdc" quecc ~cdc:true ~views:false ~pipeline:true ()
  in
  let split = row "split --cdc" quecc ~cdc:true ~views:false ~split:2 () in
  let serial = row "serial --cdc" E.Serial ~cdc:true ~views:false () in
  let rows = [ base; fed; views; piped; split; serial ] in
  let msplit = split.metrics in
  let digest r = Option.value r.digest ~default:0 in
  let feed r = (r.digest, r.metrics.M.cdc_bytes, r.metrics.M.cdc_events) in
  let family = [ fed; views; piped; split ] in
  let deterministic =
    List.for_all
      (fun r -> digest r = digest fed && digest fed <> 0)
      [ views; piped; split ]
  in
  let view_ok = views.metrics.M.view_refreshes > 0 in
  let overhead_pct = 100.0 *. (1.0 -. (tput fed /. tput base)) in
  let flowing r =
    let m = r.metrics in
    if not r.exp.E.cdc then []
    else
      [
        claim
          (m.M.cdc_events > 0 && m.M.cdc_batches > 0)
          "cdc: feed never flowed on %s (%d events, %d batches)" r.label
          m.M.cdc_events m.M.cdc_batches;
        claim (m.M.cdc_lag_max <= 4)
          "cdc: %s: replica staleness %d exceeds the bound 4" r.label
          m.M.cdc_lag_max;
      ]
  in
  result
    [
      table
        "CDC: ordered commit-stream subscriptions (YCSB theta=0.6, 8 cores; \
         replica at staleness 4; view verified against recompute)"
        rows;
    ]
    ~notes:
      [
        Printf.sprintf
          "cdc: feed %s across lockstep/pipelined/split (digest %08x); \
           view=recompute %s; overhead %.1f%%"
          (if deterministic then "byte-identical" else "DIVERGES")
          (digest fed)
          (if view_ok then "held" else "NOT EXERCISED")
          overhead_pct;
      ]
    ~summary:
      Bench_json.
        [
          ("overhead_pct", Fixed (2, overhead_pct));
          ("deterministic", Bool deterministic);
          ("view_ok", Bool view_ok);
        ]
    ~claims:
      (recorded_since checked0
      :: claim (List.exists (fun r -> r.exp.E.cdc) rows) "cdc: no --cdc rows"
      :: claim deterministic "cdc: feed digests diverge across quecc schedules"
      :: claim
           (msplit.M.split_keys > 0 && msplit.M.split_subqueues > 0)
           "cdc: splitting never fired on split --cdc (split k/q %d/%d)"
           msplit.M.split_keys msplit.M.split_subqueues
      :: claim
           (List.for_all (fun r -> feed r = feed fed) family)
           "cdc: quecc-family feeds diverge: %s"
           (String.concat ", "
              (List.map
                 (fun r -> Printf.sprintf "%s %x" r.label (digest r))
                 family))
      :: claim view_ok "cdc: materialized view never refreshed/verified"
      :: claim (overhead_pct <= 10.0)
           "cdc: CDC overhead %.2f%% exceeds the 10%% budget" overhead_pct
      :: List.concat_map flowing rows)

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
  let spec = ycsb ~theta:0.6 size in
  let threads = 8 and batch_size = 512 in
  let engines = [ quecc; E.Calvin; E.Twopl_nowait ] in
  let probe =
    List.map
      (fun eng -> (eng, run (E.make ~threads ~txns ~batch_size eng spec)))
      engines
  in
  let sat eng = Float.max 1.0 (tput (List.assoc eng probe)) in
  (* Deadline budget: the closed-loop QueCC p99 — the SLO a capacity
     plan would set from the engine's profile at saturation.  Roomy
     below saturation, but shorter than the residency of a full
     admission queue, so overload shows up as deadline misses rather
     than silently-late commits. *)
  let dl =
    match deadline with
    | Some d -> d
    | None ->
        let quecc = List.assoc (List.hd engines) probe in
        max 200_000
          (Quill_common.Stats.Hist.percentile quecc.metrics.M.lat 99.0)
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
  let row ~sweep ~mult (eng, policy) =
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
    run ~sweep
      (E.make ~name:label ~threads ~txns ~batch_size ~clients:ccfg eng spec)
  in
  let loads =
    match arrival with
    | Some a -> [ (C.arrival_to_string a, 1.0) ]
    | None ->
        List.map
          (fun mult -> (Printf.sprintf "%.2fx" mult, mult))
          [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
  in
  let by_load =
    sweep ~param:"offered load" ~show:fst
      "Overload: open-loop clients at a multiple of each engine's saturation \
       throughput (YCSB theta=0.6, 8 cores)"
      loads
      (fun ~sweep (_, mult) -> List.map (row ~sweep ~mult) variants)
  in
  let own_sweep =
    arrival = None && admission = None && deadline = None && retries = None
  in
  let served r =
    let label = r.label ^ " at " ^ Option.value r.sweep ~default:"" in
    [
      claim (tput r > 0.0) "overload: %s: zero goodput" label;
      claim
        (Quill_common.Stats.Hist.count r.metrics.M.client_lat > 0)
        "overload: %s: no client latency samples (p99 not rendered)" label;
    ]
  in
  result [ by_load ]
    ~claims:
      ((if own_sweep then
          [
            claim
              (List.exists (fun r -> r.metrics.M.shed > 0) by_load.rows)
              "overload: no transactions shed anywhere in the sweep";
          ]
        else [])
      @ List.concat_map served by_load.rows)

let all =
  [
    (fun scale -> table2_row1 ~scale ());
    (fun scale -> table2_row2 ~scale ());
    (fun scale -> table2_row3 ~scale ());
    (fun scale -> fig_contention ~scale ());
    (fun scale -> fig_scalability ~scale ());
    (fun scale -> fig_modes ~scale ());
    (fun scale -> fig_latency ~scale ());
    (fun scale -> fig_batch ~scale ());
    (fun scale -> pipeline ~scale ());
    (fun scale -> skew ~scale ());
    (fun scale -> fault_tolerance ~scale ());
    (fun scale -> failover ~scale ());
    (fun scale -> durability ~scale ());
    (fun scale -> cdc ~scale ());
    (fun scale -> overload ~scale ());
  ]
