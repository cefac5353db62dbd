(* The queue-oriented engine's correctness battery.

   The central oracle: for any input batch sequence, the engine's final
   committed state must equal serial execution of the same transactions
   in batch order — that is the determinism property the paper claims,
   and it must hold for every configuration (planner/executor counts,
   batch sizes, execution modes, isolation levels for the state written
   by updates, contention levels, abort rates, data-dependency chains,
   multi-partition ratios). *)

open Quill_storage
open Quill_txn
open Quill_workloads
module Engine = Quill_quecc.Engine

let run_engine ?(mode = Engine.Speculative) ?(isolation = Engine.Serializable)
    ?(planners = 4) ?(executors = 4) ?(batch_size = 128) ?(batches = 4)
    ?(pipeline = false) ?split ?(repart = false) cfg =
  let wl = Ycsb.make cfg in
  let wl_rec, logs = Tutil.record wl in
  let m =
    Engine.run
      { Engine.planners; executors; batch_size; mode; isolation;
        costs = Quill_sim.Costs.default; pipeline; split; repart }
      wl_rec ~batches
  in
  (wl, logs, m)

let serial_state cfg logs ~streams ~batch_size ~batches =
  let wl = Ycsb.make cfg in
  let txns = Tutil.batch_order logs ~streams ~batch_size ~batches in
  let m = Quill_protocols.Serial.run_txns wl txns in
  (Db.checksum wl.Workload.db, m, txns)

let check_against_oracle ?mode ?isolation ?(planners = 4) ?(executors = 4)
    ?(batch_size = 128) ?(batches = 4) ?(pipeline = false) ?split ?repart
    name cfg =
  let wl, logs, m =
    run_engine ?mode ?isolation ~planners ~executors ~batch_size ~batches
      ~pipeline ?split ?repart cfg
  in
  let oracle, m_serial, _ =
    serial_state cfg logs ~streams:planners ~batch_size ~batches
  in
  Tutil.check_int (name ^ ": commits match serial")
    m_serial.Metrics.committed m.Metrics.committed;
  Tutil.check_int (name ^ ": aborts match serial")
    m_serial.Metrics.logic_aborted m.Metrics.logic_aborted;
  Tutil.check_bool (name ^ ": state equals serial") true
    (Db.checksum wl.Workload.db = oracle)

(* ------------------------- oracle equivalence ------------------------- *)

let test_oracle_uniform () =
  check_against_oracle "uniform" (Tutil.small_ycsb ~theta:0.0 ())

let test_oracle_skewed () =
  check_against_oracle "skewed" (Tutil.small_ycsb ~theta:0.9 ())

let test_oracle_extreme_skew () =
  check_against_oracle "extreme skew"
    (Tutil.small_ycsb ~table_size:64 ~theta:0.0 ~mp_ratio:1.0 ())

let test_oracle_aborts () =
  check_against_oracle "aborts"
    (Tutil.small_ycsb ~abort_ratio:0.2 ~theta:0.9 ())

let test_oracle_chain_deps () =
  check_against_oracle "chain deps"
    (Tutil.small_ycsb ~chain_deps:true ~theta:0.8 ())

let test_oracle_aborts_and_deps () =
  check_against_oracle "aborts+deps"
    (Tutil.small_ycsb ~abort_ratio:0.15 ~chain_deps:true ~theta:0.8
       ~mp_ratio:0.5 ())

let test_oracle_conservative () =
  check_against_oracle ~mode:Engine.Conservative "conservative"
    (Tutil.small_ycsb ~abort_ratio:0.2 ~chain_deps:true ~theta:0.9 ())

let test_oracle_asymmetric_threads () =
  check_against_oracle ~planners:3 ~executors:5 "3 planners 5 executors"
    (Tutil.small_ycsb ~theta:0.7 ~abort_ratio:0.1 ());
  check_against_oracle ~planners:6 ~executors:2 "6 planners 2 executors"
    (Tutil.small_ycsb ~theta:0.7 ~abort_ratio:0.1 ())

let test_oracle_single_thread () =
  check_against_oracle ~planners:1 ~executors:1 "1x1"
    (Tutil.small_ycsb ~abort_ratio:0.1 ~chain_deps:true ())

let test_oracle_uneven_batch () =
  (* batch size not divisible by planner count *)
  check_against_oracle ~planners:3 ~executors:3 ~batch_size:100 "uneven slices"
    (Tutil.small_ycsb ())

(* The same state must arise regardless of the thread configuration:
   determinism across physical layouts, not just runs. *)
let test_state_independent_of_executors () =
  let cfg = Tutil.small_ycsb ~theta:0.9 ~abort_ratio:0.1 () in
  let c_of executors =
    let wl, _, _ = run_engine ~planners:4 ~executors cfg in
    Db.checksum wl.Workload.db
  in
  let base = c_of 1 in
  List.iter
    (fun e -> Tutil.check_bool "same state any executor count" true
        (c_of e = base))
    [ 2; 4; 8 ]

let test_run_to_run_determinism () =
  let cfg = Tutil.small_ycsb ~theta:0.99 ~abort_ratio:0.1 ~chain_deps:true () in
  let wl1, _, m1 = run_engine cfg in
  let wl2, _, m2 = run_engine cfg in
  Tutil.check_bool "state" true
    (Db.checksum wl1.Workload.db = Db.checksum wl2.Workload.db);
  Tutil.check_int "commits" m1.Metrics.committed m2.Metrics.committed;
  Tutil.check_int "elapsed (virtual time) identical" m1.Metrics.elapsed
    m2.Metrics.elapsed

let test_speculative_equals_conservative () =
  let cfg = Tutil.small_ycsb ~theta:0.9 ~abort_ratio:0.25 ~chain_deps:true () in
  let wl1, _, m1 = run_engine ~mode:Engine.Speculative cfg in
  let wl2, _, m2 = run_engine ~mode:Engine.Conservative cfg in
  Tutil.check_bool "same final state" true
    (Db.checksum wl1.Workload.db = Db.checksum wl2.Workload.db);
  Tutil.check_int "same commits" m1.Metrics.committed m2.Metrics.committed;
  Tutil.check_int "conservative never cascades" 0 m2.Metrics.cascades

(* ------------------------- engine behaviour ------------------------- *)

let test_no_cc_aborts () =
  let _, _, m = run_engine (Tutil.small_ycsb ~theta:0.99 ()) in
  Tutil.check_int "concurrency-control-free" 0 m.Metrics.cc_aborts

let test_all_txns_accounted () =
  let _, _, m =
    run_engine ~batch_size:128 ~batches:5
      (Tutil.small_ycsb ~abort_ratio:0.3 ())
  in
  Tutil.check_int "committed + aborted = total" (128 * 5)
    (m.Metrics.committed + m.Metrics.logic_aborted);
  Tutil.check_int "batches" 5 m.Metrics.batches

let test_additive_invariant () =
  (* With write-only RMW(+delta) fragments, the final sum of field 0
     equals the initial sum plus all committed deltas. *)
  let cfg = Tutil.small_ycsb ~theta:0.9 ~read_ratio:0.0 ~abort_ratio:0.2 () in
  let wl = Ycsb.make cfg in
  let initial = Tutil.sum_field0 wl.Workload.db "usertable" in
  let wl_rec, logs = Tutil.record wl in
  let _ =
    Engine.run
      { Engine.default_cfg with Engine.planners = 4; executors = 4;
        batch_size = 128 }
      wl_rec ~batches:4
  in
  let txns = Tutil.batch_order logs ~streams:4 ~batch_size:128 ~batches:4 in
  let delta = Tutil.ycsb_committed_delta txns in
  Tutil.check_int "sum conserved" (initial + delta)
    (Tutil.sum_field0 wl.Workload.db "usertable")

let test_read_committed_runs () =
  (* RC relaxes isolation; the update-side state must still be exact for
     workloads whose writes don't depend on reads (read_ratio split). *)
  let cfg = Tutil.small_ycsb ~theta:0.9 ~read_ratio:0.6 () in
  let wl, _, m =
    run_engine ~isolation:Engine.Read_committed ~batches:3 cfg
  in
  Tutil.check_int "all committed" (128 * 3) m.Metrics.committed;
  (* RMW deltas don't depend on reads, so even RC state matches serial
     when there are no aborts. *)
  let wl2, logs2, _ = run_engine ~isolation:Engine.Serializable ~batches:3 cfg in
  ignore logs2;
  Tutil.check_bool "same committed state" true
    (Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

let test_latency_batch_shaped () =
  let _, _, m = run_engine ~batches:4 (Tutil.small_ycsb ()) in
  let p50 = Quill_common.Stats.Hist.percentile m.Metrics.lat 50.0 in
  let p99 = Quill_common.Stats.Hist.percentile m.Metrics.lat 99.0 in
  Tutil.check_bool "p50 > 0" true (p50 > 0);
  Tutil.check_bool "p99 >= p50" true (p99 >= p50)

let test_more_cores_not_slower () =
  let cfg = Tutil.small_ycsb ~table_size:16_000 ~nparts:8 ~theta:0.0 () in
  let tput threads =
    let wl = Ycsb.make cfg in
    let m =
      Engine.run
        { Engine.default_cfg with Engine.planners = threads;
          executors = threads; batch_size = 512 }
        wl ~batches:4
    in
    Metrics.throughput m
  in
  let t1 = tput 1 and t8 = tput 8 in
  Tutil.check_bool
    (Printf.sprintf "8 cores (%.0f) beat 1 core (%.0f) by 3x+" t8 t1)
    true
    (t8 > 3.0 *. t1)

(* Conservative-mode abort purity.  Each transaction updates its own pair
   of keys: fragment 0 is a gated update (commit_dep — a sibling may
   abort), fragment 1 is the sole abortable fragment and also writes, so
   its write is the transaction's only non-commit_dep update.  Rows are
   seeded so the abort decision is a pure function of the initial state;
   an aborting transaction must leave both of its rows — live and
   committed copies — exactly as seeded. *)
let test_conservative_abort_purity () =
  let streams = 2 and batch_size = 8 and batches = 2 in
  let total = batch_size * batches in
  let db = Db.create ~nparts:2 in
  let table_id = Db.add_table db ~name:"t" ~nfields:1 ~capacity:(2 * total) in
  let tbl = Db.table_by_name db "t" in
  for key = 0 to Table.capacity tbl - 1 do
    Table.set tbl key 0 (1000 + key);
    Table.publish tbl key
  done;
  let op_gated = 0 and op_maybe_abort = 1 in
  let gen g =
    let f0 =
      Fragment.make ~fid:0 ~table:table_id ~key:(2 * g) ~mode:Fragment.Rmw
        ~op:op_gated ~args:[| 100 |] ()
    in
    let f1 =
      Fragment.make ~fid:1 ~table:table_id
        ~key:((2 * g) + 1)
        ~mode:Fragment.Rmw ~op:op_maybe_abort ~abortable:true ~args:[| 7 |] ()
    in
    Txn.make ~tid:g [| f0; f1 |]
  in
  let new_stream i =
    let counter = ref 0 in
    fun () ->
      let g = (!counter * streams) + i in
      incr counter;
      gen g
  in
  let exec (ctx : Exec.ctx) (_txn : Txn.t) (frag : Fragment.t) =
    let v = ctx.Exec.read frag 0 in
    ctx.Exec.output frag.Fragment.fid v;
    if frag.Fragment.op = op_gated then begin
      ctx.Exec.write frag 0 (v + frag.Fragment.args.(0));
      Exec.Ok
    end
    else if v mod 3 = 0 then Exec.Abort
    else begin
      ctx.Exec.write frag 0 (v + frag.Fragment.args.(0));
      Exec.Ok
    end
  in
  let wl =
    {
      Workload.name = "abort-purity";
      db;
      new_stream;
      exec;
      describe = "paired gated/abortable updates";
    }
  in
  let m =
    Engine.run
      { Engine.default_cfg with
        Engine.planners = streams; executors = 4; batch_size;
        mode = Engine.Conservative; isolation = Engine.Serializable }
      wl ~batches
  in
  let expected_aborts = ref 0 in
  for g = 0 to total - 1 do
    let r0 = 2 * g and r1 = (2 * g) + 1 in
    let init0 = 1000 + (2 * g) and init1 = 1000 + (2 * g) + 1 in
    if init1 mod 3 = 0 then begin
      incr expected_aborts;
      Tutil.check_int "aborted: gated update absent (committed)" init0
        (Table.committed tbl r0 0);
      Tutil.check_int "aborted: gated update absent (live)" init0
        (Table.get tbl r0 0);
      Tutil.check_int "aborted: abortable write absent (committed)" init1
        (Table.committed tbl r1 0);
      Tutil.check_int "aborted: abortable write absent (live)" init1
        (Table.get tbl r1 0)
    end
    else begin
      Tutil.check_int "committed: gated update applied" (init0 + 100)
        (Table.committed tbl r0 0);
      Tutil.check_int "committed: abortable write applied" (init1 + 7)
        (Table.committed tbl r1 0)
    end
  done;
  Tutil.check_bool "test exercises both outcomes" true
    (!expected_aborts > 0 && !expected_aborts < total);
  Tutil.check_int "abort count" !expected_aborts m.Metrics.logic_aborted;
  Tutil.check_int "commit count" (total - !expected_aborts)
    m.Metrics.committed;
  Tutil.check_int "conservative never speculates" 0 m.Metrics.cascades

(* ------------------------- pipelined batches ------------------------- *)

(* The pipelined schedule must be invisible in the committed state:
   the serial oracle holds for the double-buffered path exactly as it
   does for the lockstep one. *)
let test_pipeline_oracle () =
  check_against_oracle ~pipeline:true "pipelined uniform"
    (Tutil.small_ycsb ~theta:0.0 ());
  check_against_oracle ~pipeline:true "pipelined aborts+deps"
    (Tutil.small_ycsb ~abort_ratio:0.15 ~chain_deps:true ~theta:0.8
       ~mp_ratio:0.5 ());
  check_against_oracle ~pipeline:true ~mode:Engine.Conservative
    "pipelined conservative"
    (Tutil.small_ycsb ~abort_ratio:0.2 ~chain_deps:true ~theta:0.9 ());
  (* Skewed keys cascade on the asymmetric layout; one partition leaves
     four executors idle while executor 0 drains every queue. *)
  check_against_oracle ~pipeline:true ~planners:3 ~executors:5
    "pipelined asymmetric"
    (Tutil.small_ycsb ~theta:0.7 ~abort_ratio:0.1 ());
  check_against_oracle ~pipeline:true ~planners:3 ~executors:5
    ~batch_size:32 "pipelined asymmetric, one partition"
    (Tutil.small_ycsb ~table_size:100_000 ~nparts:1 ~theta:0.0
       ~read_ratio:0.0 ~abort_ratio:0.1 ())

(* Overlap buys real virtual time on a planning-heavy schedule; the
   bench pipeline sweep documents ~1.25x at full scale, the test
   guards a conservative floor at its smaller scale. *)
let test_pipeline_faster () =
  let cfg = Tutil.small_ycsb ~table_size:20_000 ~nparts:8 ~theta:0.0 () in
  let tput pipeline =
    let wl = Ycsb.make cfg in
    let m =
      Engine.run
        { Engine.default_cfg with Engine.planners = 4; executors = 4;
          batch_size = 512; pipeline }
        wl ~batches:6
    in
    Metrics.throughput m
  in
  let t0 = tput false and t1 = tput true in
  Tutil.check_bool
    (Printf.sprintf "pipelined (%.0f) beats lockstep (%.0f) by 1.1x+" t1 t0)
    true
    (t1 > 1.1 *. t0)

(* Executors and planners charge their private work with
   [Sim.tick_local], the planners' admission of each transaction
   included, so a pipelined run with nothing to hand across threads
   mid-batch (no logic aborts, no data dependencies) resumes a fiber only
   at batch hand-offs: 0.02 times per transaction here (1.02 while
   admission still yielded, 53.5 when every charge is a yielding
   [tick]).  The bound is 0.05, the measured value plus 0.03: one lost
   local charge per transaction adds a whole resume per transaction.  A
   guard on the simulator's speed that needs no wall clock. *)
let test_pipeline_switches () =
  let cfg = Tutil.small_ycsb ~table_size:20_000 ~nparts:4 ~theta:0.6 () in
  let sim = Quill_sim.Sim.of_costs Quill_sim.Costs.default in
  let m =
    Engine.run ~sim
      { Engine.default_cfg with Engine.planners = 4; executors = 4;
        batch_size = 1024; pipeline = true }
      (Ycsb.make cfg) ~batches:8
  in
  Tutil.check_int "all committed" (8 * 1024) m.Metrics.committed;
  let per_txn =
    float_of_int (Quill_sim.Sim.resumes sim)
    /. float_of_int m.Metrics.committed
  in
  Tutil.check_bool
    (Printf.sprintf "%d resumes, %.3f per committed txn <= 0.05"
       (Quill_sim.Sim.resumes sim) per_txn)
    true (per_txn <= 0.05)

(* ------------------------- adaptive planning ------------------------- *)

(* A global-zipf skew so the same hottest keys land in every stream: the
   contention shape hot-key splitting targets.  Low thresholds make the
   mechanisms fire at test scale. *)
let skewed_cfg ?(seed = 42) () =
  Tutil.small_ycsb ~table_size:2_000 ~nparts:4 ~theta:0.9 ~global_zipf:true
    ~seed ()

let tiny_split = Some 8

(* Splitting must be invisible in the committed state: the serial oracle
   holds exactly as for the plain engine, and the counters prove the
   mechanism actually engaged. *)
let test_split_fires () =
  let cfg = skewed_cfg () in
  let wl, logs, m = run_engine ?split:tiny_split cfg in
  Tutil.check_bool "split fired" true (m.Metrics.split_keys > 0);
  Tutil.check_bool "subqueues >= split keys" true
    (m.Metrics.split_subqueues >= m.Metrics.split_keys);
  let oracle, m_serial, _ =
    serial_state cfg logs ~streams:4 ~batch_size:128 ~batches:4
  in
  Tutil.check_int "commits match serial" m_serial.Metrics.committed
    m.Metrics.committed;
  Tutil.check_bool "state equals serial" true
    (Db.checksum wl.Workload.db = oracle)

let test_repart_fires () =
  let cfg = skewed_cfg () in
  let wl, logs, m = run_engine ?split:tiny_split ~repart:true cfg in
  Tutil.check_bool "repartitioning fired" true (m.Metrics.repart_moves > 0);
  let oracle, m_serial, _ =
    serial_state cfg logs ~streams:4 ~batch_size:128 ~batches:4
  in
  Tutil.check_int "commits match serial" m_serial.Metrics.committed
    m.Metrics.committed;
  Tutil.check_bool "state equals serial" true
    (Db.checksum wl.Workload.db = oracle)

(* The acceptance property: same seed, adaptive planning on vs off, the
   committed state must be bit-identical across random workload shapes,
   modes and isolation levels, lockstep and pipelined. *)
let prop_adaptive_bit_identical =
  QCheck.Test.make
    ~name:"split+repart == plain committed state on random configs" ~count:10
    QCheck.(
      quad (int_range 0 1000) (int_range 0 99) (int_range 0 30) bool)
    (fun (seed, theta_pct, abort_pct, pipeline) ->
      let cfg =
        Tutil.small_ycsb ~table_size:512 ~nparts:4
          ~theta:(float_of_int theta_pct /. 100.0)
          ~abort_ratio:(float_of_int abort_pct /. 100.0)
          ~chain_deps:(seed mod 2 = 0) ~global_zipf:true ~seed ()
      in
      let mode =
        if seed mod 3 = 0 then Engine.Conservative else Engine.Speculative
      in
      let isolation =
        if seed mod 2 = 0 then Engine.Read_committed
        else Engine.Serializable
      in
      let fp adaptive =
        let split = if adaptive then tiny_split else None in
        let wl, _, m =
          run_engine ~mode ~isolation ~batch_size:64 ~batches:3 ~pipeline
            ?split ~repart:adaptive cfg
        in
        ( Db.checksum wl.Workload.db,
          m.Metrics.committed,
          m.Metrics.logic_aborted )
      in
      fp false = fp true)

let prop_pipeline_bit_identical =
  QCheck.Test.make
    ~name:"pipelined == lockstep committed state on random configs" ~count:10
    QCheck.(
      quad (int_range 0 1000) (int_range 0 99) (int_range 0 30) bool)
    (fun (seed, theta_pct, abort_pct, one_part) ->
      let cfg =
        Tutil.small_ycsb ~table_size:512
          ~nparts:(if one_part then 1 else 4)
          ~theta:(float_of_int theta_pct /. 100.0)
          ~abort_ratio:(float_of_int abort_pct /. 100.0)
          ~chain_deps:(seed mod 2 = 0) ~seed ()
      in
      let mode =
        if seed mod 3 = 0 then Engine.Conservative else Engine.Speculative
      in
      let isolation =
        if seed mod 2 = 0 then Engine.Read_committed
        else Engine.Serializable
      in
      let fp pipeline =
        let wl, _, m =
          run_engine ~mode ~isolation ~batch_size:64 ~batches:3 ~pipeline cfg
        in
        ( Db.checksum wl.Workload.db,
          m.Metrics.committed,
          m.Metrics.logic_aborted )
      in
      fp false = fp true)

(* ------------------------- golden schedules ------------------------- *)

(* Client mode and pipelined repartitioning run in no BENCH file, so
   their exact schedules are pinned here: virtual time, both pipeline
   stalls, commits, the cascade count, the recover phase's busy time,
   the committed-state checksum and, with CDC on, the feed digest.  A
   change to how either spawn path sources or hands off its batches, or
   to how speculation is recorded and recovered, must leave every value
   as it is. *)
let golden ?(clients = false) ?(pipeline = false) ?(durable = false)
    ?(adapt_repart = false) name expect =
  let module E = Quill_harness.Experiment in
  let clients =
    if clients then
      Some
        { Quill_clients.Clients.default with
          Quill_clients.Clients.arrival = Quill_clients.Clients.Poisson 2e6;
          seed = 7 }
    else None
  in
  let e =
    E.make ~threads:4 ~txns:1024 ~batch_size:128 ?clients ~pipeline
      ~wal:durable ~cdc:durable ~snapshot_every:2 ~adapt_repart
      (E.Quecc (Engine.Speculative, Engine.Serializable))
      (E.Ycsb (Tutil.small_ycsb ~abort_ratio:0.1 ()))
  in
  let db = ref None and digest = ref [] in
  let m =
    E.run
      ~on_workload:(fun wl -> db := Some wl.Workload.db)
      ~on_cdc:(fun h -> digest := [ ("digest", Quill_cdc.Cdc.digest h) ])
      e
  in
  let checksum = match !db with Some d -> Db.checksum d | None -> 0 in
  let got =
    [
      ("elapsed", m.Metrics.elapsed);
      ("busy", m.Metrics.busy);
      ("fill_stall", m.Metrics.pipe_fill_stall);
      ("drain_stall", m.Metrics.pipe_drain_stall);
      ("committed", m.Metrics.committed);
      ("cascades", m.Metrics.cascades);
      ("recover_busy", m.Metrics.recover_busy);
      ("checksum", checksum);
    ]
    @ !digest
  in
  Alcotest.(check (list (pair string int))) name expect got

let test_golden_schedules () =
  golden ~clients:true "lockstep clients"
    [
      ("elapsed", 1447502);
      ("busy", 4310710);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("committed", 999);
      ("cascades", 158);
      ("recover_busy", 298910);
      ("checksum", 375564231417489309);
    ];
  golden ~clients:true ~durable:true "lockstep clients + wal + cdc"
    [
      ("elapsed", 1904122);
      ("busy", 4773400);
      ("fill_stall", 0);
      ("drain_stall", 0);
      ("committed", 999);
      ("cascades", 139);
      ("recover_busy", 246630);
      ("checksum", 375564231417489309);
      ("digest", 8677611);
    ];
  golden ~clients:true ~pipeline:true "pipelined clients"
    [
      ("elapsed", 1190827);
      ("busy", 4302940);
      ("fill_stall", 61168);
      ("drain_stall", 3692120);
      ("committed", 999);
      ("cascades", 157);
      ("recover_busy", 295930);
      ("checksum", 375564231417489309);
    ];
  golden ~clients:true ~pipeline:true ~durable:true
    "pipelined clients + wal + cdc"
    [
      ("elapsed", 2007574);
      ("busy", 5132922);
      ("fill_stall", 2513484);
      ("drain_stall", 6634300);
      ("committed", 999);
      ("cascades", 157);
      ("recover_busy", 296090);
      ("checksum", 375564231417489309);
      ("digest", 4102366264);
    ];
  golden ~pipeline:true ~adapt_repart:true "pipelined + repart"
    [
      ("elapsed", 1027485);
      ("busy", 4042120);
      ("fill_stall", 132600);
      ("drain_stall", 2089000);
      ("committed", 988);
      ("cascades", 88);
      ("recover_busy", 207840);
      ("checksum", 180940947452833136);
    ]

(* Speculative TPC-C: NewOrder's invalid-item aborts cascade through the
   district row, which Payment updates on a disjoint field ([d_ytd]
   against [d_next_o_id]).  Eight threads make some aborters write
   before their abort is decided, so the pinned cascade count and
   recovery time depend on edges being kept per field, not per row. *)
let run_small_tpcc ?(mode = Engine.Speculative)
    ?(isolation = Engine.Serializable) ~pipeline () =
  let module E = Quill_harness.Experiment in
  let e =
    E.make ~threads:8 ~txns:2048 ~batch_size:256 ~pipeline
      (E.Quecc (mode, isolation))
      (E.Tpcc (Tutil.small_tpcc ()))
  in
  let db = ref None in
  let m = E.run ~on_workload:(fun wl -> db := Some wl.Workload.db) e in
  (m, match !db with Some d -> Db.checksum d | None -> 0)

let golden_tpcc ~pipeline name expect =
  let m, checksum = run_small_tpcc ~pipeline () in
  Alcotest.(check (list (pair string int)))
    name expect
    [
      ("elapsed", m.Metrics.elapsed);
      ("cascades", m.Metrics.cascades);
      ("recover_busy", m.Metrics.recover_busy);
      ("committed", m.Metrics.committed);
      ("checksum", checksum);
    ]

let test_golden_tpcc () =
  golden_tpcc ~pipeline:false "lockstep tpcc"
    [
      ("elapsed", 11120010);
      ("cascades", 22);
      ("recover_busy", 288140);
      ("committed", 2039);
      ("checksum", 4242084225238047927);
    ];
  golden_tpcc ~pipeline:true "pipelined tpcc"
    [
      ("elapsed", 10223125);
      ("cascades", 9);
      ("recover_busy", 78010);
      ("committed", 2039);
      ("checksum", 1076902745064484743);
    ]

(* Durable TPC-C: NewOrder inserts orders, order lines and new-order
   rows under composite dynamic keys, and a speculative logic abort
   removes an insert that re-execution puts back under the same key, so
   the WAL's journal (rolled every two batches), the CDC feed's insert
   events and the storage's dynamic-key tables are all pinned here: the
   committed checksum, the feed digest, bytes and event count, the log
   bytes and the durable batch count, for lockstep QueCC and for the
   serial engine, which seals its batches through the same commit
   point. *)
let test_golden_tpcc_durable () =
  let module E = Quill_harness.Experiment in
  List.iter
    (fun (name, engine, expect) ->
      let e =
        E.make ~threads:8 ~txns:2048 ~batch_size:256 ~wal:true ~cdc:true
          ~snapshot_every:2 engine (E.Tpcc (Tutil.small_tpcc ()))
      in
      let db = ref None and cdc = ref [] in
      let m =
        E.run
          ~on_workload:(fun wl -> db := Some wl.Workload.db)
          ~on_cdc:(fun h ->
            cdc :=
              [
                ("digest", Quill_cdc.Cdc.digest h);
                ("feed_bytes", Quill_cdc.Cdc.feed_bytes h);
                ("events", Quill_cdc.Cdc.events h);
              ])
          e
      in
      let checksum = match !db with Some d -> Db.checksum d | None -> 0 in
      Alcotest.(check (list (pair string int)))
        name expect
        ([ ("checksum", checksum) ]
        @ !cdc
        @ [
            ("wal_bytes", m.Metrics.wal_bytes);
            ("durable_batches", m.Metrics.durable_batches);
          ]))
    [
      ( "lockstep quecc tpcc + wal + cdc",
        E.Quecc (Engine.Speculative, Engine.Serializable),
        [
          ("checksum", 4242084225238047927);
          ("digest", 800612228);
          ("feed_bytes", 1584453);
          ("events", 22445);
          ("wal_bytes", 1446278);
          ("durable_batches", 8);
        ] );
      ( "serial tpcc + wal + cdc",
        E.Serial,
        [
          ("checksum", 3584766106519053112);
          ("digest", 186671238);
          ("feed_bytes", 1726349);
          ("events", 23941);
          ("wal_bytes", 1544708);
          ("durable_batches", 8);
        ] );
    ]

(* Read-committed TPC-C: RC reads are spread over every executor, and
   OrderStatus/StockLevel read orders a NewOrder of the same batch may
   insert on another executor, so whether the probe finds the row (and
   charges [row_read]) depends on the probe running in dispatch order.
   Busy time moves if an RC probe runs ahead of its peers. *)
let test_golden_tpcc_rc () =
  List.iter
    (fun (name, mode, pipeline, expect) ->
      let m, checksum =
        run_small_tpcc ~mode ~isolation:Engine.Read_committed ~pipeline ()
      in
      Alcotest.(check (list (pair string int)))
        name expect
        [
          ("elapsed", m.Metrics.elapsed);
          ("busy", m.Metrics.busy);
          ("cascades", m.Metrics.cascades);
          ("committed", m.Metrics.committed);
          ("checksum", checksum);
        ])
    [
      ( "lockstep speculative rc",
        Engine.Speculative,
        false,
        [
          ("elapsed", 8152600);
          ("busy", 23145920);
          ("cascades", 9);
          ("committed", 2039);
          ("checksum", 1573379805016338376);
        ] );
      ( "pipelined speculative rc",
        Engine.Speculative,
        true,
        [
          ("elapsed", 7458910);
          ("busy", 23144555);
          ("cascades", 9);
          ("committed", 2039);
          ("checksum", 1076902745064484743);
        ] );
      ( "pipelined conservative rc",
        Engine.Conservative,
        true,
        [
          ("elapsed", 7383540);
          ("busy", 23065645);
          ("cascades", 0);
          ("committed", 2039);
          ("checksum", 1076902745064484743);
        ] );
    ]

(* Cascades under hot-key splitting, against the serial oracle: chain
   segments write on foreign executors, so recovery must undo their
   writes in their real execution order.  The planner never splits a key
   that a transaction with data dependencies touches (with [chain_deps]
   nearly every transaction has one), so the chain-deps run, on one
   partition over uniform keys, cascades through dependency slots on a
   single busy executor instead. *)
let test_split_cascades_oracle () =
  List.iter
    (fun (name, cfg, batch_size, fired) ->
      let wl, logs, m =
        run_engine ~batch_size ~pipeline:true ?split:tiny_split cfg
      in
      Option.iter
        (fun (what, f) -> Tutil.check_bool (name ^ ": " ^ what) true (f m))
        fired;
      Tutil.check_bool
        (name ^ ": cascades beyond the aborters")
        true
        (m.Metrics.cascades > m.Metrics.logic_aborted);
      let oracle, m_serial, _ =
        serial_state cfg logs ~streams:4 ~batch_size ~batches:4
      in
      Tutil.check_int (name ^ ": commits match serial")
        m_serial.Metrics.committed m.Metrics.committed;
      Tutil.check_int (name ^ ": aborts match serial")
        m_serial.Metrics.logic_aborted m.Metrics.logic_aborted;
      Tutil.check_bool (name ^ ": state equals serial") true
        (Db.checksum wl.Workload.db = oracle))
    [
      ( "split",
        Tutil.small_ycsb ~table_size:2_000 ~nparts:4 ~theta:0.9
          ~global_zipf:true ~abort_ratio:0.2 (),
        128,
        Some ("split fired", fun m -> m.Metrics.split_keys > 0) );
      ( "one partition + chain deps",
        Tutil.small_ycsb ~table_size:10_000 ~nparts:1 ~theta:0.0
          ~read_ratio:0.0 ~abort_ratio:0.2 ~chain_deps:true (),
        32,
        None );
    ]

(* ------------------------- speculation journal ------------------------- *)

module J = Quill_quecc.Journal

(* A two-field table with dense rows 0..3. *)
let journal_db () =
  let db = Db.create ~nparts:1 in
  let t = Db.add_table db ~name:"t" ~nfields:2 ~capacity:4 in
  (db, t, Db.table db t)

(* The replay's edge rules one at a time: [accesses] appended in
   execution order, then the closure of [aborted] over 6 transactions. *)
let test_journal_edges () =
  let db, t, tbl = journal_db () in
  let closure name accesses aborted expect =
    let j = J.create db in
    List.iter (fun push -> push j) accesses;
    let c = J.closure j 6 ~aborted:(fun b -> List.mem b aborted) in
    Alcotest.(check (list int))
      name expect
      (List.filter (fun b -> c.(b)) [ 0; 1; 2; 3; 4; 5 ])
  in
  let rd b k f j = J.read j ~bidx:b ~table:t k f
  and st b k f j = J.set j ~bidx:b ~table:t k f ~old:0
  and ad b k f j = J.add j ~bidx:b ~table:t k f ~delta:1 in
  closure "read after write" [ st 0 0 0; rd 1 0 0 ] [ 0 ] [ 0; 1 ];
  closure "another field" [ st 0 0 0; rd 1 0 1 ] [ 0 ] [ 0 ];
  closure "another row" [ st 0 0 0; rd 1 1 0 ] [ 0 ] [ 0 ];
  closure "write after read" [ rd 0 0 0; st 1 0 0 ] [ 0 ] [ 0; 1 ];
  closure "write after write" [ st 0 0 0; st 1 0 0 ] [ 0 ] [ 0; 1 ];
  closure "adds commute" [ ad 0 0 0; ad 1 0 0 ] [ 0 ] [ 0 ];
  closure "read after add" [ ad 0 0 0; ad 1 0 0; rd 2 0 0 ] [ 0 ] [ 0; 2 ];
  closure "add after read" [ rd 0 0 0; ad 1 0 0 ] [ 0 ] [ 0; 1 ];
  closure "write after add" [ ad 0 0 0; st 1 0 0 ] [ 0 ] [ 0; 1 ];
  closure "a write ends the readers" [ rd 0 0 0; st 1 0 0; st 2 0 0 ] [ 0 ]
    [ 0; 1; 2 ];
  closure "readers before a write are not dragged by a later abort"
    [ rd 0 0 0; st 1 0 0; rd 2 0 0 ] [ 2 ] [ 2 ];
  closure "transitive"
    [ st 0 0 0; rd 1 0 0; st 1 1 1; rd 2 1 1; rd 3 1 0 ]
    [ 0 ] [ 0; 1; 2 ];
  closure "only earlier transactions drag" [ st 3 0 0; rd 1 0 0 ] [ 3 ]
    [ 3 ];
  let ins = Table.insert tbl ~home:0 ~key:100 [| 0; 0 |] in
  Table.set_inserter tbl ins 1;
  closure "access to an inserted row"
    [ (fun j -> J.insert j ~bidx:1 ~table:t ins);
      (fun j -> J.read j ~bidx:4 ~table:t ins 1) ]
    [ 1 ] [ 1; 4 ]

(* Undo is newest first: a set restores its old value, an add subtracts
   its delta, an insert is removed; one charge per undone entry, none for
   reads or for transactions outside the closure. *)
let test_journal_revert () =
  let db, t, tbl = journal_db () in
  let r0 = 0 and r1 = 1 in
  let j = J.create db in
  let set b row f v =
    J.set j ~bidx:b ~table:t row f ~old:(Table.get tbl row f);
    Table.set tbl row f v
  and add b row f d =
    J.add j ~bidx:b ~table:t row f ~delta:d;
    Table.set tbl row f (Table.get tbl row f + d)
  in
  Table.set tbl r0 0 5;
  add 0 r0 0 3;
  set 1 r0 0 7;
  J.read j ~bidx:1 ~table:t r0 0;
  add 1 r0 0 10;
  set 1 r1 1 9;
  let ins = Table.insert tbl ~home:0 ~key:100 [| 1; 1 |] in
  Table.set_inserter tbl ins 1;
  J.insert j ~bidx:1 ~table:t ins;
  set 2 r0 0 4;
  let c = J.closure j 3 ~aborted:(fun b -> b = 1) in
  Alcotest.(check (array bool)) "closure" [| false; true; true |] c;
  let charges = ref 0 in
  J.revert j c ~charge:(fun () -> incr charges);
  Tutil.check_int "sets and adds of the closure undone" 8 (Table.get tbl r0 0);
  Tutil.check_int "set undone" 0 (Table.get tbl r1 1);
  Tutil.check_bool "insert removed" true (Table.find tbl 100 = -1);
  Tutil.check_int "one charge per undone entry" 5 !charges;
  J.clear j;
  charges := 0;
  J.revert j [| true; true; true |] ~charge:(fun () -> incr charges);
  Tutil.check_int "cleared" 0 !charges

(* ------------------------- property tests ------------------------- *)

let prop_oracle_random_configs =
  QCheck.Test.make ~name:"engine == serial oracle on random configs" ~count:12
    QCheck.(
      quad (int_range 0 1000) (int_range 0 90) (int_range 0 30) (int_range 1 4))
    (fun (seed, theta_pct, abort_pct, planners) ->
      let cfg =
        Tutil.small_ycsb ~table_size:512 ~nparts:4
          ~theta:(float_of_int theta_pct /. 100.0)
          ~abort_ratio:(float_of_int abort_pct /. 100.0)
          ~chain_deps:(seed mod 2 = 0) ~seed ()
      in
      let wl = Ycsb.make cfg in
      let wl_rec, logs = Tutil.record wl in
      let _ =
        Engine.run
          { Engine.default_cfg with
            Engine.planners; executors = 4; batch_size = 64;
            mode = (if seed mod 3 = 0 then Engine.Conservative
                    else Engine.Speculative);
            isolation = Engine.Serializable }
          wl_rec ~batches:3
      in
      let wl_oracle = Ycsb.make cfg in
      let txns =
        Tutil.batch_order logs ~streams:planners ~batch_size:64 ~batches:3
      in
      let _ = Quill_protocols.Serial.run_txns wl_oracle txns in
      Db.checksum wl.Workload.db = Db.checksum wl_oracle.Workload.db)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "quecc"
    [
      ( "oracle",
        [
          Alcotest.test_case "uniform" `Quick test_oracle_uniform;
          Alcotest.test_case "skewed" `Quick test_oracle_skewed;
          Alcotest.test_case "extreme skew + mp" `Quick
            test_oracle_extreme_skew;
          Alcotest.test_case "aborts" `Quick test_oracle_aborts;
          Alcotest.test_case "chain deps" `Quick test_oracle_chain_deps;
          Alcotest.test_case "aborts + deps" `Quick test_oracle_aborts_and_deps;
          Alcotest.test_case "conservative" `Quick test_oracle_conservative;
          Alcotest.test_case "asymmetric threads" `Quick
            test_oracle_asymmetric_threads;
          Alcotest.test_case "single thread" `Quick test_oracle_single_thread;
          Alcotest.test_case "uneven batch slices" `Quick
            test_oracle_uneven_batch;
          qc prop_oracle_random_configs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "state independent of executor count" `Quick
            test_state_independent_of_executors;
          Alcotest.test_case "run-to-run" `Quick test_run_to_run_determinism;
          Alcotest.test_case "speculative == conservative" `Quick
            test_speculative_equals_conservative;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "pipelined oracle" `Quick test_pipeline_oracle;
          Alcotest.test_case "pipelined faster" `Quick test_pipeline_faster;
          Alcotest.test_case "fiber switches per txn" `Quick
            test_pipeline_switches;
          qc prop_pipeline_bit_identical;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "split fires + oracle" `Quick test_split_fires;
          Alcotest.test_case "repartition fires + oracle" `Quick
            test_repart_fires;
          Alcotest.test_case "golden client + repart schedules" `Quick
            test_golden_schedules;
          Alcotest.test_case "golden speculative tpcc" `Quick
            test_golden_tpcc;
          Alcotest.test_case "golden durable tpcc" `Quick
            test_golden_tpcc_durable;
          Alcotest.test_case "golden read-committed tpcc" `Quick
            test_golden_tpcc_rc;
          Alcotest.test_case "split + chain-deps cascades == serial" `Quick
            test_split_cascades_oracle;
          qc prop_adaptive_bit_identical;
        ] );
      ( "journal",
        [
          Alcotest.test_case "edge rules" `Quick test_journal_edges;
          Alcotest.test_case "revert newest first" `Quick
            test_journal_revert;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "conservative abort purity" `Quick
            test_conservative_abort_purity;
          Alcotest.test_case "no cc aborts" `Quick test_no_cc_aborts;
          Alcotest.test_case "all txns accounted" `Quick
            test_all_txns_accounted;
          Alcotest.test_case "additive invariant" `Quick
            test_additive_invariant;
          Alcotest.test_case "read-committed" `Quick test_read_committed_runs;
          Alcotest.test_case "latency sane" `Quick test_latency_batch_shaped;
          Alcotest.test_case "scales with cores" `Slow
            test_more_cores_not_slower;
        ] );
    ]
