(* Fault plans and recovery: spec parsing, timeout-aware channels, the
   faulted network (validation, duplicate suppression, retransmission),
   determinism under faults, and crash-recovery state oracles. *)

open Quill_storage
open Quill_txn
open Quill_workloads
module Faults = Quill_faults.Faults
module Sim = Quill_sim.Sim
module Net = Quill_dist.Net
module Dq = Quill_dist.Dist_quecc
module Dc = Quill_dist.Dist_calvin

(* ------------------------- spec parsing ------------------------- *)

let parse_ok s =
  match Faults.parse s with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_parse_full () =
  let sp =
    parse_ok
      "crash@t=5ms:node=1:down=250us,part@t=1ms:a=0:b=2:until=3ms,drop=0.02,\
       dup=0.01,delay=0.1:by=20us,seed=9,retries=4,rto=10us"
  in
  Tutil.check_int "seed" 9 sp.Faults.seed;
  Tutil.check_int "retries" 4 sp.Faults.max_retries;
  Tutil.check_int "rto" 10_000 sp.Faults.rto;
  Tutil.check_bool "drop" true (sp.Faults.drop = 0.02);
  Tutil.check_bool "dup" true (sp.Faults.dup = 0.01);
  Tutil.check_bool "delay_p" true (sp.Faults.delay_p = 0.1);
  Tutil.check_int "delay_by" 20_000 sp.Faults.delay_by;
  (match sp.Faults.crashes with
  | [ c ] ->
      Tutil.check_int "crash node" 1 c.Faults.node;
      Tutil.check_int "crash at" 5_000_000 c.Faults.at;
      Tutil.check_int "crash down" 250_000 c.Faults.down
  | l -> Alcotest.failf "expected 1 crash, got %d" (List.length l));
  match sp.Faults.partitions with
  | [ p ] ->
      Tutil.check_int "part a" 0 p.Faults.a;
      Tutil.check_int "part b" 2 p.Faults.b;
      Tutil.check_int "part from" 1_000_000 p.Faults.from_t;
      Tutil.check_int "part until" 3_000_000 p.Faults.until_t
  | l -> Alcotest.failf "expected 1 partition, got %d" (List.length l)

let test_parse_round_trip () =
  let specs =
    [
      "crash@t=200us:node=1:down=200us,drop=0.01,dup=0.01,seed=7";
      "drop=0.5,seed=3";
      "crash@t=1ms,crash@t=2ms:node=2";
      "part@t=1ms:a=0:b=1:until=2ms,delay=0.2:by=1ms";
    ]
  in
  List.iter
    (fun s ->
      let sp = parse_ok s in
      let sp2 = parse_ok (Faults.to_string sp) in
      Tutil.check_bool
        (Printf.sprintf "round-trip %S via %S" s (Faults.to_string sp))
        true (sp = sp2))
    specs

let test_parse_errors () =
  List.iter
    (fun s ->
      match Faults.parse s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error e ->
          Tutil.check_bool "one-line diagnostic" true
            (String.length e > 0 && not (String.contains e '\n')))
    [
      "crash@t=oops";
      "drop=high";
      "drop=1.5";
      "part@t=1ms:a=0:b=1";
      (* missing until *)
      "bogus=3";
      "crash";
      "dup=0.1:by=3ms";
      (* by only valid on delay *)
      "delay=0.1:by=inf";
      "rto=1e30s";
      "part@t=1ms:a=0:b=1:until=nan";
    ]

let test_parse_crash_validation () =
  (* Exact one-liner diagnostics for the crash@ sanity checks: a crash
     at t<=0 can never fire, down<=0 is a no-op, and a second crash@ for
     the same node would silently shadow the first. *)
  List.iter
    (fun (s, want) ->
      match Faults.parse s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error e -> Alcotest.(check string) s want e)
    [
      ("crash@t=0", "crash@ wants a positive virtual time, got t=0ns");
      ("crash@t=-1ms", "bad time \"-1ms\" (want NUM[ns|us|ms|s])");
      ("crash@t=inf:node=1", "bad time \"inf\" (want NUM[ns|us|ms|s])");
      ("crash@t=1e30s", "bad time \"1e30s\" (want NUM[ns|us|ms|s])");
      ("crash@t=nan", "bad time \"nan\" (want NUM[ns|us|ms|s])");
      ( "crash@t=5ms:down=0",
        "crash@ wants a positive down time, got down=0ns" );
      ( "crash@t=1ms:node=2,crash@t=2ms:node=2:down=1us",
        "duplicate crash@ spec for node 2 (one crash per node)" );
    ];
  (* ... while crashes on distinct nodes parse and round-trip. *)
  let sp =
    parse_ok "crash@t=1ms:node=0:down=10us,crash@t=2ms:node=1:down=10us"
  in
  Tutil.check_int "two crashes kept" 2 (List.length sp.Faults.crashes);
  let sp2 = parse_ok (Faults.to_string sp) in
  Tutil.check_bool "distinct-node crashes round-trip" true (sp = sp2)

let test_parse_disk () =
  let sp = parse_ok "torn@rec=12,fsync-fail@t=2ms,corrupt@off=4096,seed=3" in
  Tutil.check_bool "torn" true (sp.Faults.torn_rec = Some 12);
  Tutil.check_bool "fsync-fail" true (sp.Faults.fsync_fail_at = Some 2_000_000);
  Tutil.check_bool "corrupt" true (sp.Faults.corrupt_off = Some 4096);
  Tutil.check_bool "disk faults are active" true (Faults.disk_active sp);
  Tutil.check_bool "but not network faults" false (Faults.net_active sp);
  (* round-trip through the canonical string *)
  let sp2 = parse_ok (Faults.to_string sp) in
  Tutil.check_bool "disk clauses round-trip" true (sp = sp2)

let test_parse_disk_errors () =
  (* malformed and duplicate disk clauses are rejected with one-line
     diagnostics (the CLI surfaces these verbatim at exit 2) *)
  List.iter
    (fun (s, want) ->
      match Faults.parse s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error e -> Alcotest.(check string) s want e)
    [
      ("torn@t=5", "torn@ wants rec=N, got \"torn@t=5\"");
      ( "torn@rec=1,torn@rec=2",
        "duplicate torn@ clause (at most one per plan)" );
      ( "fsync-fail@t=0",
        "fsync-fail@ wants a positive virtual time, got t=0ns" );
      ( "fsync-fail@t=1ms,fsync-fail@t=2ms",
        "duplicate fsync-fail@ clause (at most one per plan)" );
      ("corrupt@rec=1", "corrupt@ wants off=N, got \"corrupt@rec=1\"");
      ( "corrupt@off=1,corrupt@off=2",
        "duplicate corrupt@ clause (at most one per plan)" );
    ];
  (* negative operands never parse *)
  List.iter
    (fun s ->
      match Faults.parse s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error e ->
          Tutil.check_bool "one-line diagnostic" true
            (String.length e > 0 && not (String.contains e '\n')))
    [ "torn@rec=-1"; "corrupt@off=-3"; "fsync-fail@t=-1ms" ]

let test_active () =
  Tutil.check_bool "none inactive" false (Faults.active Faults.none);
  Tutil.check_bool "seed-only inactive" false
    (Faults.active { Faults.none with Faults.seed = 99 });
  Tutil.check_bool "drop active" true
    (Faults.active { Faults.none with Faults.drop = 0.01 });
  Tutil.check_bool "crash active" true
    (Faults.active
       { Faults.none with
         Faults.crashes = [ { Faults.node = 0; at = 1; down = 1 } ] })

let test_check_nodes () =
  let sp = parse_ok "crash@t=1ms:node=5" in
  Alcotest.check_raises "crash node out of range"
    (Invalid_argument "boom: fault plan crashes node 5 of a 4-node cluster")
    (fun () -> Faults.check_nodes sp ~nodes:4 ~name:"boom")

(* ---------------------- Sim.Chan.recv_timeout ---------------------- *)

let test_recv_timeout_delivery () =
  let sim = Sim.create () in
  let ch = Sim.Chan.create () in
  let got = ref None in
  Sim.spawn sim (fun () ->
      got := Sim.Chan.recv_timeout sim ch ~timeout:10_000);
  Sim.spawn sim (fun () ->
      Sim.sleep sim 2_000;
      Sim.Chan.send sim ch 42);
  ignore (Sim.run sim);
  Tutil.check_bool "delivered before deadline" true (!got = Some 42)

let test_recv_timeout_expires () =
  let sim = Sim.create () in
  let ch : int Sim.Chan.ch = Sim.Chan.create () in
  let got = ref (Some 0) in
  let at = ref 0 in
  Sim.spawn sim (fun () ->
      got := Sim.Chan.recv_timeout sim ch ~timeout:5_000;
      at := Sim.now sim);
  ignore (Sim.run sim);
  Tutil.check_bool "timed out" true (!got = None);
  Tutil.check_bool "clock advanced to deadline" true (!at >= 5_000)

let test_recv_timeout_late_message_kept () =
  (* A message that arrives after the deadline times out the first
     receiver but is still delivered to a later plain recv. *)
  let sim = Sim.create () in
  let ch = Sim.Chan.create () in
  let first = ref (Some 0) and second = ref 0 in
  Sim.spawn sim (fun () ->
      first := Sim.Chan.recv_timeout sim ch ~timeout:1_000;
      second := Sim.Chan.recv sim ch);
  Sim.spawn sim (fun () -> Sim.Chan.send ~delay:8_000 sim ch 7);
  ignore (Sim.run sim);
  Tutil.check_bool "first timed out" true (!first = None);
  Tutil.check_int "late message preserved" 7 !second

let test_recv_timeout_negative_rejected () =
  let sim = Sim.create () in
  let ch : int Sim.Chan.ch = Sim.Chan.create () in
  Sim.spawn sim (fun () ->
      Alcotest.check_raises "negative timeout"
        (Invalid_argument "Sim.Chan.recv_timeout: negative timeout")
        (fun () -> ignore (Sim.Chan.recv_timeout sim ch ~timeout:(-1))));
  ignore (Sim.run sim)

(* ----------------------------- Net ----------------------------- *)

let with_net ?faults ~nodes f =
  let sim = Sim.create () in
  let net = Net.create ?faults sim Quill_sim.Costs.zero ~nodes in
  f sim net;
  ignore (Sim.run sim)

let test_net_validates_indices () =
  with_net ~nodes:3 (fun sim net ->
      Sim.spawn sim (fun () ->
          Alcotest.check_raises "bad dst"
            (Invalid_argument
               "Net.send: destination node 3 out of range for a 3-node \
                cluster")
            (fun () -> Net.send net ~src:0 ~dst:3 ~bytes:8 ());
          Alcotest.check_raises "bad src"
            (Invalid_argument
               "Net.send: source node -1 out of range for a 3-node cluster")
            (fun () -> Net.send net ~src:(-1) ~dst:0 ~bytes:8 ());
          Alcotest.check_raises "bad recv node"
            (Invalid_argument
               "Net.recv: receiving node 7 out of range for a 3-node cluster")
            (fun () -> ignore (Net.recv net ~node:7))));
  Alcotest.check_raises "bad node count"
    (Invalid_argument "Net.create: node count must be positive") (fun () ->
      let sim = Sim.create () in
      ignore (Net.create sim Quill_sim.Costs.zero ~nodes:0))

let test_net_dup_suppression () =
  (* dup=1.0: every remote message is sent twice and delivered once. *)
  let faults = Faults.make { Faults.none with Faults.dup = 1.0; seed = 5 } in
  let n = 16 in
  let received = ref 0 in
  with_net ~faults ~nodes:2 (fun sim net ->
      Sim.spawn sim (fun () ->
          for i = 1 to n do
            Net.send net ~src:0 ~dst:1 ~bytes:8 i
          done);
      Sim.spawn sim (fun () ->
          for _ = 1 to n do
            ignore (Net.recv net ~node:1)
          done;
          (* nothing fresh left: only suppressed duplicates remain *)
          (match Net.recv_timeout net ~node:1 ~timeout:1_000_000 with
          | None -> ()
          | Some _ -> Alcotest.fail "duplicate escaped suppression");
          received := n));
  Tutil.check_int "all fresh messages received" n !received

let test_net_drop_is_delay_not_loss () =
  (* drop=0.9: heavy loss, yet every message is still delivered
     (retransmission model), just later and with retries counted. *)
  let faults =
    Faults.make
      { Faults.none with Faults.drop = 0.9; seed = 2; rto = 10_000 }
  in
  let n = 32 in
  let sum = ref 0 in
  let retries = ref 0 in
  let sim = Sim.create () in
  let net = Net.create ~faults sim Quill_sim.Costs.zero ~nodes:2 in
  Sim.spawn sim (fun () ->
      for i = 1 to n do
        Net.send net ~src:0 ~dst:1 ~bytes:8 i
      done);
  Sim.spawn sim (fun () ->
      for _ = 1 to n do
        sum := !sum + Net.recv net ~node:1
      done;
      retries := Net.messages_retried net);
  ignore (Sim.run sim);
  Tutil.check_int "every message delivered exactly once" (n * (n + 1) / 2)
    !sum;
  Tutil.check_bool "losses surfaced as retries" true (!retries > 0)

(* ------------------- determinism under faults ------------------- *)

let dq_cfg ?(nodes = 2) ?(batch_size = 128) ?(pipeline = false)
    ?(replicas = 0) ?(spec_lag = 1) () =
  { Dq.nodes; planners = 2; executors = 2; batch_size; pipeline;
    costs = Quill_sim.Costs.default; replicas; spec_lag }

let dc_cfg ?(nodes = 2) ?(batch_size = 128) ?(pipeline = false) () =
  { Dc.nodes; workers = 2; batch_size; costs = Quill_sim.Costs.default;
    pipeline }

let ycsb_for ?(seed = 11) () =
  Tutil.small_ycsb ~table_size:4_000 ~nparts:4 ~theta:0.6 ~mp_ratio:0.3 ~seed
    ()

let fingerprint wl (m : Metrics.t) =
  ( Db.checksum wl.Workload.db,
    m.Metrics.elapsed,
    m.Metrics.committed,
    m.Metrics.msgs,
    m.Metrics.crashes,
    m.Metrics.redone,
    m.Metrics.msg_retries,
    m.Metrics.msg_dup_drops )

let test_zero_rate_plan_is_fault_free () =
  (* drop=0.0, no crashes: bit-identical to running with no plan. *)
  let run faults =
    let wl = Ycsb.make (ycsb_for ()) in
    let m = Dq.run ~faults (dq_cfg ()) wl ~batches:3 in
    fingerprint wl m
  in
  let zero = { Faults.none with Faults.seed = 123; max_retries = 3 } in
  Tutil.check_bool "zero-rate plan == no plan" true
    (run Faults.none = run zero)

let prop_same_seed_same_run =
  QCheck.Test.make ~name:"same fault seed => identical metrics" ~count:5
    QCheck.(int_range 0 1000)
    (fun fseed ->
      let plan =
        {
          Faults.none with
          Faults.seed = fseed;
          drop = 0.05;
          dup = 0.05;
          crashes = [ { Faults.node = 1; at = 100_000; down = 30_000 } ];
        }
      in
      let run () =
        let wl = Ycsb.make (ycsb_for ~seed:(fseed + 1) ()) in
        let m = Dq.run ~faults:plan (dq_cfg ()) wl ~batches:2 in
        fingerprint wl m
      in
      run () = run ())

(* ------------------------ crash recovery ------------------------ *)

(* Probe the fault-free run's virtual duration, then crash node 1
   mid-run and demand the exact fault-free Serial-oracle state. *)
let probe_elapsed run =
  let m = run Faults.none in
  m.Metrics.elapsed

let test_dq_crash_recovers_to_oracle () =
  let cfg = ycsb_for () in
  let run faults =
    let wl = Ycsb.make cfg in
    Dq.run ~faults (dq_cfg ()) wl ~batches:3
  in
  let elapsed = probe_elapsed run in
  let plan =
    {
      Faults.none with
      Faults.seed = 3;
      crashes = [ { Faults.node = 1; at = elapsed / 3; down = 20_000 } ];
    }
  in
  let wl = Ycsb.make cfg in
  let wl_rec, logs = Tutil.record wl in
  let m = Dq.run ~faults:plan (dq_cfg ()) wl_rec ~batches:3 in
  Tutil.check_int "crash fired" 1 m.Metrics.crashes;
  Tutil.check_bool "recovery visible in phase accounting" true
    (m.Metrics.recover_busy > 0);
  let wl2 = Ycsb.make cfg in
  let txns = Tutil.epoch_order logs ~streams:4 ~batch_size:128 ~batches:3 in
  let m2 = Quill_protocols.Serial.run_txns wl2 txns in
  Tutil.check_int "commits match oracle" m2.Metrics.committed
    m.Metrics.committed;
  Tutil.check_bool "state matches fault-free oracle" true
    (Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

let test_dc_crash_recovers_to_oracle () =
  let cfg = ycsb_for () in
  let run faults =
    let wl = Ycsb.make cfg in
    Dc.run ~faults (dc_cfg ()) wl ~batches:3
  in
  let elapsed = probe_elapsed run in
  let plan =
    {
      Faults.none with
      Faults.seed = 4;
      crashes = [ { Faults.node = 1; at = elapsed / 2; down = 20_000 } ];
    }
  in
  let wl = Ycsb.make cfg in
  let wl_rec, logs = Tutil.record wl in
  let m = Dc.run ~faults:plan (dc_cfg ()) wl_rec ~batches:3 in
  Tutil.check_int "crash fired" 1 m.Metrics.crashes;
  let wl2 = Ycsb.make cfg in
  let txns = Tutil.epoch_order logs ~streams:2 ~batch_size:128 ~batches:3 in
  let m2 = Quill_protocols.Serial.run_txns wl2 txns in
  Tutil.check_int "commits match oracle" m2.Metrics.committed
    m.Metrics.committed;
  Tutil.check_bool "state matches fault-free oracle" true
    (Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

(* Replay re-executes work whose value fills went out before the crash;
   sending them again would only feed receivers copies they drop.  With
   no network faults the crash therefore costs no message on either
   engine.  (The downtime can reorder an abort ahead of fragments it then
   skips, which moves a few messages either way; this schedule moves
   none.) *)
let test_crash_replay_sends_no_messages () =
  let cfg = Tutil.small_tpcc ~warehouses:4 ~nparts:4 () in
  List.iter
    (fun (name, run) ->
      let m0 = run Faults.none in
      let plan =
        {
          Faults.none with
          Faults.crashes =
            [ { Faults.node = 1; at = m0.Metrics.elapsed / 5; down = 20_000 } ];
        }
      in
      let m = run plan in
      Tutil.check_int (name ^ ": crash fired") 1 m.Metrics.crashes;
      Tutil.check_bool (name ^ ": work replayed") true (m.Metrics.redone > 0);
      Tutil.check_int (name ^ ": fault-free message count") m0.Metrics.msgs
        m.Metrics.msgs)
    [
      ( "dist-quecc",
        fun faults -> Dq.run ~faults (dq_cfg ()) (Tpcc.make cfg) ~batches:3 );
      ( "dist-calvin",
        fun faults -> Dc.run ~faults (dc_cfg ()) (Tpcc.make cfg) ~batches:3 );
    ]

(* Crash recovery composed with the pipelined planner (PR 5): a node
   crash mid-run with planning/execution overlap must still converge to
   the exact fault-free Serial-oracle state, on both dist engines. *)
let prop_crash_pipeline_oracle =
  QCheck.Test.make ~name:"crash x pipeline -> oracle state (both engines)"
    ~count:4
    QCheck.(pair (int_range 2 5) bool)
    (fun (denom, calvin) ->
      let cfg = ycsb_for ~seed:(denom + if calvin then 50 else 0) () in
      let run_dist ?faults wl =
        if calvin then Dc.run ?faults (dc_cfg ~pipeline:true ()) wl ~batches:3
        else Dq.run ?faults (dq_cfg ~pipeline:true ()) wl ~batches:3
      in
      let probe = run_dist (Ycsb.make cfg) in
      let plan =
        {
          Faults.none with
          Faults.seed = denom;
          crashes =
            [
              {
                Faults.node = 1;
                at = probe.Metrics.elapsed / denom;
                down = 20_000;
              };
            ];
        }
      in
      let wl = Ycsb.make cfg in
      let wl_rec, logs = Tutil.record wl in
      let m = run_dist ~faults:plan wl_rec in
      let wl2 = Ycsb.make cfg in
      let streams = if calvin then 2 else 4 in
      let txns = Tutil.epoch_order logs ~streams ~batch_size:128 ~batches:3 in
      let m2 = Quill_protocols.Serial.run_txns wl2 txns in
      m.Metrics.crashes = 1
      && m.Metrics.committed = m2.Metrics.committed
      && Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

(* Crash recovery composed with --pipeline through the harness: a
   pipelined run must survive a mid-run crash with the fault-free
   committed state, on both dist engines.  Neither reads --split, so the
   capability check rejects it there. *)
let test_crash_with_split_flag () =
  List.iter
    (fun engine ->
      let run faults =
        let held = ref None in
        let e =
          Quill_harness.Experiment.make ~threads:4 ~txns:384 ~batch_size:128
            ~faults ~pipeline:true engine
            (Quill_harness.Experiment.Ycsb (ycsb_for ()))
        in
        let m =
          Quill_harness.Experiment.run
            ~on_workload:(fun wl -> held := Some wl)
            e
        in
        ((Option.get !held).Workload.db |> Db.checksum, m)
      in
      let chk0, m0 = run Faults.none in
      let plan =
        {
          Faults.none with
          Faults.seed = 9;
          crashes =
            [ { Faults.node = 1; at = m0.Metrics.elapsed / 2; down = 20_000 } ];
        }
      in
      let chk, m = run plan in
      let name = Quill_harness.Experiment.engine_name engine in
      Tutil.check_int (name ^ ": crash fired") 1 m.Metrics.crashes;
      Tutil.check_int
        (name ^ ": commits match fault-free")
        m0.Metrics.committed m.Metrics.committed;
      Tutil.check_bool (name ^ ": state matches fault-free") true (chk0 = chk))
    [
      Quill_harness.Experiment.Dist_quecc 2;
      Quill_harness.Experiment.Dist_calvin 2;
    ]

let test_no_double_commit_under_duplication () =
  (* Aggressive duplication + drops: sequence numbers must suppress the
     copies, so every transaction still commits or aborts exactly once
     and the final state matches the fault-free run. *)
  let cfg = ycsb_for () in
  let run faults =
    let wl = Ycsb.make cfg in
    let m = Dq.run ~faults (dq_cfg ()) wl ~batches:3 in
    (Db.checksum wl.Workload.db, m)
  in
  let chk0, m0 = run Faults.none in
  let plan =
    { Faults.none with Faults.seed = 8; dup = 0.5; drop = 0.1 }
  in
  let chk, m = run plan in
  Tutil.check_bool "duplicates actually injected" true
    (m.Metrics.msg_dup_drops > 0);
  Tutil.check_int "commit count unchanged" m0.Metrics.committed
    m.Metrics.committed;
  Tutil.check_int "every txn decided exactly once" (3 * 128)
    (m.Metrics.committed + m.Metrics.logic_aborted);
  Tutil.check_bool "state unchanged by dup/drop noise" true (chk0 = chk)

(* ------------------- HA replication / failover ------------------- *)

(* nodes = 1 (the HA leader) with 2 executors wants a 2-part database. *)
let ycsb_ha ?(seed = 11) () =
  Tutil.small_ycsb ~table_size:4_000 ~nparts:2 ~theta:0.6 ~mp_ratio:0.3 ~seed
    ()

let ha_cfg ?(pipeline = false) ?(replicas = 2) ?(spec_lag = 1) () =
  dq_cfg ~nodes:1 ~pipeline ~replicas ~spec_lag ()

let test_ha_fault_free_matches_unreplicated () =
  (* Streaming queues to backups and gating commits on their acks slows
     the clock but must not change any outcome: same commits, same
     committed state as the unreplicated run. *)
  let cfg = ycsb_ha () in
  let run replicas =
    let wl = Ycsb.make cfg in
    let m = Dq.run (ha_cfg ~replicas ()) wl ~batches:3 in
    (Db.checksum wl.Workload.db, m)
  in
  let chk0, m0 = run 0 in
  let chk, m = run 2 in
  Tutil.check_bool "same committed state" true (chk0 = chk);
  Tutil.check_int "same commits" m0.Metrics.committed m.Metrics.committed;
  Tutil.check_int "replicas surfaced" 2 m.Metrics.replicas;
  Tutil.check_bool "backups speculatively executed every txn" true
    (m.Metrics.spec_executed = 2 * 3 * 128);
  Tutil.check_int "no failover" 0 m.Metrics.failovers;
  Tutil.check_int "nothing wasted" 0 m.Metrics.spec_wasted;
  Tutil.check_bool "replication bytes on the wire" true
    (m.Metrics.msg_bytes > 0)

let test_ha_failover_matches_fault_free () =
  (* Kill the leader mid-run: the elected backup must finish the run
     with the exact fault-free committed state — zero lost and zero
     double commits — and goodput must recover within an epoch. *)
  let cfg = ycsb_ha () in
  let run faults =
    let wl = Ycsb.make cfg in
    let m = Dq.run ~faults (ha_cfg ()) wl ~batches:3 in
    (Db.checksum wl.Workload.db, m)
  in
  let chk0, m0 = run Faults.none in
  let epoch = m0.Metrics.elapsed / 3 in
  let plan =
    {
      Faults.none with
      Faults.seed = 3;
      crashes = [ { Faults.node = 0; at = m0.Metrics.elapsed / 3; down = 1 } ];
    }
  in
  let chk, m = run plan in
  Tutil.check_int "crash fired" 1 m.Metrics.crashes;
  Tutil.check_int "one failover" 1 m.Metrics.failovers;
  Tutil.check_bool "zero lost, zero double commits" true
    (m.Metrics.committed = m0.Metrics.committed);
  Tutil.check_bool "committed state bit-identical to fault-free" true
    (chk0 = chk);
  Tutil.check_bool "speculation did real work" true
    (m.Metrics.spec_executed > 0);
  Tutil.check_bool
    (Printf.sprintf "failover %dns within one epoch %dns"
       m.Metrics.failover_time epoch)
    true
    (m.Metrics.failover_time > 0 && m.Metrics.failover_time < epoch)

let test_ha_failover_deterministic () =
  let cfg = ycsb_ha () in
  let probe = Dq.run (ha_cfg ()) (Ycsb.make cfg) ~batches:3 in
  let plan =
    {
      Faults.none with
      Faults.seed = 5;
      crashes =
        [ { Faults.node = 0; at = probe.Metrics.elapsed / 2; down = 1 } ];
    }
  in
  let run () =
    let wl = Ycsb.make cfg in
    let m = Dq.run ~faults:plan (ha_cfg ()) wl ~batches:3 in
    ( fingerprint wl m,
      m.Metrics.failovers,
      m.Metrics.failover_time,
      m.Metrics.spec_executed,
      m.Metrics.spec_wasted )
  in
  Tutil.check_bool "same seed => identical failover run" true (run () = run ())

let test_ha_spec_lag_bound () =
  (* The observed replication lag never exceeds the configured bound,
     and a wider bound is actually usable under pipelining. *)
  List.iter
    (fun (pipeline, spec_lag) ->
      let wl = Ycsb.make (ycsb_ha ()) in
      let m = Dq.run (ha_cfg ~pipeline ~spec_lag ()) wl ~batches:4 in
      Tutil.check_bool
        (Printf.sprintf "lag_max %d <= spec_lag %d (pipeline=%b)"
           m.Metrics.rep_lag_max spec_lag pipeline)
        true
        (m.Metrics.rep_lag_max >= 1 && m.Metrics.rep_lag_max <= spec_lag))
    [ (false, 1); (false, 2); (true, 1); (true, 2); (true, 4) ]

let test_ha_pipeline_failover () =
  (* Leader crash mid-run with the lag-1 pipeline on: still the exact
     fault-free state. *)
  let cfg = ycsb_ha ~seed:17 () in
  let run faults =
    let wl = Ycsb.make cfg in
    let m = Dq.run ~faults (ha_cfg ~pipeline:true ~spec_lag:2 ()) wl ~batches:4 in
    (Db.checksum wl.Workload.db, m)
  in
  let chk0, m0 = run Faults.none in
  let plan =
    {
      Faults.none with
      Faults.seed = 7;
      crashes = [ { Faults.node = 0; at = m0.Metrics.elapsed / 2; down = 1 } ];
    }
  in
  let chk, m = run plan in
  Tutil.check_int "one failover" 1 m.Metrics.failovers;
  Tutil.check_bool "commits preserved" true
    (m.Metrics.committed = m0.Metrics.committed);
  Tutil.check_bool "state preserved" true (chk0 = chk)

let test_ha_validation () =
  let wl () = Ycsb.make (ycsb_for ()) in
  Alcotest.check_raises "replication wants a single-node leader"
    (Invalid_argument "Dist_quecc.run: --replicas wants a single-node leader")
    (fun () ->
      ignore (Dq.run (dq_cfg ~nodes:2 ~replicas:1 ()) (wl ()) ~batches:1));
  Alcotest.check_raises "spec_lag must be positive"
    (Invalid_argument "Dist_quecc.run: spec_lag must be >= 1")
    (fun () ->
      ignore
        (Dq.run
           (dq_cfg ~nodes:1 ~replicas:1 ~spec_lag:0 ())
           (Ycsb.make (ycsb_ha ()))
           ~batches:1));
  let e =
    Quill_harness.Experiment.make ~threads:4 ~txns:256 ~batch_size:128
      ~replicas:2 Quill_harness.Experiment.Silo
      (Quill_harness.Experiment.Ycsb (ycsb_for ()))
  in
  Alcotest.check_raises "replicas rejected off dist-quecc"
    (Invalid_argument
       "Experiment.run: --replicas requires the 'replication' capability, \
        but engine silo provides {clients}")
    (fun () -> ignore (Quill_harness.Experiment.run e))

let test_faults_rejected_on_centralized () =
  let e =
    Quill_harness.Experiment.make ~threads:2 ~txns:256 ~batch_size:128
      ~faults:{ Faults.none with Faults.drop = 0.01 }
      Quill_harness.Experiment.Silo
      (Quill_harness.Experiment.Ycsb (ycsb_for ()))
  in
  Alcotest.check_raises "centralized engines reject fault plans"
    (Invalid_argument
       "Experiment.run: a fault plan (--faults) requires the 'faults' \
        capability, but engine silo provides {clients}")
    (fun () -> ignore (Quill_harness.Experiment.run e))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "full grammar" `Quick test_parse_full;
          Alcotest.test_case "round-trip" `Quick test_parse_round_trip;
          Alcotest.test_case "diagnostics" `Quick test_parse_errors;
          Alcotest.test_case "crash validation" `Quick
            test_parse_crash_validation;
          Alcotest.test_case "disk clauses" `Quick test_parse_disk;
          Alcotest.test_case "disk diagnostics" `Quick
            test_parse_disk_errors;
          Alcotest.test_case "active" `Quick test_active;
          Alcotest.test_case "node validation" `Quick test_check_nodes;
        ] );
      ( "recv-timeout",
        [
          Alcotest.test_case "delivery" `Quick test_recv_timeout_delivery;
          Alcotest.test_case "expiry" `Quick test_recv_timeout_expires;
          Alcotest.test_case "late message kept" `Quick
            test_recv_timeout_late_message_kept;
          Alcotest.test_case "negative rejected" `Quick
            test_recv_timeout_negative_rejected;
        ] );
      ( "net",
        [
          Alcotest.test_case "index validation" `Quick
            test_net_validates_indices;
          Alcotest.test_case "duplicate suppression" `Quick
            test_net_dup_suppression;
          Alcotest.test_case "drop is delay, not loss" `Quick
            test_net_drop_is_delay_not_loss;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "zero-rate plan == fault-free" `Quick
            test_zero_rate_plan_is_fault_free;
          qc prop_same_seed_same_run;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "dist-quecc crash -> oracle state" `Quick
            test_dq_crash_recovers_to_oracle;
          Alcotest.test_case "dist-calvin crash -> oracle state" `Quick
            test_dc_crash_recovers_to_oracle;
          Alcotest.test_case "crash replay sends no messages" `Quick
            test_crash_replay_sends_no_messages;
          qc prop_crash_pipeline_oracle;
          Alcotest.test_case "crash x split flag (both engines)" `Quick
            test_crash_with_split_flag;
          Alcotest.test_case "no double commits under duplication" `Quick
            test_no_double_commit_under_duplication;
          Alcotest.test_case "centralized engines reject plans" `Quick
            test_faults_rejected_on_centralized;
        ] );
      ( "ha",
        [
          Alcotest.test_case "fault-free == unreplicated" `Quick
            test_ha_fault_free_matches_unreplicated;
          Alcotest.test_case "leader crash -> fault-free state" `Quick
            test_ha_failover_matches_fault_free;
          Alcotest.test_case "failover deterministic" `Quick
            test_ha_failover_deterministic;
          Alcotest.test_case "spec-lag bound" `Quick test_ha_spec_lag_bound;
          Alcotest.test_case "pipelined failover" `Quick
            test_ha_pipeline_failover;
          Alcotest.test_case "cfg validation" `Quick test_ha_validation;
        ] );
    ]
