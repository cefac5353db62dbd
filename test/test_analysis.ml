(* quill-check battery: the determinism lint (rule-by-rule, waiver
   lifecycle) and the planned-order conflict detector (mutation tests
   proving each rule actually fires on an injected violation, plus an
   engine sweep proving real runs are violation-free and that recording
   never perturbs committed state). *)

open Quill_storage
open Quill_txn
open Quill_workloads
module L = Quill_analysis.Lint
module A = Quill_analysis.Access_log
module CC = Quill_analysis.Conflict_check
module Engine = Quill_quecc.Engine
module Dq = Quill_dist.Dist_quecc
module Sim = Quill_sim.Sim

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let rules fs = List.map (fun f -> f.L.f_rule) fs
let lint ?engine_names src = L.lint_source ~file:"test/fake.ml" ?engine_names src

let test_lint_d1 () =
  Tutil.check_bool "Random.int flagged" true
    (rules (lint "let x = Random.int 5") = [ "D1" ]);
  Tutil.check_bool "Random.self_init flagged" true
    (rules (lint "let () = Random.self_init ()") = [ "D1" ]);
  Tutil.check_bool "rng.ml allowlisted" true
    (L.lint_source ~file:"lib/common/rng.ml" "let x = Random.int 5" = []);
  Tutil.check_bool "Common.Rng clean" true
    (lint "let x = Quill_common.Rng.int r 5" = [])

let test_lint_d2 () =
  Tutil.check_bool "gettimeofday flagged" true
    (rules (lint "let t = Unix.gettimeofday ()") = [ "D2" ]);
  Tutil.check_bool "Sys.time flagged" true
    (rules (lint "let t = Sys.time ()") = [ "D2" ]);
  Tutil.check_bool "trace.ml allowlisted" true
    (L.lint_source ~file:"lib/trace/trace.ml" "let t = Unix.gettimeofday ()"
    = [])

let test_lint_d3_waivers () =
  Tutil.check_bool "Hashtbl.iter flagged" true
    (rules (lint "let () = Hashtbl.iter f h") = [ "D3" ]);
  Tutil.check_bool "Hashtbl.fold flagged" true
    (rules (lint "let x = Hashtbl.fold f h []") = [ "D3" ]);
  Tutil.check_bool "justified waiver above suppresses" true
    (lint "(* lint: order-insensitive -- commutative sum *)\n\
           let x = Hashtbl.fold f h []"
    = []);
  Tutil.check_bool "justified waiver on the line suppresses" true
    (lint "let () = Hashtbl.iter f h (* lint: order-insensitive -- scan *)"
    = []);
  (* A waiver with no justification still suppresses the hit but is
     itself a W2 finding, so the tree keeps failing until someone says
     why. *)
  Tutil.check_bool "unjustified waiver -> W2" true
    (rules (lint "(* lint: order-insensitive *)\nlet () = Hashtbl.iter f h")
    = [ "W2" ]);
  Tutil.check_bool "stale waiver -> W1" true
    (rules (lint "(* lint: order-insensitive -- nothing here *)\nlet x = 1")
    = [ "W1" ]);
  Tutil.check_bool "unknown keyword -> W1" true
    (rules (lint "(* lint: no-such-rule -- hm *)\nlet x = 1") = [ "W1" ]);
  Tutil.check_bool "waiver two lines up does not reach" true
    (rules
       (lint
          "(* lint: order-insensitive -- too far away *)\n\
           let y = 1\n\
           let () = Hashtbl.iter f h")
    = [ "W1"; "D3" ]);
  (* A table built by the functor iterates in the same unspecified
     order, so its [iter]/[fold] are hits too when the file binds it. *)
  Tutil.check_bool "Hashtbl.Make module iter flagged" true
    (rules (lint "module H = Hashtbl.Make (Int)\nlet () = H.iter f h")
    = [ "D3" ]);
  Tutil.check_bool "Hashtbl.MakeSeeded module fold flagged" true
    (rules
       (lint "module H = Stdlib.Hashtbl.MakeSeeded (S)\nlet x = H.fold f h []")
    = [ "D3" ]);
  Tutil.check_bool "constrained functor module flagged" true
    (rules
       (lint
          "module H : Hashtbl.S with type key = int = Hashtbl.Make (Int)\n\
           let () = H.iter f h")
    = [ "D3" ]);
  Tutil.check_bool "nested functor module flagged" true
    (rules
       (lint
          "module M = struct module H = Hashtbl.Make (Int) end\n\
           let () = M.H.iter f h")
    = [ "D3" ]);
  Tutil.check_bool "functor module waiver suppresses" true
    (lint
       "module H = Hashtbl.Make (Int)\n\
        (* lint: order-insensitive -- commutative sum *)\n\
        let x = H.fold f h 0"
    = []);
  Tutil.check_bool "functor module lookups clean" true
    (lint "module H = Hashtbl.Make (Int)\nlet () = H.replace h 1 (H.find h 0)"
    = []);
  Tutil.check_bool "iter of other modules clean" true
    (lint "module H = Map.Make (Int)\nlet () = H.iter f m; Vec.iter g v"
    = []);
  (* prose that merely mentions the syntax is not a waiver *)
  Tutil.check_bool "mention in prose ignored" true
    (lint "(* see the lint: rules in DESIGN.md *)\nlet x = 1" = [])

let test_lint_d4 () =
  let en = [ "quecc"; "dist-quecc" ] in
  Tutil.check_bool "engine literal flagged" true
    (rules (lint ~engine_names:en "let e = \"quecc\"") = [ "D4" ]);
  Tutil.check_bool "engine literal in pattern flagged" true
    (rules
       (lint ~engine_names:en
          "let f = function \"dist-quecc\" -> 1 | _ -> 0")
    = [ "D4" ]);
  Tutil.check_bool "other strings clean" true
    (lint ~engine_names:en "let s = \"quecc-like\"" = []);
  Tutil.check_bool "registry allowlisted" true
    (L.lint_source ~file:"lib/harness/engine_registry.ml" ~engine_names:en
       "let e = \"quecc\""
    = [])

let test_lint_d5 () =
  Tutil.check_bool "Obj.magic flagged" true
    (rules (lint "let x = Obj.magic 0") = [ "D5" ]);
  Tutil.check_bool "phys-eq flagged" true
    (rules (lint "let b = a == c") = [ "D5" ]);
  Tutil.check_bool "structural eq clean" true (lint "let b = a = c" = []);
  Tutil.check_bool "pcommon.ml allowlisted" true
    (L.lint_source ~file:"lib/protocols/pcommon.ml" "let b = a == c" = [])

let test_lint_d6_e0 () =
  Tutil.check_bool "missing mli -> D6" true
    (rules (L.lint_source ~file:"lib/x/y.ml" ~expect_mli:true "let x = 1")
    = [ "D6" ]);
  Tutil.check_bool "parse error -> E0" true
    (rules (lint "let let let") = [ "E0" ])

(* ------------------------------------------------------------------ *)
(* Conflict detector: mutation tests on synthetic logs                 *)
(* ------------------------------------------------------------------ *)

(* A hand-driven log: we control the clock, phase and thread id, and
   stamp queue slots exactly as an engine drain loop would.  Each test
   injects one specific ordering violation and asserts the matching
   rule (and only it) fires — proof the detector detects. *)
let make_log () =
  let phase = ref Sim.Ph_execute and tid = ref 0 in
  let log = A.create () in
  A.attach log ~sync:ignore
    ~now:(fun () -> 0)
    ~phase:(fun () -> !phase)
    ~tid:(fun () -> !tid);
  (log, phase, tid)

let slot log ?(subseq = -1) ~thread ~owner ~prio ~pos () =
  A.set_slot log ~thread ~owner ~prio ~subseq ~pos ~batch:0

let vrules r = List.map (fun v -> v.CC.v_rule) r.CC.violations

let test_cc_priority_order () =
  (* in planned order: prio 0 then prio 1 -> clean *)
  let log, _, _ = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  slot log ~thread:0 ~owner:0 ~prio:1 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  Tutil.check_bool "in-order writes clean" true (CC.ok (CC.check_log log));
  (* mutation: same two writes executed against planned order *)
  let log, _, _ = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:1 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  let r = CC.check_log log in
  Tutil.check_bool "out-of-order write caught, exactly once" true
    (vrules r = [ CC.Priority_order ]);
  (* position within one queue orders too *)
  let log, _, _ = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:5 ();
  A.record_row log ~table:0 ~key:3 ~op:A.Write;
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:2 ();
  A.record_row log ~table:0 ~key:3 ~op:A.Read;
  Tutil.check_bool "pos-inverted read-after-write caught" true
    (vrules (CC.check_log log) = [ CC.Priority_order ])

let test_cc_exemptions () =
  (* read-read pairs never conflict *)
  let log, _, _ = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:1 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Read;
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Read;
  Tutil.check_bool "read-read out of order is fine" true
    (CC.ok (CC.check_log log));
  (* a committed-image read at a lower slot than an already-executed
     write commutes: served from the committed image, not the write *)
  let log, _, _ = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:1 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Committed_read;
  Tutil.check_bool "rc-read exempt" true (CC.ok (CC.check_log log));
  (* recovery replay legitimately re-executes out of global order *)
  let log, phase, _ = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:1 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  phase := Sim.Ph_recover;
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  Tutil.check_bool "recovery replay exempt" true (CC.ok (CC.check_log log))

let test_cc_plan_access () =
  let log, phase, _ = make_log () in
  phase := Sim.Ph_plan;
  A.record_row log ~table:0 ~key:1 ~op:A.Read;
  Tutil.check_bool "row access during planning caught" true
    (vrules (CC.check_log log) = [ CC.Plan_access ]);
  let log, phase, _ = make_log () in
  phase := Sim.Ph_plan;
  A.record_probe log ~table:"usertable" ~key:1 ~insert:false;
  Tutil.check_bool "storage probe during planning caught" true
    (vrules (CC.check_log log) = [ CC.Plan_access ]);
  (* execute-phase probes are not planning accesses *)
  let log, _, _ = make_log () in
  A.record_probe log ~table:"usertable" ~key:1 ~insert:false;
  Tutil.check_bool "execute-phase probe fine" true (CC.ok (CC.check_log log))

let test_cc_cross_owner () =
  let log, _, tid = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  tid := 1;
  slot log ~thread:1 ~owner:1 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:7 ~op:A.Write;
  Tutil.check_bool "same key planned into two owners caught" true
    (List.mem CC.Cross_owner (vrules (CC.check_log log)))

let test_cc_steal_overlap () =
  (* thread 1 steals owner 2's queue while thread 0 is concurrently
     draining its own queue that shares key 9 -> signatures were not
     disjoint.  Reads keep Cross_owner out of the picture: the steal
     rule must catch this on its own. *)
  let log, _, tid = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:1 ~op:A.Read;
  tid := 1;
  slot log ~thread:1 ~owner:2 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:9 ~op:A.Read;
  tid := 0;
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:1 ();
  A.record_row log ~table:0 ~key:9 ~op:A.Read;
  let r = CC.check_log log in
  Tutil.check_int "steal observed" 1 r.CC.r_stolen;
  Tutil.check_bool "overlapping steal caught" true
    (vrules r = [ CC.Steal_overlap ]);
  (* same shape with disjoint keys: a legitimate steal, no violation *)
  let log, _, tid = make_log () in
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:1 ~op:A.Read;
  tid := 1;
  slot log ~thread:1 ~owner:2 ~prio:0 ~pos:0 ();
  A.record_row log ~table:0 ~key:9 ~op:A.Read;
  tid := 0;
  slot log ~thread:0 ~owner:0 ~prio:0 ~pos:1 ();
  A.record_row log ~table:0 ~key:2 ~op:A.Read;
  let r = CC.check_log log in
  Tutil.check_int "steal still observed" 1 r.CC.r_stolen;
  Tutil.check_bool "disjoint steal clean" true (CC.ok r)

(* ------------------------------------------------------------------ *)
(* Engine sweep: real runs are violation-free and recording is free    *)
(* ------------------------------------------------------------------ *)

let run_quecc ?(mode = Engine.Speculative) ?(isolation = Engine.Serializable)
    ?(pipeline = false) ?(steal = false) ?split ?adapt ?recorder cfg
    ~batch_size =
  let wl = Ycsb.make cfg in
  let m =
    Engine.run ?recorder
      { Engine.planners = 4; executors = 4; batch_size; mode; isolation;
        costs = Quill_sim.Costs.default; pipeline; steal; split; adapt }
      wl ~batches:4
  in
  (Db.checksum wl.Workload.db, m)

let check_recorded_run name ?mode ?isolation ?pipeline ?steal ?split ?adapt
    cfg ~batch_size =
  let base, _ =
    run_quecc ?mode ?isolation ?pipeline ?steal ?split ?adapt cfg ~batch_size
  in
  let log = A.create () in
  let chk, m =
    run_quecc ?mode ?isolation ?pipeline ?steal ?split ?adapt ~recorder:log
      cfg ~batch_size
  in
  let r = CC.check_log log in
  if not (CC.ok r) then
    Format.eprintf "%s: %a@." name CC.pp_report r;
  Tutil.check_bool (name ^ ": zero violations") true (CC.ok r);
  Tutil.check_bool (name ^ ": accesses recorded") true (r.CC.r_rows > 0);
  Tutil.check_bool (name ^ ": state bit-identical under recording") true
    (base = chk);
  (r, m)

let contended () = Tutil.small_ycsb ~table_size:4_000 ~nparts:4 ~theta:0.9 ()

let test_sweep_modes () =
  List.iter
    (fun (name, mode, isolation) ->
      ignore
        (check_recorded_run name ~mode ~isolation (contended ())
           ~batch_size:128))
    [
      ("spec-ser", Engine.Speculative, Engine.Serializable);
      ("cons-ser", Engine.Conservative, Engine.Serializable);
      ("spec-rc", Engine.Speculative, Engine.Read_committed);
      ("cons-rc", Engine.Conservative, Engine.Read_committed);
    ]

let test_sweep_pipeline () =
  ignore
    (check_recorded_run "pipeline" ~pipeline:true (contended ())
       ~batch_size:128);
  ignore
    (check_recorded_run "pipeline+steal" ~pipeline:true ~steal:true
       (Tutil.small_ycsb ~table_size:10_000 ~nparts:1 ~theta:0.0
          ~read_ratio:0.0 ())
       ~batch_size:32)

let test_sweep_steal () =
  (* the steal-conservation configuration: single-partition routing
     starves three executors, so steals must fire — and the checker's
     independently reconstructed steal count must agree with the
     engine's own metric. *)
  let cfg =
    Tutil.small_ycsb ~table_size:10_000 ~nparts:1 ~theta:0.0 ~read_ratio:0.0
      ()
  in
  let r, m = check_recorded_run "steal" ~steal:true cfg ~batch_size:32 in
  Tutil.check_bool "steals fired" true (m.Metrics.stolen_queues > 0);
  Tutil.check_int "checker sees every steal" m.Metrics.stolen_queues
    r.CC.r_stolen

let test_sweep_split () =
  (* Hot-key splitting under global zipf: the checker must reconstruct
     the sub-queue chains (C3 per-key order) and find no violations, and
     its independent segment count must agree with the engine's
     split_subqueues metric. *)
  let cfg =
    Tutil.small_ycsb ~table_size:2_000 ~nparts:4 ~theta:0.9 ~global_zipf:true
      ()
  in
  let split = Some { Engine.hot_threshold = 8; max_subqueues = 4 } in
  let r, m = check_recorded_run "split" ?split cfg ~batch_size:128 in
  Tutil.check_bool "splits fired" true (m.Metrics.split_keys > 0);
  Tutil.check_int "checker sees every sub-queue segment"
    m.Metrics.split_subqueues r.CC.r_segments;
  (* splitting + stealing together: split keys stay in the steal
     signatures (the home queue must keep protecting the key's
     cross-priority order while its chain is in flight), so under global
     hotness most candidate steals are rightly rejected — the joint
     invariant is exact accounting, not forced firing: every steal the
     engine counts is one the checker independently reconstructs, with
     segments riding in the same batches. *)
  let cfg_steal =
    Tutil.small_ycsb ~table_size:10_000 ~nparts:1 ~theta:0.9 ~global_zipf:true
      ~read_ratio:0.0 ()
  in
  let r2, m2 =
    check_recorded_run "split+steal" ~steal:true ?split cfg_steal
      ~batch_size:128
  in
  Tutil.check_bool "splits fired alongside stealing" true
    (m2.Metrics.split_keys > 0);
  Tutil.check_bool "steals attempted" true (m2.Metrics.steal_attempts > 0);
  Tutil.check_int "accepted steals = attempts - rejects"
    (m2.Metrics.steal_attempts - m2.Metrics.steal_rejects)
    m2.Metrics.stolen_queues;
  Tutil.check_int "steal count exact with segments present"
    m2.Metrics.stolen_queues r2.CC.r_stolen

let test_sweep_dist () =
  let cfg =
    Tutil.small_ycsb ~table_size:4_000 ~nparts:4 ~theta:0.6 ~mp_ratio:0.3 ()
  in
  List.iter
    (fun (name, pipeline) ->
      let run ?recorder () =
        let wl = Ycsb.make cfg in
        let m =
          Dq.run ?recorder
            { Dq.nodes = 2; planners = 2; executors = 2; batch_size = 128;
              costs = Quill_sim.Costs.default; pipeline; replicas = 0;
              spec_lag = 1 }
            wl ~batches:3
        in
        (Db.checksum wl.Workload.db, m)
      in
      let base, _ = run () in
      let log = A.create () in
      let chk, _ = run ~recorder:log () in
      let r = CC.check_log log in
      if not (CC.ok r) then Format.eprintf "%s: %a@." name CC.pp_report r;
      Tutil.check_bool (name ^ ": zero violations") true (CC.ok r);
      Tutil.check_bool (name ^ ": accesses recorded") true (r.CC.r_rows > 0);
      Tutil.check_bool (name ^ ": state bit-identical under recording") true
        (base = chk))
    [ ("dist", false); ("dist+pipe", true) ]

(* Randomized sweep: any seed/contention/pipeline/steal combination is
   violation-free and commits identical state with the recorder on. *)
let qcheck_sweep =
  QCheck.Test.make ~count:8 ~name:"recorded runs conflict-free (random cfg)"
    QCheck.(
      quad (int_bound 999) (int_bound 95) bool bool)
    (fun (seed, theta_pct, pipeline, steal) ->
      let nparts = if steal then 1 else 4 in
      let cfg =
        Tutil.small_ycsb ~table_size:4_000 ~nparts
          ~theta:(float_of_int theta_pct /. 100.)
          ~seed:(seed + 1) ()
      in
      let base, _ = run_quecc ~pipeline ~steal cfg ~batch_size:64 in
      let log = A.create () in
      let chk, _ =
        run_quecc ~pipeline ~steal ~recorder:log cfg ~batch_size:64
      in
      CC.ok (CC.check_log log) && base = chk)

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "D1 random" `Quick test_lint_d1;
          Alcotest.test_case "D2 wall clock" `Quick test_lint_d2;
          Alcotest.test_case "D3 + waiver lifecycle" `Quick
            test_lint_d3_waivers;
          Alcotest.test_case "D4 engine names" `Quick test_lint_d4;
          Alcotest.test_case "D5 magic / phys-eq" `Quick test_lint_d5;
          Alcotest.test_case "D6 / E0" `Quick test_lint_d6_e0;
        ] );
      ( "conflict-check",
        [
          Alcotest.test_case "priority order mutations" `Quick
            test_cc_priority_order;
          Alcotest.test_case "exemptions" `Quick test_cc_exemptions;
          Alcotest.test_case "plan access mutations" `Quick
            test_cc_plan_access;
          Alcotest.test_case "cross owner mutation" `Quick
            test_cc_cross_owner;
          Alcotest.test_case "steal overlap mutations" `Quick
            test_cc_steal_overlap;
        ] );
      ( "engine-sweep",
        [
          Alcotest.test_case "modes x isolation" `Quick test_sweep_modes;
          Alcotest.test_case "pipeline" `Quick test_sweep_pipeline;
          Alcotest.test_case "steal accounting" `Quick test_sweep_steal;
          Alcotest.test_case "split accounting" `Quick test_sweep_split;
          Alcotest.test_case "dist-quecc" `Quick test_sweep_dist;
          QCheck_alcotest.to_alcotest qcheck_sweep;
        ] );
    ]
