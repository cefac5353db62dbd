(* Open-loop client layer: flag parsing, admission policies, retry
   semantics (aborted-then-retried commits exactly once, against a
   serial-oracle state), and bit-identical determinism of overloaded
   runs for a given seed. *)

open Quill_common
open Quill_storage
open Quill_txn
open Quill_workloads
module C = Quill_clients.Clients
module Sim = Quill_sim.Sim
module Qe = Quill_quecc.Engine
module E = Quill_harness.Experiment

(* ------------------------- flag parsing ------------------------- *)

let arrival_ok s =
  match C.parse_arrival s with
  | Ok a -> a
  | Error e -> Alcotest.failf "parse_arrival %S failed: %s" s e

let test_parse_time () =
  let parse_time = Quill_faults.Faults.parse_time in
  List.iter
    (fun (s, ns) ->
      match parse_time s with
      | Ok v -> Tutil.check_int ("parse_time " ^ s) ns v
      | Error e -> Alcotest.failf "parse_time %S failed: %s" s e)
    [
      ("500ns", 500); ("2us", 2_000); ("1.5ms", 1_500_000);
      ("1s", 1_000_000_000); ("300", 300); ("0", 0);
    ];
  List.iter
    (fun s ->
      match parse_time s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "expected parse_time %S to fail, got %d" s v)
    [ "oops"; "-3us"; "5miles"; ""; "inf"; "1e30s"; "nan"; "infs" ];
  (* The flags built on the grammar reject the same values. *)
  List.iter
    (fun (flag, r) ->
      match r with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %s to be rejected" flag)
    [
      ("burst on=inf", Result.map ignore (C.parse_arrival "burst:1e6:inf:1us"));
      ("retries backoff=nan", Result.map ignore (C.parse_retries "3:nan"));
    ]

let test_parse_arrival () =
  (match arrival_ok "250000" with
  | C.Poisson r -> Tutil.check_bool "poisson rate" true (r = 250_000.0)
  | a -> Alcotest.failf "expected Poisson, got %s" (C.arrival_to_string a));
  (match arrival_ok "burst:1e6:100us:50us" with
  | C.Bursty { rate; on_ns; off_ns } ->
      Tutil.check_bool "burst rate" true (rate = 1e6);
      Tutil.check_int "burst on" 100_000 on_ns;
      Tutil.check_int "burst off" 50_000 off_ns
  | a -> Alcotest.failf "expected Bursty, got %s" (C.arrival_to_string a));
  (* to_string round-trips through the parser *)
  List.iter
    (fun s ->
      let a = arrival_ok s in
      Tutil.check_bool ("round-trip " ^ s) true
        (arrival_ok (C.arrival_to_string a) = a))
    [ "250000"; "2.5e6"; "burst:1e6:100us:50us" ];
  List.iter
    (fun s ->
      match C.parse_arrival s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error e ->
          Tutil.check_bool "one-line diagnostic" true
            (String.length e > 0 && not (String.contains e '\n')))
    [ "0"; "-5"; "fast"; "burst:1e6:100us"; "burst:0:1us:1us" ]

let test_parse_admission () =
  List.iter
    (fun (s, want) ->
      match C.parse_admission s with
      | Ok got -> Tutil.check_bool ("admission " ^ s) true (got = want)
      | Error e -> Alcotest.failf "parse_admission %S failed: %s" s e)
    [
      ("block", (C.Block, C.default.C.depth));
      ("shed:256", (C.Shed_oldest, 256));
      ("shed-oldest:4", (C.Shed_oldest, 4));
      ("shed-newest", (C.Shed_newest, C.default.C.depth));
      ("deadline:64", (C.Deadline, 64));
    ];
  List.iter
    (fun s ->
      match C.parse_admission s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    [ "fifo"; "block:0"; "shed:-4"; "shed:many"; "a:b:c" ]

let test_parse_retries () =
  List.iter
    (fun (s, want) ->
      match C.parse_retries s with
      | Ok got -> Tutil.check_bool ("retries " ^ s) true (got = want)
      | Error e -> Alcotest.failf "parse_retries %S failed: %s" s e)
    [ ("3", (3, C.default.C.backoff)); ("5:4us", (5, 4_000)); ("0", (0, C.default.C.backoff)) ];
  List.iter
    (fun s ->
      match C.parse_retries s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    [ "-1"; "many"; "3:fast"; "3:2us:junk" ]

(* ------------------------- admission policies ------------------------- *)

(* Drive the client layer directly: one consumer thread plays engine,
   taking entries and resolving them [service_ns] apart.  Returns the
   recorded metrics; a deadlocked sim would make Sim.run return
   nonzero, which we assert against. *)
let run_policy ?(total = 64) ?(service_ns = 1_000) ?(ok = fun _ -> true) cfg =
  let wl = Ycsb.make (Tutil.small_ycsb ()) in
  let sim = Sim.create () in
  let c = C.create ~sim ~nodes:1 wl { cfg with C.total } in
  Sim.spawn sim (fun () ->
      let rec go () =
        match C.take c ~node:0 with
        | None -> ()
        | Some e ->
            Sim.tick sim service_ns;
            C.complete c e ~ok:(ok e);
            go ()
      in
      go ());
  let parked = Sim.run sim in
  Tutil.check_int "no deadlocked threads" 0 parked;
  Tutil.check_bool "exhausted at end" true (C.exhausted c);
  let m = Metrics.create () in
  C.record c m;
  m

(* Every offered transaction resolves exactly one way. *)
let check_conservation (m : Metrics.t) =
  Tutil.check_int "offered = completions + shed + misses + exhausted"
    m.Metrics.offered
    (Stats.Hist.count m.Metrics.client_lat
    + m.Metrics.shed + m.Metrics.deadline_miss + m.Metrics.retry_exhausted)

let overload_cfg policy =
  {
    C.default with
    C.arrival = C.Poisson 1e9 (* ~1ns gaps: far beyond service rate *);
    clients = 2;
    depth = 4;
    policy;
  }

let test_block_backpressure () =
  let m = run_policy (overload_cfg C.Block) in
  Tutil.check_int "offered all" 64 m.Metrics.offered;
  Tutil.check_int "block never sheds" 0 m.Metrics.shed;
  Tutil.check_int "every txn served" 64
    (Stats.Hist.count m.Metrics.client_lat);
  Tutil.check_bool "queue bounded by depth" true (m.Metrics.qmax <= 4);
  check_conservation m

let test_shed_oldest () =
  let m = run_policy (overload_cfg C.Shed_oldest) in
  Tutil.check_int "offered all" 64 m.Metrics.offered;
  Tutil.check_bool "overload sheds" true (m.Metrics.shed > 0);
  Tutil.check_bool "some still served" true
    (Stats.Hist.count m.Metrics.client_lat > 0);
  Tutil.check_bool "queue bounded by depth" true (m.Metrics.qmax <= 4);
  check_conservation m

let test_shed_newest () =
  let m = run_policy (overload_cfg C.Shed_newest) in
  Tutil.check_bool "overload sheds" true (m.Metrics.shed > 0);
  Tutil.check_bool "queue bounded by depth" true (m.Metrics.qmax <= 4);
  check_conservation m

let test_deadline_misses () =
  (* Queue residency under overload far exceeds the 2us budget: expired
     entries must be purged as misses, not served late. *)
  let m =
    run_policy { (overload_cfg C.Deadline) with C.deadline = 2_000 }
  in
  Tutil.check_bool "expired entries dropped" true
    (m.Metrics.deadline_miss > 0);
  check_conservation m

let test_retry_budget_exhaustion () =
  (* Engine rejects everything: each entry burns its full retry budget
     (bounded backoff, so the run terminates) and is finally retired. *)
  let m =
    run_policy ~total:16 ~ok:(fun _ -> false)
      {
        C.default with
        C.arrival = C.Poisson 1e6;
        clients = 2;
        depth = 64;
        policy = C.Block;
        max_retries = 2;
      }
  in
  Tutil.check_int "all retries spent" (16 * 2) m.Metrics.client_retries;
  Tutil.check_int "every txn exhausted" 16 m.Metrics.retry_exhausted;
  Tutil.check_int "nothing committed" 0
    (Stats.Hist.count m.Metrics.client_lat);
  check_conservation m

let test_create_validates () =
  let wl = Ycsb.make (Tutil.small_ycsb ()) in
  let sim = Sim.create () in
  let bad cfg =
    match C.create ~sim ~nodes:1 wl cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad { C.default with C.depth = 0 };
  bad { C.default with C.clients = 0 };
  bad { C.default with C.arrival = C.Poisson 0.0 };
  bad { C.default with C.max_retries = -1 };
  bad { C.default with C.total = -1 }

(* --------------- retried abort commits exactly once --------------- *)

(* Custom workload whose single fragment aborts on a transaction's
   first attempt and succeeds on the second.  If the client retry loop
   double-planned or double-applied, row state would show +2 deltas;
   the serial oracle is "every row gets exactly one +7". *)
let test_retry_commits_exactly_once () =
  let total = 64 in
  let db = Db.create ~nparts:2 in
  let table_id = Db.add_table db ~name:"t" ~nfields:1 ~capacity:total in
  let tbl = Db.table_by_name db "t" in
  for key = 0 to total - 1 do
    Table.set tbl key 0 (1000 + key);
    Table.publish tbl key
  done;
  let gen g =
    let f =
      Fragment.make ~fid:0 ~table:table_id ~key:g ~mode:Fragment.Rmw ~op:0
        ~abortable:true ~args:[| 7 |] ()
    in
    Txn.make ~tid:g [| f |]
  in
  let streams = 2 in
  let new_stream i =
    let counter = ref 0 in
    fun () ->
      let g = (!counter * streams) + i in
      incr counter;
      gen g
  in
  let exec (ctx : Exec.ctx) (txn : Txn.t) (frag : Fragment.t) =
    if txn.Txn.attempts = 1 then Exec.Abort
    else begin
      let v = ctx.Exec.read frag 0 in
      ctx.Exec.write frag 0 (v + frag.Fragment.args.(0));
      Exec.Ok
    end
  in
  let wl =
    {
      Workload.name = "flaky-once";
      db;
      new_stream;
      exec;
      describe = "aborts on first attempt, commits on retry";
    }
  in
  let sim = Sim.create () in
  let c =
    C.create ~sim ~nodes:1 wl
      {
        C.default with
        C.arrival = C.Poisson 1e7;
        clients = streams;
        depth = 128;
        policy = C.Block;
        max_retries = 3;
        total;
      }
  in
  let m =
    (* Conservative mode: a logic abort is final for the attempt (the
       speculative recovery path would re-execute in-engine and mask
       the abort from the client layer). *)
    Qe.run ~sim ~clients:c
      {
        Qe.planners = 2;
        executors = 2;
        batch_size = 16;
        mode = Qe.Conservative;
        isolation = Qe.Serializable;
        costs = Quill_sim.Costs.default;
        pipeline = false;
        split = None;
        repart = false;
      }
      wl ~batches:0
  in
  C.record c m;
  Tutil.check_int "every txn committed" total m.Metrics.committed;
  Tutil.check_int "every txn aborted exactly once" total
    m.Metrics.logic_aborted;
  Tutil.check_int "every txn retried exactly once" total
    m.Metrics.client_retries;
  Tutil.check_int "no retry budget exhausted" 0 m.Metrics.retry_exhausted;
  Tutil.check_int "nothing shed" 0 m.Metrics.shed;
  (* serial-oracle state: one +7 per row, never zero, never double *)
  for key = 0 to total - 1 do
    Tutil.check_int
      (Printf.sprintf "row %d applied exactly once" key)
      (1000 + key + 7)
      (Table.committed tbl key 0)
  done

(* ------------------------- determinism ------------------------- *)

let client_fingerprint wl (m : Metrics.t) =
  ( Db.checksum wl.Workload.db,
    m.Metrics.elapsed,
    m.Metrics.committed,
    m.Metrics.offered,
    m.Metrics.shed,
    m.Metrics.deadline_miss,
    m.Metrics.client_retries,
    m.Metrics.retry_exhausted,
    m.Metrics.qmax,
    Stats.Hist.count m.Metrics.client_lat )

(* Overloaded open-loop quecc run, abortable fragments exercising the
   retry path: bit-identical for a given seed. *)
let quecc_overloaded seed =
  let wl =
    Ycsb.make
      (Tutil.small_ycsb ~table_size:2_000 ~abort_ratio:0.05
         ~seed:(seed + 1) ())
  in
  let sim = Sim.create () in
  let c =
    C.create ~sim ~nodes:1 wl
      {
        C.default with
        C.arrival = C.Poisson 1e7;
        depth = 32;
        policy = C.Shed_oldest;
        max_retries = 2;
        seed;
        total = 512;
      }
  in
  let m =
    Qe.run ~sim ~clients:c
      {
        Qe.planners = 2;
        executors = 2;
        batch_size = 64;
        mode = Qe.Speculative;
        isolation = Qe.Serializable;
        costs = Quill_sim.Costs.default;
        pipeline = false;
        split = None;
        repart = false;
      }
      wl ~batches:0
  in
  C.record c m;
  client_fingerprint wl m

let prop_same_seed_same_overloaded_run =
  QCheck.Test.make ~name:"same client seed => bit-identical overloaded run"
    ~count:5
    QCheck.(int_range 0 1000)
    (fun seed -> quecc_overloaded seed = quecc_overloaded seed)

(* Pipelined client mode falls back to sequential batch handling (the
   next batch's admission depends on the previous batch's completions),
   but the flag must still be accepted and leave the run bit-identical:
   with Block admission deep enough never to shed, no deadline and no
   aborts, the committed state is the serial execution of the admission
   order however the batches are cut. *)
let test_pipeline_clients_identical () =
  let run pipeline =
    let wl = Ycsb.make (Tutil.small_ycsb ~table_size:2_000 ()) in
    let sim = Sim.create () in
    let c =
      C.create ~sim ~nodes:1 wl
        {
          C.default with
          C.arrival = C.Poisson 1e7;
          depth = 1024;
          policy = C.Block;
          total = 512;
        }
    in
    let m =
      Qe.run ~sim ~clients:c
        {
          Qe.planners = 2;
          executors = 2;
          batch_size = 64;
          mode = Qe.Speculative;
          isolation = Qe.Serializable;
          costs = Quill_sim.Costs.default;
          pipeline;
          split = None;
          repart = false;
        }
        wl ~batches:0
    in
    C.record c m;
    (Db.checksum wl.Workload.db, m.Metrics.committed, m.Metrics.offered)
  in
  let c0, n0, o0 = run false in
  let c1, n1, o1 = run true in
  Tutil.check_int "same commits" n0 n1;
  Tutil.check_int "same offered" o0 o1;
  Tutil.check_bool "same committed state" true (c0 = c1)

let test_dist_same_seed_identical () =
  let run () =
    let wl =
      Ycsb.make
        (Tutil.small_ycsb ~table_size:2_000 ~nparts:4 ~mp_ratio:0.3 ())
    in
    let sim = Sim.create () in
    let c =
      C.create ~sim ~nodes:2 wl
        {
          C.default with
          C.arrival = C.Poisson 5e6;
          depth = 64;
          policy = C.Shed_oldest;
          total = 512;
        }
    in
    let m =
      Quill_dist.Dist_quecc.run ~sim ~clients:c
        {
          Quill_dist.Dist_quecc.nodes = 2;
          planners = 2;
          executors = 2;
          batch_size = 128;
          costs = Quill_sim.Costs.default;
          pipeline = false;
          replicas = 0;
          spec_lag = 1;
        }
        wl ~batches:0
    in
    C.record c m;
    client_fingerprint wl m
  in
  Tutil.check_bool "dist-quecc open-loop deterministic" true (run () = run ())

(* --------------------- harness integration --------------------- *)

let test_serial_rejects_clients () =
  let e =
    E.make ~threads:2 ~txns:256 ~batch_size:128 ~clients:C.default E.Serial
      (E.Ycsb (Tutil.small_ycsb ()))
  in
  Alcotest.check_raises "serial baseline rejects the client layer"
    (Invalid_argument
       "Experiment.run: the open-loop client layer (--arrival) requires \
        the 'clients' capability, but engine serial provides {faults, wal, \
        cdc}")
    (fun () -> ignore (E.run e))

let test_experiment_runs_clients () =
  (* The harness path end to end: every engine family processes an
     open-loop run and reports client counters. *)
  List.iter
    (fun engine ->
      let e =
        E.make ~threads:2 ~txns:256 ~batch_size:64
          ~clients:
            { C.default with C.arrival = C.Poisson 1e7; depth = 32;
              policy = C.Shed_oldest }
          engine
          (E.Ycsb (Tutil.small_ycsb ()))
      in
      let m = E.run e in
      Tutil.check_bool
        (E.engine_name engine ^ " reports offered")
        true
        (Metrics.clients_active m && m.Metrics.offered = 256);
      Tutil.check_bool
        (E.engine_name engine ^ " commits some work")
        true (m.Metrics.committed > 0))
    [
      E.Quecc (Qe.Speculative, Qe.Serializable);
      E.Twopl_nowait;
      E.Hstore;
      E.Calvin;
      E.Dist_quecc 2;
      E.Dist_calvin 2;
    ]

(* The distributed engines close each batch against the completions of
   the one before, so they cannot plan ahead: pipelining with open-loop
   clients is rejected, not run as sequential batches. *)
let test_dist_reject_pipelined_clients () =
  List.iter
    (fun (engine, prefix) ->
      let e =
        E.make ~threads:4 ~txns:256 ~batch_size:128 ~clients:C.default
          ~pipeline:true engine
          (E.Ycsb (Tutil.small_ycsb ()))
      in
      Alcotest.check_raises (E.engine_name engine)
        (Invalid_argument
           (prefix ^ ": pipeline does not compose with open-loop clients"))
        (fun () -> ignore (E.run e)))
    [ (E.Dist_quecc 2, "Dist_quecc.run"); (E.Dist_calvin 2, "Dist_calvin.run") ]

(* ------------------------- deadline purge ------------------------- *)

(* [Clients.Admission]'s purge against a naive full scan kept here as
   the reference.  One driver runs a random script on either queue under
   the [Deadline] policy's rules: an offer or a retry purges, then
   queues or sheds on a full queue (a retry that already expired
   misses first); a drain purges, then takes up to [k] entries; a
   failed completion misses when expired, else waits to come back as a
   retry with its first offer's deadline, which puts deadlines out of
   queue order.  Both queues must miss the same entries in the same
   order, keep the same survivors in the same order and count the
   same. *)
module type Admission_queue = sig
  type q

  val create : unit -> q
  val length : q -> int
  val push : q -> C.entry -> unit
  val pop : q -> C.entry
  val purge : q -> now:int -> (C.entry -> unit) -> unit
end

module Naive_admission : Admission_queue = struct
  type q = C.entry Queue.t

  let create = Queue.create
  let length = Queue.length
  let push q e = Queue.push e q
  let pop = Queue.pop

  let purge q ~now miss =
    for _ = 1 to Queue.length q do
      let e = Queue.pop q in
      if now > e.C.deadline_at then miss e else Queue.push e q
    done
end

type purge_op = Offer | Retry | Drain of int | Complete of bool | Step of int

let run_admission (module Q : Admission_queue) ~depth ~deadline script =
  let q = Q.create () in
  let now = ref 0 in
  let ids = ref [] in
  let id e = List.assq e !ids in
  let events = ref [] in
  let note tag e = events := Printf.sprintf "%s%d" tag (id e) :: !events in
  let misses = ref 0 and sheds = ref 0 and qmax = ref 0 in
  let inflight = Queue.create () and waiting = Queue.create () in
  let txn = Txn.make ~tid:0 [||] in
  let miss e = incr misses; note "m" e in
  let admit e =
    Q.purge q ~now:!now miss;
    if Q.length q < depth then begin
      Q.push q e;
      qmax := max !qmax (Q.length q)
    end
    else begin
      incr sheds;
      note "s" e
    end
  in
  List.iter
    (function
      | Offer ->
          let e =
            {
              C.txn;
              node = 0;
              first_offer = !now;
              deadline_at = !now + deadline;
              attempt = 1;
              rng = Rng.create (List.length !ids);
            }
          in
          ids := (e, List.length !ids) :: !ids;
          admit e
      | Retry -> (
          match Queue.take_opt waiting with
          | None -> ()
          | Some e -> if !now > e.C.deadline_at then miss e else admit e)
      | Drain k ->
          Q.purge q ~now:!now miss;
          for _ = 1 to min k (Q.length q) do
            let e = Q.pop q in
            note "d" e;
            Queue.push e inflight
          done
      | Complete ok -> (
          match Queue.take_opt inflight with
          | None -> ()
          | Some e ->
              if ok then note "c" e
              else if !now > e.C.deadline_at then miss e
              else begin
                e.C.attempt <- e.C.attempt + 1;
                Queue.push e waiting
              end)
      | Step n -> now := !now + n)
    script;
  let survivors = List.init (Q.length q) (fun _ -> id (Q.pop q)) in
  ( List.rev !events,
    survivors,
    (!misses, !sheds, !qmax, Queue.length waiting) )

let prop_purge_matches_full_scan =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, return Offer);
        (2, return Retry);
        (2, map (fun k -> Drain k) (int_range 1 4));
        (3, map (fun ok -> Complete ok) bool);
        (3, map (fun n -> Step n) (int_bound 60));
      ]
  in
  let print_op = function
    | Offer -> "O"
    | Retry -> "R"
    | Drain k -> Printf.sprintf "D%d" k
    | Complete ok -> if ok then "C" else "F"
    | Step n -> Printf.sprintf "+%d" n
  in
  QCheck.Test.make ~count:500
    ~name:"admission purge = full-scan reference"
    (QCheck.make
       ~print:(fun (depth, deadline, script) ->
         Printf.sprintf "depth=%d deadline=%d %s" depth deadline
           (String.concat " " (List.map print_op script)))
       (triple (int_range 1 8) (int_range 1 200) (list_size (int_bound 200) op)))
    (fun (depth, deadline, script) ->
      let run q = run_admission q ~depth ~deadline script in
      run (module C.Admission) = run (module Naive_admission))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clients"
    [
      ( "parsing",
        [
          Alcotest.test_case "time grammar" `Quick test_parse_time;
          Alcotest.test_case "arrival" `Quick test_parse_arrival;
          Alcotest.test_case "admission" `Quick test_parse_admission;
          Alcotest.test_case "retries" `Quick test_parse_retries;
        ] );
      ( "policies",
        [
          Alcotest.test_case "block = backpressure" `Quick
            test_block_backpressure;
          Alcotest.test_case "shed-oldest" `Quick test_shed_oldest;
          Alcotest.test_case "shed-newest" `Quick test_shed_newest;
          Alcotest.test_case "deadline misses" `Quick test_deadline_misses;
          qc prop_purge_matches_full_scan;
          Alcotest.test_case "retry budget exhaustion" `Quick
            test_retry_budget_exhaustion;
          Alcotest.test_case "cfg validation" `Quick test_create_validates;
        ] );
      ( "retries",
        [
          Alcotest.test_case "aborted-then-retried commits exactly once"
            `Quick test_retry_commits_exactly_once;
        ] );
      ( "determinism",
        [
          qc prop_same_seed_same_overloaded_run;
          Alcotest.test_case "pipelined clients identical" `Quick
            test_pipeline_clients_identical;
          Alcotest.test_case "dist-quecc same seed identical" `Quick
            test_dist_same_seed_identical;
        ] );
      ( "harness",
        [
          Alcotest.test_case "serial rejects clients" `Quick
            test_serial_rejects_clients;
          Alcotest.test_case "all engines run open-loop" `Quick
            test_experiment_runs_clients;
          Alcotest.test_case "dist engines reject pipelined clients" `Quick
            test_dist_reject_pipelined_clients;
        ] );
    ]
