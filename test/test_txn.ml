open Quill_txn

let frag ?(abortable = false) ?(early = false) ?(deps = [||]) ~fid ~key mode =
  Fragment.make ~abortable ~early ~data_deps:deps ~fid ~table:0 ~key ~mode
    ~op:0 ()

(* ------------------------- fragment ------------------------- *)

let test_fragment_updates () =
  Tutil.check_bool "read" false (Fragment.updates (frag ~fid:0 ~key:0 Fragment.Read));
  Tutil.check_bool "write" true (Fragment.updates (frag ~fid:0 ~key:0 Fragment.Write));
  Tutil.check_bool "rmw" true (Fragment.updates (frag ~fid:0 ~key:0 Fragment.Rmw));
  Tutil.check_bool "insert" true (Fragment.updates (frag ~fid:0 ~key:0 Fragment.Insert))

(* ------------------------- txn ------------------------- *)

let test_txn_validation () =
  Alcotest.check_raises "fid order" (Invalid_argument "Txn.make: fid out of order")
    (fun () ->
      ignore (Txn.make ~tid:0 [| frag ~fid:1 ~key:0 Fragment.Read |]));
  Alcotest.check_raises "forward dep"
    (Invalid_argument "Txn.make: data dependency must point backwards")
    (fun () ->
      ignore
        (Txn.make ~tid:0
           [|
             frag ~fid:0 ~deps:[| 0 |] ~key:0 Fragment.Read;
           |]))

let test_commit_dep_computation () =
  (* Updating fragments get a commit dependency iff another fragment of
     the same txn may abort. *)
  let t =
    Txn.make ~tid:1
      [|
        frag ~fid:0 ~abortable:true ~key:0 Fragment.Read;
        frag ~fid:1 ~key:1 Fragment.Rmw;
        frag ~fid:2 ~key:2 Fragment.Read;
      |]
  in
  Tutil.check_int "n_abortable" 1 t.Txn.n_abortable;
  Tutil.check_bool "abortable read: no cdep" false
    t.Txn.frags.(0).Fragment.commit_dep;
  Tutil.check_bool "update: cdep" true t.Txn.frags.(1).Fragment.commit_dep;
  Tutil.check_bool "read: no cdep" false t.Txn.frags.(2).Fragment.commit_dep;
  (* no aborters: no commit deps at all *)
  let t2 =
    Txn.make ~tid:2
      [| frag ~fid:0 ~key:0 Fragment.Rmw; frag ~fid:1 ~key:1 Fragment.Write |]
  in
  Tutil.check_bool "no aborter" false t2.Txn.frags.(0).Fragment.commit_dep;
  (* an abortable updating fragment guards itself: no self commit-dep *)
  let t3 = Txn.make ~tid:3 [| frag ~fid:0 ~abortable:true ~key:0 Fragment.Rmw |] in
  Tutil.check_bool "self-guarding aborter" false
    t3.Txn.frags.(0).Fragment.commit_dep

let test_txn_read_only () =
  let ro =
    Txn.make ~tid:0
      [| frag ~fid:0 ~key:0 Fragment.Read; frag ~fid:1 ~key:1 Fragment.Read |]
  in
  Tutil.check_bool "read only" true (Txn.is_read_only ro);
  let rw =
    Txn.make ~tid:1
      [| frag ~fid:0 ~key:0 Fragment.Read; frag ~fid:1 ~key:1 Fragment.Rmw |]
  in
  Tutil.check_bool "not read only" false (Txn.is_read_only rw)

let test_txn_partitions () =
  let db = Quill_storage.Db.create ~nparts:4 in
  let _ = Quill_storage.Db.add_table db ~name:"t" ~nfields:1 ~capacity:100 in
  let t =
    Txn.make ~tid:0
      [|
        frag ~fid:0 ~key:0 Fragment.Read;
        frag ~fid:1 ~key:99 Fragment.Read;
        frag ~fid:2 ~key:1 Fragment.Read;
      |]
  in
  Alcotest.(check (list int)) "partitions" [ 0; 3 ] (Txn.partitions db t)

(* ------------------------- plan order ------------------------- *)

let test_plan_order () =
  let frags =
    [|
      frag ~fid:0 ~key:0 Fragment.Rmw;
      frag ~fid:1 ~abortable:true ~key:1 Fragment.Read;
      frag ~fid:2 ~key:2 Fragment.Write;
      frag ~fid:3 ~abortable:true ~deps:[| 0 |] ~key:3 Fragment.Read;
    |]
  in
  let t = Txn.make ~tid:0 frags in
  let ordered = Quill_quecc.Engine.plan_order t.Txn.frags in
  (* dep-free abortable first; abortable-with-deps stays in place *)
  Tutil.check_int "aborter first" 1 ordered.(0).Fragment.fid;
  Alcotest.(check (list int))
    "rest in program order" [ 1; 0; 2; 3 ]
    (Array.to_list (Array.map (fun f -> f.Fragment.fid) ordered));
  (* empty txn is fine *)
  Tutil.check_int "empty" 0
    (Array.length (Quill_quecc.Engine.plan_order [||]))

(* ------------------------- metrics ------------------------- *)

let test_metrics () =
  let m = Metrics.create () in
  m.Metrics.committed <- 1000;
  m.Metrics.elapsed <- 500_000_000;
  m.Metrics.cc_aborts <- 250;
  m.Metrics.busy <- 400_000_000;
  m.Metrics.threads <- 2;
  Alcotest.(check (float 1e-6)) "throughput" 2000.0 (Metrics.throughput m);
  Alcotest.(check (float 1e-6)) "abort rate" 0.2 (Metrics.abort_rate m);
  Alcotest.(check (float 1e-6)) "utilization" 0.4 (Metrics.utilization m);
  let empty = Metrics.create () in
  Alcotest.(check (float 1e-6)) "zero tput" 0.0 (Metrics.throughput empty);
  Alcotest.(check (float 1e-6)) "zero abort" 0.0 (Metrics.abort_rate empty)

(* ------------------------- workload serial executor ----------------- *)

let dummy_ctx =
  {
    Exec.read = (fun _ _ -> 0);
    write = (fun _ _ _ -> ());
    add = (fun _ _ _ -> ());
    insert = (fun _ ~key:_ _ -> ());
    input = (fun _ -> 0);
    output = (fun _ _ -> ());
    found = (fun _ -> true);
  }

let test_exec_txn_stops_at_abort () =
  let calls = ref [] in
  let wl =
    {
      Workload.name = "t";
      db = Quill_storage.Db.create ~nparts:1;
      new_stream = (fun _ () -> assert false);
      exec =
        (fun _ _ f ->
          calls := f.Fragment.fid :: !calls;
          if f.Fragment.fid = 1 then Exec.Abort else Exec.Ok);
      describe = "";
    }
  in
  let t =
    Txn.make ~tid:0
      [|
        frag ~fid:0 ~key:0 Fragment.Read;
        frag ~fid:1 ~key:1 Fragment.Read;
        frag ~fid:2 ~key:2 Fragment.Read;
      |]
  in
  Tutil.check_bool "aborts" true (Workload.exec_txn wl dummy_ctx t = Exec.Abort);
  Alcotest.(check (list int)) "stopped at abort" [ 0; 1 ] (List.rev !calls)

(* ------------------------- in-place runner ------------------------- *)

module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Table = Quill_storage.Table

(* One 4-field table of 100 dense rows; [exec] is the fragment logic. *)
let direct_wl exec =
  let db = Db.create ~nparts:1 in
  ignore (Db.add_table db ~name:"t" ~nfields:4 ~capacity:100);
  { Workload.name = "t"; db; new_stream = (fun _ () -> assert false); exec;
    describe = "" }

(* Run [f] on one simulated thread; returns its result and busy time. *)
let in_sim f =
  let sim = Sim.create () in
  let r = ref None in
  Sim.spawn sim (fun () -> r := Some (f sim));
  ignore (Sim.run sim);
  (Option.get !r, Sim.busy_time sim)

let row wl key = Table.dense (Db.table wl.Workload.db 0) key

(* Two writes to row 0, an insert and a write to row 1, then a logic
   abort: the attempt rolls back, charged per the runner's policy. *)
let test_direct_rollback () =
  let txn =
    Txn.make ~tid:0
      [|
        frag ~fid:0 ~key:0 Fragment.Write;
        frag ~fid:1 ~key:0 Fragment.Insert;
        frag ~fid:2 ~key:1 Fragment.Write;
        frag ~fid:3 ~abortable:true ~key:2 Fragment.Read;
      |]
  in
  let exec ctx _ (f : Fragment.t) =
    match f.Fragment.fid with
    | 0 ->
        ctx.Exec.write f 0 5;
        ctx.Exec.write f 1 6;
        Exec.Ok
    | 1 ->
        ctx.Exec.insert f ~key:1000 [| 1; 2; 3; 4 |];
        Exec.Ok
    | 2 ->
        ctx.Exec.write f 0 7;
        Exec.Ok
    | _ -> Exec.Abort
  in
  let costs = { Costs.zero with Costs.abort_cleanup = 1000 } in
  List.iter
    (fun (charge, name, expect) ->
      let wl = direct_wl exec in
      (row wl 0).Quill_storage.Row.data.(2) <- 9;
      let touched = ref 0 and inserted = ref 0 in
      let r, busy =
        in_sim (fun sim ->
            let d =
              Direct.create ~charge
                ~touch:(fun ~table:_ _ -> incr touched)
                ~inserted:(fun ~table:_ _ -> incr inserted)
                sim costs wl
            in
            Direct.run d txn)
      in
      Tutil.check_bool (name ^ ": aborts") true (r = Exec.Abort);
      Tutil.check_int (name ^ ": abort charge") expect busy;
      Alcotest.(check (array int))
        (name ^ ": row 0 restored") [| 0; 0; 9; 0 |]
        (row wl 0).Quill_storage.Row.data;
      Tutil.check_int (name ^ ": row 1 restored") 0
        (row wl 1).Quill_storage.Row.data.(0);
      Tutil.check_bool (name ^ ": insert removed") true
        (Table.find (Db.table wl.Workload.db 0) 1000 = None);
      Tutil.check_int (name ^ ": touch per write") 3 !touched;
      Tutil.check_int (name ^ ": inserted hook") 1 !inserted)
    [
      (Direct.Per_write, "per-write", 3000);
      (Direct.Per_row, "per-row", 2000);
      (Direct.Per_txn, "per-txn", 1000);
    ]

(* [add_reads] decides whether a commutative add also pays a read;
   [read_committed] points Read fragments at the committed image. *)
let test_direct_add_and_isolation () =
  let seen = ref (-1) in
  let txn =
    Txn.make ~tid:0
      [| frag ~fid:0 ~key:3 Fragment.Read; frag ~fid:1 ~key:4 Fragment.Rmw |]
  in
  let exec ctx _ (f : Fragment.t) =
    if f.Fragment.fid = 0 then seen := ctx.Exec.read f 0
    else ctx.Exec.add f 0 5;
    Exec.Ok
  in
  let costs = { Costs.zero with Costs.row_read = 10; row_write = 100 } in
  List.iter
    (fun (add_reads, read_committed, busy_want, seen_want) ->
      let wl = direct_wl exec in
      (row wl 3).Quill_storage.Row.data.(0) <- 42;
      let r, busy =
        in_sim (fun sim ->
            Direct.run
              (Direct.create ~add_reads ~read_committed sim costs wl)
              txn)
      in
      let name = Printf.sprintf "add_reads=%b rc=%b" add_reads read_committed in
      Tutil.check_bool (name ^ ": commits") true (r = Exec.Ok);
      Tutil.check_int (name ^ ": charge") busy_want busy;
      Tutil.check_int (name ^ ": read image") seen_want !seen;
      Tutil.check_int (name ^ ": add applied") 5
        (row wl 4).Quill_storage.Row.data.(0))
    [ (true, false, 120, 42); (false, false, 110, 42); (false, true, 110, 0) ]

(* A [locate] that raises (2PL refusing a lock) stops the step after the
   probe, before the logic charge and the fragment's logic. *)
let test_direct_step_locate_raises () =
  let ran = ref false in
  let wl = direct_wl (fun _ _ _ -> ran := true; Exec.Ok) in
  let f = frag ~fid:0 ~key:0 Fragment.Write in
  let txn = Txn.make ~tid:0 [| f |] in
  let costs = { Costs.zero with Costs.index_probe = 7; logic = 1000 } in
  let r, busy =
    in_sim (fun sim ->
        match
          Direct.step sim costs wl dummy_ctx (Direct.cursor ())
            ~locate:(fun _ -> raise Exec.Blocked_exn)
            txn f
        with
        | _ -> false
        | exception Exec.Blocked_exn -> true)
  in
  Tutil.check_bool "raised" true r;
  Tutil.check_int "probe only" 7 busy;
  Tutil.check_bool "logic skipped" false !ran

(* A second fragment whose [locate] refuses (2PL's lock conflict) after
   the first fragment wrote and inserted: [run] ends the attempt
   [Blocked] and rolls it back, charged per the runner's policy. *)
let test_direct_run_locate_raises () =
  let txn =
    Txn.make ~tid:0
      [|
        frag ~fid:0 ~key:0 Fragment.Write;
        frag ~fid:1 ~key:0 Fragment.Insert;
        frag ~fid:2 ~key:1 Fragment.Write;
      |]
  in
  let exec ctx _ (f : Fragment.t) =
    (match f.Fragment.fid with
    | 0 ->
        ctx.Exec.write f 0 5;
        ctx.Exec.write f 1 6
    | _ -> ctx.Exec.insert f ~key:1000 [| 1; 2; 3; 4 |]);
    Exec.Ok
  in
  let costs = { Costs.zero with Costs.abort_cleanup = 1000 } in
  let wl = direct_wl exec in
  let locate (f : Fragment.t) =
    if f.Fragment.fid = 2 then raise Exec.Blocked_exn
    else Direct.find wl.Workload.db f
  in
  let r, busy =
    in_sim (fun sim ->
        Direct.run (Direct.create ~locate ~charge:Direct.Per_row sim costs wl) txn)
  in
  Tutil.check_bool "blocked" true (r = Exec.Blocked);
  Alcotest.(check (array int)) "row 0 restored" [| 0; 0; 0; 0 |]
    (row wl 0).Quill_storage.Row.data;
  Tutil.check_bool "insert removed" true
    (Table.find (Db.table wl.Workload.db 0) 1000 = None);
  Tutil.check_int "abort charge per row" 1000 busy

let () =
  Alcotest.run "txn"
    [
      ( "fragment",
        [ Alcotest.test_case "updates" `Quick test_fragment_updates ] );
      ( "txn",
        [
          Alcotest.test_case "validation" `Quick test_txn_validation;
          Alcotest.test_case "commit deps" `Quick test_commit_dep_computation;
          Alcotest.test_case "read only" `Quick test_txn_read_only;
          Alcotest.test_case "partitions" `Quick test_txn_partitions;
          Alcotest.test_case "plan order" `Quick test_plan_order;
        ] );
      ("metrics", [ Alcotest.test_case "math" `Quick test_metrics ]);
      ( "workload",
        [
          Alcotest.test_case "exec stops at abort" `Quick
            test_exec_txn_stops_at_abort;
        ] );
      ( "direct",
        [
          Alcotest.test_case "rollback per abort charge" `Quick
            test_direct_rollback;
          Alcotest.test_case "add charge and rc reads" `Quick
            test_direct_add_and_isolation;
          Alcotest.test_case "locate raising skips logic" `Quick
            test_direct_step_locate_raises;
          Alcotest.test_case "run rolls back a raising locate" `Quick
            test_direct_run_locate_raises;
        ] );
    ]
