(* Ordered commit-stream subscriptions (CDC).

   The headline claim: QueCC's planning phase fixes the commit order
   before execution starts, so the serialized change feed is a pure
   function of the input batches — lockstep, pipelined and split-queue
   runs of the same seed produce byte-identical feeds.
   Plus the subscription mechanics: every subscriber gets every batch
   once, in order, with its lag bounded by its apply period, the
   materialized view's view-equals-recompute invariant and the read
   replica's bounded staleness. *)

open Quill_sim
open Quill_txn
open Quill_workloads
module Qe = Quill_quecc.Engine
module Serial = Quill_protocols.Serial
module Cdc = Quill_cdc.Cdc
module View = Quill_cdc.View
module Replica = Quill_cdc.Replica
module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Row = Quill_storage.Row
module E = Quill_harness.Experiment
module F = Quill_faults.Faults

type mode = Lockstep | Pipelined | Split

let mode_name = function
  | Lockstep -> "lockstep"
  | Pipelined -> "pipelined"
  | Split -> "split"

(* One quecc run under [mode] over a fresh same-seed workload, with the
   full serialized feed retained; returns the hub (drained) and the
   workload for committed-state checks. *)
let quecc_feed ?(seed = 42) ?(theta = 0.6) ?(batches = 4)
    ?(subscribe = fun _ -> ()) mode =
  let wl = Ycsb.make (Tutil.small_ycsb ~table_size:2_000 ~seed ~theta ()) in
  let sim = Sim.create ~wake_cost:Costs.default.Costs.wakeup () in
  let cdc =
    Cdc.create ~record_feed:true ~sim ~costs:Costs.default wl.Workload.db
  in
  subscribe cdc;
  let cfg =
    {
      Qe.default_cfg with
      Qe.planners = 2;
      executors = 2;
      batch_size = 256;
      pipeline = (mode = Pipelined);
      split =
        (if mode = Split then
           Some { Qe.hot_threshold = 8; max_subqueues = 4 }
         else None);
    }
  in
  ignore (Qe.run ~sim ~cdc cfg wl ~batches);
  Cdc.finish cdc;
  (cdc, wl)

let test_feed_identical_across_modes () =
  let base, _ = quecc_feed Lockstep in
  Tutil.check_bool "feed has events" true (Cdc.events base > 0);
  Tutil.check_int "all batches published" 4 (Cdc.batches base);
  List.iter
    (fun mode ->
      let c, _ = quecc_feed mode in
      Alcotest.(check string)
        (mode_name mode ^ " feed byte-identical to lockstep")
        (Cdc.feed base) (Cdc.feed c);
      Tutil.check_int
        (mode_name mode ^ " digest matches")
        (Cdc.digest base) (Cdc.digest c))
    [ Pipelined; Split ];
  (* sanity: the digest depends on the input (not trivially constant) *)
  let other, _ = quecc_feed ~seed:43 Lockstep in
  Tutil.check_bool "different seed, different feed" true
    (Cdc.digest base <> Cdc.digest other)

(* qcheck: the byte-identity holds across random seeds, contention
   levels and schedule variants, not just the hand-picked case. *)
let qcheck_feed_identity =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 500) (oneofl [ 0.0; 0.6; 0.9 ])
        (oneofl [ Pipelined; Split ]))
  in
  let arb =
    QCheck.make gen ~print:(fun (seed, theta, mode) ->
        Printf.sprintf "seed=%d theta=%.1f mode=%s" seed theta
          (mode_name mode))
  in
  QCheck.Test.make ~name:"cdc feed bit-identity across schedules" ~count:12
    arb
    (fun (seed, theta, mode) ->
      let base, _ = quecc_feed ~seed ~theta ~batches:2 Lockstep in
      let c, _ = quecc_feed ~seed ~theta ~batches:2 mode in
      Cdc.feed base = Cdc.feed c && Cdc.events base > 0)

(* The feed reflects exactly the committed state transitions: replaying
   every event's post-image (inserts included) on top of the pre-run
   database must land on the engine's final committed state. *)
let test_feed_replays_to_committed_state () =
  let shadow : (int * int, int array) Hashtbl.t = Hashtbl.create 1024 in
  let subscribe hub =
    ignore
      (Cdc.subscribe hub ~name:"shadow"
         {
           Cdc.on_batch =
             (fun b ->
               Array.iter
                 (fun (ev : Cdc.event) ->
                   Hashtbl.replace shadow (ev.Cdc.table, ev.Cdc.key)
                     (Array.copy ev.Cdc.after))
                 b.Cdc.events);
           on_caught_up = (fun ~batch_no:_ -> ());
         })
  in
  let _, wl = quecc_feed ~subscribe Lockstep in
  let ok = ref true in
  Hashtbl.iter
    (fun (tid, key) img ->
      match Tutil.committed_row (Db.table wl.Workload.db tid) key with
      | Some committed -> if committed <> img then ok := false
      | None -> ok := false)
    shadow;
  Tutil.check_bool "every event post-image = committed image" true !ok;
  Tutil.check_bool "shadow saw rows" true (Hashtbl.length shadow > 0)

(* One quecc run over 1-warehouse TPC-C (NewOrder inserts, invalid-item
   aborts) with the full feed retained, plus the pre-run database. *)
let tpcc_feed ?(seed = 9) ?(threads = 2) ?(batch_size = 256)
    ?(subscribe = fun _ -> ()) mode isolation =
  let wl = Tpcc.make (Tutil.small_tpcc ~seed ()) in
  let before = Db.clone wl.Workload.db in
  let sim = Sim.create ~wake_cost:Costs.default.Costs.wakeup () in
  let cdc =
    Cdc.create ~record_feed:true ~sim ~costs:Costs.default wl.Workload.db
  in
  subscribe cdc;
  let cfg =
    {
      Qe.default_cfg with
      Qe.planners = threads;
      executors = threads;
      batch_size;
      mode;
      isolation;
    }
  in
  let m = Qe.run ~sim ~cdc cfg wl ~batches:4 in
  Cdc.finish cdc;
  (cdc, m, wl, before)

(* An insert is a row whose inserter mark is set, in every execution
   mode: speculative and conservative runs commit the same state, so
   they must publish the byte-identical feed. *)
let test_tpcc_feed_identical_across_modes () =
  List.iter
    (fun (label, iso) ->
      let spec, ms, wls, _ = tpcc_feed Qe.Speculative iso in
      let cons, mc, wlc, _ = tpcc_feed Qe.Conservative iso in
      Tutil.check_int (label ^ ": same commits") ms.Metrics.committed
        mc.Metrics.committed;
      Tutil.check_int
        (label ^ ": same committed state")
        (Db.checksum wls.Workload.db)
        (Db.checksum wlc.Workload.db);
      Tutil.check_bool (label ^ ": feed has events") true (Cdc.events spec > 0);
      Alcotest.(check string)
        (label ^ ": conservative feed byte-identical to speculative")
        (Cdc.feed spec) (Cdc.feed cons))
    [ ("quecc", Qe.Serializable); ("quecc-rc", Qe.Read_committed) ]

(* Every committed change reaches the feed, inserts included: each row
   whose committed image differs from the pre-run database (or that did
   not exist before) has an event carrying exactly that image, and an
   inserted row's first event has no pre-image.  This configuration
   cascades NewOrders into speculative recovery, whose re-executed
   inserts must carry the insert mark too. *)
let test_tpcc_feed_covers_every_change () =
  let shadow : (int * int, bool * int array) Hashtbl.t = Hashtbl.create 4096 in
  let subscribe hub =
    ignore
      (Cdc.subscribe hub ~name:"shadow"
         {
           Cdc.on_batch =
             (fun b ->
               Array.iter
                 (fun (ev : Cdc.event) ->
                   let k = (ev.Cdc.table, ev.Cdc.key) in
                   let inserted =
                     match Hashtbl.find_opt shadow k with
                     | Some (ins, _) -> ins
                     | None -> ev.Cdc.before = None
                   in
                   Hashtbl.replace shadow k (inserted, Array.copy ev.Cdc.after))
                 b.Cdc.events);
           on_caught_up = (fun ~batch_no:_ -> ());
         })
  in
  let _, m, wl, before =
    tpcc_feed ~seed:3 ~threads:8 ~batch_size:512 ~subscribe Qe.Speculative
      Qe.Serializable
  in
  Tutil.check_bool "recovery re-executed transactions" true
    (m.Metrics.cascades > 0);
  let db = wl.Workload.db in
  let missing = ref 0 and inserts = ref 0 in
  for tid = 0 to Db.ntables db - 1 do
    let tbl = Db.table db tid in
    let check key slot =
      let committed = Table.committed_image tbl slot in
      let prior = Tutil.committed_row (Db.table before tid) key in
      let changed =
        match prior with Some r -> r <> committed | None -> true
      in
      if changed then
        match Hashtbl.find_opt shadow (tid, key) with
        | Some (ins, img) when img = committed && ins = (prior = None) ->
            if ins then incr inserts
        | _ -> incr missing
    in
    Table.iter_rows check tbl
  done;
  Tutil.check_int "changed rows without a matching event" 0 !missing;
  Tutil.check_bool "inserts reached the feed" true (!inserts > 0)

let test_serial_feed_deterministic () =
  let run () =
    let wl = Ycsb.make (Tutil.small_ycsb ~table_size:2_000 ~seed:7 ()) in
    let sim = Sim.create () in
    let cdc =
      Cdc.create ~record_feed:true ~sim ~costs:Costs.default wl.Workload.db
    in
    ignore (Serial.run ~sim ~cdc ~batch_size:256 wl ~txns:1024);
    Cdc.finish cdc;
    (Cdc.feed cdc, Cdc.batches cdc)
  in
  let f1, b1 = run () and f2, b2 = run () in
  Alcotest.(check string) "serial feed deterministic" f1 f2;
  Tutil.check_int "group-commit boundaries" b1 b2;
  Tutil.check_int "1024 txns / 256 = 4 groups" 4 b1

(* Canonicalization, driven through [stage]/[stage_insert] directly: a
   key staged twice keeps its first pre-image and its last post-image,
   value-equal updates (also one changed and changed back) are dropped,
   an insert has no pre-image, events come out sorted by (table, key),
   and the feed is exactly the documented wire shape.  Post-images are
   read at publish time and then never again: mutating a source array
   afterwards changes neither the delivered event nor the replica that
   keeps it. *)
let test_canonicalization () =
  let db = Db.create ~nparts:2 in
  ignore (Db.add_table db ~name:"a" ~nfields:2 ~capacity:8);
  ignore (Db.add_table db ~name:"b" ~nfields:2 ~capacity:8);
  let sim = Sim.create () in
  let cdc = Cdc.create ~record_feed:true ~sim ~costs:Costs.default db in
  let rep = Replica.create db in
  ignore (Cdc.subscribe cdc ~name:"replica" (Replica.consumer rep));
  let delivered = ref [] in
  ignore
    (Cdc.subscribe cdc ~name:"capture"
       {
         Cdc.on_batch = (fun b -> delivered := b :: !delivered);
         on_caught_up = (fun ~batch_no:_ -> ());
       });
  let a1 = [| 1; 0 |] and a100 = [| 4; 4 |] in
  let rep_a1 = ref None in
  Sim.spawn sim (fun () ->
      let pre13 = [| 1; 2 |] in
      Cdc.stage cdc ~table:1 ~key:3 ~before:pre13 ~after:[| 3; 4 |];
      pre13.(0) <- 99 (* copied at stage time *);
      Cdc.stage cdc ~table:0 ~key:5 ~before:[| 7; 7 |] ~after:[| 7; 7 |];
      Cdc.stage_insert cdc ~table:0 ~key:100 ~after:a100;
      Cdc.stage cdc ~table:1 ~key:3 ~before:[| 9; 9 |] ~after:[| 5; 6 |];
      Cdc.stage cdc ~table:0 ~key:1 ~before:[| 0; 0 |] ~after:a1;
      Cdc.stage cdc ~table:1 ~key:0 ~before:[| 5; 5 |] ~after:[| 6; 5 |];
      Cdc.stage cdc ~table:1 ~key:0 ~before:[| 6; 5 |] ~after:[| 5; 5 |];
      a1.(1) <- 8 (* read at publish time *);
      Cdc.publish cdc ~batch_no:0 ~txns:3;
      a1.(0) <- 2;
      a100.(0) <- 0;
      rep_a1 := Replica.read rep ~table:0 ~key:1;
      Cdc.stage cdc ~table:0 ~key:1 ~before:[| 1; 8 |] ~after:a1;
      Cdc.publish cdc ~batch_no:1 ~txns:1);
  ignore (Sim.run sim);
  Cdc.finish cdc;
  let evs (b : Cdc.batch) =
    Array.to_list
      (Array.map
         (fun (e : Cdc.event) ->
           (e.Cdc.table, e.Cdc.key, e.Cdc.before, e.Cdc.after))
         b.Cdc.events)
  in
  let ev_t =
    Alcotest.(
      list
        (pair (pair int int) (pair (option (array int)) (array int))))
  in
  let norm = List.map (fun (t, k, b, a) -> ((t, k), (b, a))) in
  (match List.rev !delivered with
  | [ b0; b1 ] ->
      Alcotest.check ev_t "batch 0 events"
        [
          ((0, 1), (Some [| 0; 0 |], [| 1; 8 |]));
          ((0, 100), (None, [| 4; 4 |]));
          ((1, 3), (Some [| 1; 2 |], [| 5; 6 |]));
        ]
        (norm (evs b0));
      Alcotest.check ev_t "batch 1 events"
        [ ((0, 1), (Some [| 1; 8 |], [| 2; 8 |])) ]
        (norm (evs b1));
      Tutil.check_int "batch 0 txns" 3 b0.Cdc.txns
  | l -> Alcotest.failf "%d batches delivered, expected 2" (List.length l));
  Alcotest.(check (option (array int)))
    "replica kept the delivered image, not the mutated source"
    (Some [| 1; 8 |]) !rep_a1;
  Alcotest.(check (option (array int)))
    "insert image unchanged by the source" (Some [| 4; 4 |])
    (Replica.read rep ~table:0 ~key:100);
  Alcotest.(check (option (array int)))
    "replica at batch 1" (Some [| 2; 8 |])
    (Replica.read rep ~table:0 ~key:1);
  (* batch := batch_no:8 txns:8 nevents:4 event*;
     event := table:4 key:8 kind:1 [pre] post; payload := n:4 fields:8xn *)
  let buf = Buffer.create 256 in
  let i32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  let i64 v = Buffer.add_int64_le buf (Int64.of_int v) in
  let payload a =
    i32 (Array.length a);
    Array.iter i64 a
  in
  let event table key pre post =
    i32 table;
    i64 key;
    (match pre with
    | Some p ->
        Buffer.add_char buf '\000';
        payload p
    | None -> Buffer.add_char buf '\001');
    payload post
  in
  i64 0;
  i64 3;
  i32 3;
  event 0 1 (Some [| 0; 0 |]) [| 1; 8 |];
  event 0 100 None [| 4; 4 |];
  event 1 3 (Some [| 1; 2 |]) [| 5; 6 |];
  i64 1;
  i64 1;
  i32 1;
  event 0 1 (Some [| 1; 8 |]) [| 2; 8 |];
  let expect = Buffer.contents buf in
  Alcotest.(check string) "feed bytes" expect (Cdc.feed cdc);
  Tutil.check_int "feed_bytes" (String.length expect) (Cdc.feed_bytes cdc);
  Tutil.check_int "events" 4 (Cdc.events cdc);
  let djb2 =
    String.fold_left
      (fun h c -> ((h lsl 5) + h + Char.code c) land 0xffff_ffff)
      5381 expect
  in
  Tutil.check_int "digest is djb2 of the feed" djb2 (Cdc.digest cdc)

(* The canonicalizer before the feed went slot-native, kept as the
   reference: boxed stagings, one [Array.stable_sort] by (table, key),
   first pre-image and last post-image per run, value-equal no-ops
   dropped; the entry serialized field by field into a [Buffer]. *)
type ref_staged = {
  r_table : int;
  r_key : int;
  r_before : int array option;
  r_after : int array;
}

let ref_canonical staged =
  let a = Array.of_list staged in
  let by_row x y =
    let c = Int.compare x.r_table y.r_table in
    if c <> 0 then c else Int.compare x.r_key y.r_key
  in
  Array.stable_sort by_row a;
  let out = ref [] and i = ref 0 in
  while !i < Array.length a do
    let j = ref (!i + 1) in
    while !j < Array.length a && by_row a.(!i) a.(!j) = 0 do
      incr j
    done;
    let first = a.(!i) and last = a.(!j - 1) in
    (match first.r_before with
    | Some pre when pre = last.r_after -> ()
    | before ->
        out :=
          {
            Cdc.table = first.r_table;
            key = first.r_key;
            before;
            after = last.r_after;
          }
          :: !out);
    i := !j
  done;
  List.rev !out

let ref_serialize buf ~batch_no ~txns events =
  let i32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  let i64 v = Buffer.add_int64_le buf (Int64.of_int v) in
  let payload a =
    i32 (Array.length a);
    Array.iter i64 a
  in
  i64 batch_no;
  i64 txns;
  i32 (List.length events);
  List.iter
    (fun (ev : Cdc.event) ->
      i32 ev.Cdc.table;
      i64 ev.Cdc.key;
      (match ev.Cdc.before with
      | Some pre ->
          Buffer.add_char buf '\000';
          payload pre
      | None -> Buffer.add_char buf '\001');
      payload ev.Cdc.after)
    events

(* Random staging sequences over three tables: keys from small pools so
   rows are staged several times (value-equal no-ops and rows changed
   back included, from 2-field images over {0, 1, 2}), inserts, negative
   keys, dynamic keys >= 2^40, keys that differ only in the top bit of
   one byte, and keys at both ends of the int range.
   Each batch draws from a few key pools, so that some sort a narrow
   key range.  Every batch must give the reference's events, the feed
   its bytes and the digest djb2 of those bytes. *)
let qcheck_canonical_reference =
  let open QCheck.Gen in
  let keys =
    [
      int_range 0 12;
      map (fun k -> (1 lsl 40) + k) (int_range 0 12);
      map (fun k -> (1 lsl 40) + (k lsl 20)) (int_range 0 40);
      map (fun d -> 1 lsl ((8 * d) + 7)) (int_range 0 6);
      int_range (-6) (-1);
      map (fun k -> max_int - k) (int_range 0 2);
      map (fun k -> min_int + k) (int_range 0 2);
    ]
  in
  let img = map (fun (a, b) -> [| a; b |]) (pair (int_range 0 2) (int_range 0 2)) in
  let staged key =
    map
      (fun (((table, key), ins), (before, after)) ->
        {
          r_table = table;
          r_key = key;
          r_before = (if ins then None else Some before);
          r_after = after;
        })
      (pair
         (pair (pair (int_range 0 2) key) (frequencyl [ (1, true); (4, false) ]))
         (pair img img))
  in
  (* each batch draws its keys from one to three of the pools *)
  let batch =
    list_size (int_range 1 3) (oneofl keys) >>= fun pools ->
    list_size (int_range 0 200) (staged (oneof pools))
  in
  let batches = list_size (int_range 1 3) batch in
  let print bs =
    String.concat " | "
      (List.map
         (fun b ->
           String.concat ";"
             (List.map
                (fun s ->
                  Printf.sprintf "%d/%d%s" s.r_table s.r_key
                    (if s.r_before = None then "+" else ""))
                b))
         bs)
  in
  QCheck.Test.make ~name:"canonicalization = boxed stable-sort reference"
    ~count:300 (QCheck.make ~print batches) (fun batches ->
      let sim = Sim.create () in
      let cdc =
        Cdc.create ~record_feed:true ~sim ~costs:Costs.default
          (Db.create ~nparts:1)
      in
      let got = ref [] in
      ignore
        (Cdc.subscribe cdc ~name:"capture"
           {
             Cdc.on_batch = (fun b -> got := Array.to_list b.Cdc.events :: !got);
             on_caught_up = (fun ~batch_no:_ -> ());
           });
      Sim.spawn sim (fun () ->
          List.iteri
            (fun b staged ->
              List.iter
                (fun s ->
                  match s.r_before with
                  | Some before ->
                      Cdc.stage cdc ~table:s.r_table ~key:s.r_key ~before
                        ~after:s.r_after
                  | None ->
                      Cdc.stage_insert cdc ~table:s.r_table ~key:s.r_key
                        ~after:s.r_after)
                staged;
              Cdc.publish cdc ~batch_no:b ~txns:(List.length staged))
            batches);
      ignore (Sim.run sim);
      Cdc.finish cdc;
      let buf = Buffer.create 256 in
      let expect =
        List.mapi
          (fun b staged ->
            let evs = ref_canonical staged in
            ref_serialize buf ~batch_no:b ~txns:(List.length staged) evs;
            evs)
          batches
      in
      let feed = Buffer.contents buf in
      let djb2 =
        String.fold_left
          (fun h c -> ((h lsl 5) + h + Char.code c) land 0xffff_ffff)
          5381 feed
      in
      List.rev !got = expect
      && Cdc.feed cdc = feed
      && Cdc.digest cdc = djb2
      && Cdc.feed_bytes cdc = String.length feed)

(* [Replica.consistent_with] compares each cached image with the
   committed one in place.  Equal state reads true; one differing field
   (of a dense row, of an inserted row), a cached key the database does
   not have, and an image of the wrong arity each read false. *)
let test_replica_check_mutations () =
  let db = Db.create ~nparts:1 in
  ignore (Db.add_table db ~name:"a" ~nfields:3 ~capacity:8);
  let tbl = Db.table db 0 in
  for k = 0 to 7 do
    Table.load tbl k [| k; 10 * k; 100 * k |]
  done;
  let dyn = 1 lsl 40 in
  ignore (Table.insert tbl ~home:0 ~key:dyn [| 1; 2; 3 |]);
  let ev key after = { Cdc.table = 0; key; before = None; after } in
  let check name expect events =
    let rep = Replica.create db in
    (Replica.consumer rep).Cdc.on_batch
      { Cdc.batch_no = 0; txns = 1; events = Array.of_list events };
    Tutil.check_bool name expect (Replica.consistent_with rep db)
  in
  let equal = [ ev 2 [| 2; 20; 200 |]; ev 7 [| 7; 70; 700 |]; ev dyn [| 1; 2; 3 |] ] in
  check "equal state" true equal;
  check "empty replica" true [];
  check "dense field differs" false (equal @ [ ev 7 [| 7; 70; 701 |] ]);
  check "inserted row's field differs" false (equal @ [ ev dyn [| 1; 9; 3 |] ]);
  check "cached key absent from the db" false (equal @ [ ev (dyn + 1) [| 1; 2; 3 |] ]);
  check "image too long" false (equal @ [ ev 2 [| 2; 20; 200; 0 |] ]);
  check "image too short" false (equal @ [ ev dyn [| 1; 2 |] ])

(* -------------------------- consumers -------------------------- *)

let test_view_equals_recompute () =
  (* direct: serial engine, verify at every batch (View raises on any
     divergence; check() is the explicit end-of-run comparison) *)
  let wl = Ycsb.make (Tutil.small_ycsb ~table_size:2_000 ~seed:5 ()) in
  let sim = Sim.create () in
  let cdc = Cdc.create ~sim ~costs:Costs.default wl.Workload.db in
  let v = View.create ~table:0 ~field:0 wl.Workload.db in
  ignore (Cdc.subscribe cdc ~name:"view" (View.consumer v));
  ignore (Serial.run ~sim ~cdc ~batch_size:256 wl ~txns:1024);
  Cdc.finish cdc;
  Tutil.check_bool "view = recompute after serial run" true (View.check v);
  Tutil.check_bool "view refreshed" true (View.refreshes v > 0);
  Tutil.check_bool "view has partitions" true (View.sums v <> [])

let test_view_through_experiment () =
  (* quecc x ycsb and x tpcc through the harness: the run itself fails
     if the view ever diverges from recompute *)
  List.iter
    (fun (label, spec) ->
      let e =
        E.make ~threads:4 ~txns:1024 ~batch_size:256 ~views:true
          (E.Quecc (Qe.Speculative, Qe.Serializable))
          spec
      in
      let m = E.run e in
      Tutil.check_bool (label ^ ": view refreshed") true
        (m.Metrics.view_refreshes > 0);
      Tutil.check_bool (label ^ ": feed flowed") true
        (m.Metrics.cdc_events > 0);
      Tutil.check_int (label ^ ": replica + view subs") 2
        m.Metrics.cdc_subs)
    [
      ("ycsb", E.Ycsb (Tutil.small_ycsb ~table_size:2_000 ()));
      ( "tpcc",
        E.Tpcc (Tutil.small_tpcc ~warehouses:2 ~nparts:4 ~payment_only:true ())
      );
    ]

let test_replica_bounded_staleness () =
  let wl = Ycsb.make (Tutil.small_ycsb ~table_size:2_000 ~seed:11 ()) in
  let sim = Sim.create ~wake_cost:Costs.default.Costs.wakeup () in
  let cdc = Cdc.create ~sim ~costs:Costs.default wl.Workload.db in
  let rep = Replica.create wl.Workload.db in
  let sub =
    Cdc.subscribe cdc ~name:"replica" ~apply_every:3 (Replica.consumer rep)
  in
  let cfg =
    { Qe.default_cfg with Qe.planners = 2; executors = 2; batch_size = 256 }
  in
  ignore (Qe.run ~sim ~cdc cfg wl ~batches:6);
  (* staleness bound: the cursor never trails by more than apply_every *)
  Tutil.check_bool "lag bounded by apply period" true (Cdc.lag_max sub <= 3);
  Cdc.finish cdc;
  Tutil.check_int "cursor at newest batch" (Cdc.last_batch cdc)
    (Replica.cursor rep);
  Tutil.check_bool "replica rows cached" true (Replica.rows rep > 0);
  Tutil.check_bool "replica = committed state" true
    (Replica.consistent_with rep wl.Workload.db);
  (* spot-check a read against the base table *)
  let served = ref false in
  (try
     Table.iter_dense
       (fun row ->
         if not !served then begin
           (match Replica.read rep ~table:0 ~key:row.Row.key with
           | Some img ->
               Tutil.check_bool "replica read = committed" true
                 (img = row.Row.committed);
               served := true
           | None -> ())
         end)
       (Db.table wl.Workload.db 0)
   with Exit -> ());
  Tutil.check_bool "replica reads counted" true (Replica.reads rep > 0)

(* --------------------------- delivery --------------------------- *)

(* Every subscriber gets every batch once, in order, whatever the engine
   and however many subscribers with whatever apply periods: each sees
   batch numbers 0 .. last_batch in order, applies every event of the
   feed, is caught up to the newest batch after [finish], and its lag
   peaks at its apply period, or at the batch count when the run is
   shorter. *)
type engine = Quecc_in of mode | Serial_groups

let qcheck_every_batch_in_order =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ Quecc_in Lockstep; Quecc_in Pipelined; Serial_groups ])
        (int_range 1 8)
        (list_size (int_range 1 3) (int_range 1 6)))
  in
  let print (engine, batches, periods) =
    Printf.sprintf "%s batches=%d apply_every=[%s]"
      (match engine with Quecc_in m -> mode_name m | Serial_groups -> "serial")
      batches
      (String.concat ";" (List.map string_of_int periods))
  in
  QCheck.Test.make ~name:"every subscriber gets every batch once, in order"
    ~count:20 (QCheck.make ~print gen)
    (fun (engine, batches, periods) ->
      let wl = Ycsb.make (Tutil.small_ycsb ~table_size:1_000 ()) in
      let sim = Sim.create ~wake_cost:Costs.default.Costs.wakeup () in
      let cdc = Cdc.create ~sim ~costs:Costs.default wl.Workload.db in
      let subs =
        List.mapi
          (fun i apply_every ->
            let seen = ref [] and events = ref 0 and caught_up = ref (-1) in
            let sub =
              Cdc.subscribe cdc ~name:(Printf.sprintf "sub%d" i) ~apply_every
                {
                  Cdc.on_batch =
                    (fun b ->
                      seen := b.Cdc.batch_no :: !seen;
                      events := !events + Array.length b.Cdc.events);
                  on_caught_up = (fun ~batch_no -> caught_up := batch_no);
                }
            in
            (apply_every, sub, seen, events, caught_up))
          periods
      in
      let batch_size = 64 in
      (match engine with
      | Serial_groups ->
          ignore
            (Serial.run ~sim ~cdc ~batch_size wl ~txns:(batches * batch_size))
      | Quecc_in mode ->
          let cfg =
            {
              Qe.default_cfg with
              Qe.planners = 2;
              executors = 2;
              batch_size;
              pipeline = (mode = Pipelined);
            }
          in
          ignore (Qe.run ~sim ~cdc cfg wl ~batches));
      Cdc.finish cdc;
      let last = Cdc.last_batch cdc in
      Cdc.batches cdc = batches
      && last = batches - 1
      && List.for_all
           (fun (apply_every, sub, seen, events, caught_up) ->
             List.rev !seen = List.init (last + 1) Fun.id
             && !events = Cdc.events cdc
             && Cdc.delivered sub = Cdc.events cdc
             && !caught_up = last
             && Cdc.lag_max sub = min apply_every batches)
           subs)

(* ------------------------- validation ------------------------- *)

let test_rejections () =
  let spec = E.Ycsb (Tutil.small_ycsb ~table_size:1_000 ()) in
  Alcotest.check_raises "cdc rejected off capability set"
    (Invalid_argument
       "Experiment.run: --cdc/--views requires the 'cdc' capability, but \
        engine silo provides {clients}")
    (fun () ->
      ignore
        (E.run (E.make ~threads:2 ~txns:256 ~batch_size:128 ~cdc:true E.Silo spec)));
  let crash_plan =
    { F.none with F.crashes = [ { F.node = 0; at = 1_000; down = 1 } ] }
  in
  Alcotest.check_raises "cdc + crash faults rejected"
    (Invalid_argument
       "Experiment.run: --cdc cannot be combined with crash/disk faults \
        (the feed is a commit stream; a crash-truncated run would feed \
        subscribers retracted commits)")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~cdc:true ~wal:true
              ~faults:crash_plan
              (E.Quecc (Qe.Speculative, Qe.Serializable))
              spec)));
  (* the engine-level guard, for callers bypassing the harness *)
  let wl = Ycsb.make (Tutil.small_ycsb ~table_size:1_000 ()) in
  let sim = Sim.create () in
  let cdc = Cdc.create ~sim ~costs:Costs.default wl.Workload.db in
  Alcotest.check_raises "engine rejects cdc + crash_at"
    (Invalid_argument
       "Commit_point.create: a CDC feed cannot be combined with crash \
        faults (a crash-truncated run would feed subscribers retracted \
        commits)")
    (fun () ->
      ignore
        (Qe.run ~sim ~cdc ~crash_at:1_000
           { Qe.default_cfg with Qe.planners = 2; executors = 2 }
           wl ~batches:1));
  (* a subscriber registered after a publish would miss that batch *)
  let wl2 = Ycsb.make (Tutil.small_ycsb ~table_size:1_000 ()) in
  let sim2 = Sim.create () in
  let cdc2 = Cdc.create ~sim:sim2 ~costs:Costs.default wl2.Workload.db in
  ignore (Serial.run ~sim:sim2 ~cdc:cdc2 ~batch_size:128 wl2 ~txns:256);
  Alcotest.check_raises "subscribe after a publish rejected"
    (Invalid_argument
       "Cdc.subscribe stale: batch 1 is already published; subscribe \
        before the first publish")
    (fun () ->
      ignore
        (Cdc.subscribe cdc2 ~name:"stale"
           (Replica.consumer (Replica.create wl2.Workload.db))))

let test_experiment_counters () =
  List.iter
    (fun engine ->
      let e =
        E.make ~threads:4 ~txns:1024 ~batch_size:256 ~cdc:true engine
          (E.Ycsb (Tutil.small_ycsb ~table_size:2_000 ()))
      in
      let m = E.run e in
      let label = E.engine_name engine in
      Tutil.check_bool (label ^ ": events flowed") true
        (m.Metrics.cdc_events > 0);
      Tutil.check_int (label ^ ": all batches sealed") 4
        m.Metrics.cdc_batches;
      Tutil.check_int (label ^ ": one replica sub") 1 m.Metrics.cdc_subs;
      Tutil.check_bool (label ^ ": lag within replica staleness") true
        (m.Metrics.cdc_lag_max <= 4);
      Tutil.check_bool (label ^ ": bytes counted") true
        (m.Metrics.cdc_bytes > 0))
    [ E.Quecc (Qe.Speculative, Qe.Serializable); E.Serial ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "cdc"
    [
      ( "determinism",
        [
          Alcotest.test_case "feed identical across schedules" `Quick
            test_feed_identical_across_modes;
          Alcotest.test_case "feed replays to committed state" `Quick
            test_feed_replays_to_committed_state;
          Alcotest.test_case "tpcc feed identical across exec modes" `Quick
            test_tpcc_feed_identical_across_modes;
          Alcotest.test_case "tpcc feed covers every change" `Quick
            test_tpcc_feed_covers_every_change;
          Alcotest.test_case "serial group-commit feed" `Quick
            test_serial_feed_deterministic;
          Alcotest.test_case "canonicalization + wire shape" `Quick
            test_canonicalization;
          qc qcheck_canonical_reference;
          qc qcheck_feed_identity;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "view = recompute" `Quick
            test_view_equals_recompute;
          Alcotest.test_case "view through experiment" `Quick
            test_view_through_experiment;
          Alcotest.test_case "replica bounded staleness" `Quick
            test_replica_bounded_staleness;
          Alcotest.test_case "replica check mutations" `Quick
            test_replica_check_mutations;
        ] );
      ("delivery", [ qc qcheck_every_batch_in_order ]);
      ( "harness",
        [
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "experiment counters" `Quick
            test_experiment_counters;
        ] );
    ]
