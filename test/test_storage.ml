open Quill_storage

let mk_table ?(capacity = 100) ?(nparts = 4) () =
  Table.create ~name:"t" ~nfields:3 ~capacity ~nparts ()

(* ------------------------- row ------------------------- *)

let test_row_publish_restore () =
  let t = mk_table () in
  Table.set t 1 0 10;
  Tutil.check_int "committed untouched" 0 (Table.committed t 1 0);
  Table.publish t 1;
  Tutil.check_int "published" 10 (Table.committed t 1 0);
  Table.restore t 1 [| 7; 8; 9 |];
  Tutil.check_int "restored live" 7 (Table.get t 1 0);
  Tutil.check_int "committed kept" 10 (Table.committed t 1 0)

(* A row's only batch state is its [inserter] mark: set when a batch
   inserts the row, kept while the batch is staged (stage logs the row
   as an insert by it), cleared by publish, which also cleans the row. *)
let test_row_batch_reset () =
  let module Cp = Quill_commit.Commit_point in
  let db = Db.create ~nparts:2 in
  let t = Db.add_table db ~name:"t" ~nfields:2 ~capacity:4 in
  let tbl = Db.table db t in
  let cp = Cp.create ~slots:2 (Quill_sim.Sim.create ()) db in
  let r = Table.insert tbl ~home:1 ~key:100 [| 1; 2 |] in
  Tutil.check_int "fresh row unmarked" (-1) (Table.inserter tbl r);
  Cp.touch_insert cp 1 ~table:t r ~by:5;
  Table.set tbl r 0 7;
  Cp.touch cp 1 ~table:t r;
  Cp.touch cp 0 ~table:t r;
  Tutil.check_int "marked by its inserter" 5 (Table.inserter tbl r);
  Tutil.check_bool "dirty" true (Table.dirty tbl r);
  Cp.stage cp ~batch_no:0 ~txns:1;
  Cp.publish cp 0;
  Tutil.check_int "survives until its own slot is published" 5
    (Table.inserter tbl r);
  Cp.publish cp 1;
  Tutil.check_int "cleared by publish" (-1) (Table.inserter tbl r);
  Tutil.check_bool "clean" false (Table.dirty tbl r);
  Tutil.check_int "published" 7 (Table.committed tbl r 0);
  (* the next batch starts from a clean row *)
  Table.set tbl 2 1 3;
  Cp.touch cp 0 ~table:t 2;
  Tutil.check_int "dense rows are never marked" (-1) (Table.inserter tbl 2);
  Cp.publish cp 0;
  Tutil.check_int "committed image" 3 (Table.committed tbl 2 1)

(* ------------------------- table ------------------------- *)

let test_table_dense () =
  let t = mk_table () in
  Tutil.check_int "capacity" 100 (Table.capacity t);
  let r = Table.dense t 42 in
  Tutil.check_int "key" 42 r.Row.key;
  Tutil.check_int "a dense key is its slot" 42 (Table.find t 42);
  Alcotest.check_raises "oob" (Invalid_argument "Table.dense t: key 100")
    (fun () -> ignore (Table.dense t 100))

let test_table_insert_find_remove () =
  let t = mk_table () in
  Tutil.check_int "missing" (-1) (Table.find t 5_000);
  let r = Table.insert t ~home:2 ~key:5_000 [| 1; 2; 3 |] in
  Tutil.check_int "payload" 2 (Table.get t r 1);
  Tutil.check_int "committed at insert" 2 (Table.committed t r 1);
  Tutil.check_int "found" r (Table.find t 5_000);
  Tutil.check_int "slot after the dense region" 100 r;
  Tutil.check_int "home recorded" 2 (Table.home_of_key t 5_000);
  Tutil.check_int "inserted count" 1 (Table.inserted_count t);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Table.insert t: duplicate key 5000") (fun () ->
      ignore (Table.insert t ~home:0 ~key:5_000 [| 0; 0; 0 |]));
  Table.remove t 5_000;
  Tutil.check_int "removed" (-1) (Table.find t 5_000);
  Tutil.check_int "key kept on the slot" 5_000 (Table.key_of_slot t r);
  Tutil.check_int "slots are not reused" (r + 1)
    (Table.insert t ~home:0 ~key:5_000 [| 0; 0; 0 |]);
  Alcotest.check_raises "remove dense"
    (Invalid_argument "Table.remove: dense keys cannot be removed") (fun () ->
      Table.remove t 10)

let test_table_range_partitioning () =
  let t = mk_table ~capacity:100 ~nparts:4 () in
  Tutil.check_int "first range" 0 (Table.home_of_key t 0);
  Tutil.check_int "second range" 1 (Table.home_of_key t 25);
  Tutil.check_int "last range" 3 (Table.home_of_key t 99);
  (* contiguity: homes are monotone in the key *)
  let prev = ref 0 in
  for k = 0 to 99 do
    let h = Table.home_of_key t k in
    Tutil.check_bool "monotone" true (h >= !prev);
    prev := h
  done

let test_table_custom_home () =
  let t =
    Table.create ~name:"orders" ~nfields:1 ~capacity:0 ~nparts:4
      ~home_fn:(fun key -> key lsr 24 mod 4) ()
  in
  let key = (7 lsl 24) lor 123 in
  Tutil.check_int "derived home" 3 (Table.home_of_key t key);
  let _ = Table.insert t ~home:(Table.home_of_key t key) ~key [| 1 |] in
  Tutil.check_int "still derived" 3 (Table.home_of_key t key)

(* A random sequence of operations on a table against a reference
   model: key -> (home, live image, committed image).  Keys [0, 8) are
   dense; inserts draw from [-4, 24), so some collide with dense keys and
   with each other.  After every operation each model row must be found
   with both images, every absent key must miss, and the inserted rows
   must be counted, homed and iterated in key order. *)
type op =
  | Create of int * int  (* key, value of every field *)
  | Remove of int
  | Find of int
  | Set of int * int * int  (* key, field, value *)
  | Publish of int
  | Revert of int
  | Restore of int * int
  | Clone
  | Overwrite

let print_op = function
  | Create (k, v) -> Printf.sprintf "insert %d=%d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Set (k, f, v) -> Printf.sprintf "set %d.%d=%d" k f v
  | Publish k -> Printf.sprintf "publish %d" k
  | Revert k -> Printf.sprintf "revert %d" k
  | Restore (k, v) -> Printf.sprintf "restore %d=%d" k v
  | Clone -> "clone"
  | Overwrite -> "overwrite_from"

let gen_op =
  let open QCheck.Gen in
  let key = int_range (-4) 23 and v = int_range 0 99 in
  frequency
    [
      (4, map2 (fun k v -> Create (k, v)) key v);
      (2, map (fun k -> Remove k) key);
      (2, map (fun k -> Find k) key);
      (4, map3 (fun k f v -> Set (k, f, v)) key (int_bound 1) v);
      (2, map (fun k -> Publish k) key);
      (2, map (fun k -> Revert k) key);
      (1, map2 (fun k v -> Restore (k, v)) key v);
      (1, return Clone);
      (1, return Overwrite);
    ]

let prop_table_model =
  let nfields = 2 and capacity = 8 and nparts = 3 in
  let fresh () = Table.create ~name:"m" ~nfields ~capacity ~nparts () in
  QCheck.Test.make ~name:"table matches a key -> (live, committed) model"
    ~count:300
    QCheck.(make ~print:(Print.list print_op) Gen.(list_size (0 -- 60) gen_op))
    (fun ops ->
      let model : (int, int * int array * int array) Hashtbl.t =
        Hashtbl.create 64
      in
      for k = 0 to capacity - 1 do
        Hashtbl.replace model k
          (Table.home_of_key (fresh ()) k, Array.make nfields 0,
           Array.make nfields 0)
      done;
      let t = ref (fresh ()) in
      let dense k = k >= 0 && k < capacity in
      let update k f =
        match Hashtbl.find_opt model k with
        | Some (h, live, committed) ->
            f (Table.find !t k) live committed;
            Hashtbl.replace model k (h, live, committed)
        | None -> ()
      in
      let check () =
        let ok = ref true in
        for k = -4 to 23 do
          let slot = Table.find !t k in
          match Hashtbl.find_opt model k with
          | None -> if slot <> -1 then ok := false
          | Some (h, live, committed) ->
              if
                slot < 0
                || Table.live_image !t slot <> live
                || Table.committed_image !t slot <> committed
                || Table.home_of_key !t k <> h
                || Table.key_of_slot !t slot <> k
              then ok := false
        done;
        let inserted =
          (* lint: order-insensitive — collected then sorted *)
          Hashtbl.fold (fun k _ acc -> if dense k then acc else k :: acc) model []
          |> List.sort compare
        in
        let seen = ref [] in
        Table.iter_inserted
          (fun k slot ->
            if Table.find !t k <> slot then ok := false;
            seen := k :: !seen)
          !t;
        !ok
        && List.rev !seen = inserted
        && Table.inserted_count !t = List.length inserted
      in
      List.for_all
        (fun op ->
          (match op with
          | Create (k, v) -> (
              let payload = Array.make nfields v in
              match Table.insert !t ~home:(abs v mod nparts) ~key:k payload with
              | _ ->
                  assert (not (Hashtbl.mem model k));
                  Hashtbl.replace model k
                    (abs v mod nparts, Array.copy payload, Array.copy payload)
              | exception Invalid_argument _ -> assert (Hashtbl.mem model k))
          | Remove k -> (
              match Table.remove !t k with
              | () -> Hashtbl.remove model k
              | exception Invalid_argument _ -> assert (dense k))
          | Find _ -> ()
          | Set (k, f, v) ->
              update k (fun slot live _ ->
                  Table.set !t slot f v;
                  live.(f) <- v)
          | Publish k ->
              update k (fun slot live committed ->
                  Table.publish !t slot;
                  Array.blit live 0 committed 0 nfields)
          | Revert k ->
              update k (fun slot live committed ->
                  Table.revert !t slot;
                  Array.blit committed 0 live 0 nfields)
          | Restore (k, v) ->
              update k (fun slot live _ ->
                  Table.restore !t slot (Array.make nfields v);
                  Array.fill live 0 nfields v)
          | Clone ->
              let c = Table.clone !t in
              (* the copy is independent of the original *)
              Table.set !t 0 0 (-1);
              t := c
          | Overwrite ->
              let d = fresh () in
              ignore (Table.insert d ~home:0 ~key:99 [| 1; 1 |]);
              Table.overwrite_from ~src:!t d;
              t := d);
          check ())
        ops)

(* The flat layout's footprint: a 100,000-row, 10-field table holds at
   most [2 * nfields + 2] words per row (the two images plus per-slot
   batch state), and dense find, get and set allocate nothing. *)
let test_table_footprint () =
  let rows = 100_000 and nfields = 10 in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let t = Table.create ~name:"big" ~nfields ~capacity:rows ~nparts:4 () in
  let words = live () - before in
  Tutil.check_bool
    (Printf.sprintf "%d words per row <= %d" (words / rows) ((2 * nfields) + 2))
    true
    (words <= rows * ((2 * nfields) + 2));
  let acc = ref 0 in
  let alloc =
    Tutil.minor_words_during (fun () ->
        for k = 0 to 9_999 do
          let slot = Table.find t (k * 7) in
          Table.set t slot (k mod nfields) k;
          acc := !acc + Table.get t slot (k mod nfields)
        done)
  in
  Tutil.check_bool "dense find/get/set allocate nothing" true (alloc = 0.);
  ignore (Sys.opaque_identity (t, !acc))

(* ------------------------- index ------------------------- *)

let test_index () =
  let ix = Index.create ~name:"i" in
  Index.add ix 10 100;
  Index.add ix 10 101;
  Index.add ix 20 200;
  Alcotest.(check (list int)) "find order" [ 100; 101 ] (Index.find ix 10);
  Alcotest.(check (list int)) "missing" [] (Index.find ix 99);
  let c = Index.clone ix in
  Index.add ix 10 102;
  Alcotest.(check (list int)) "clone is deep" [ 100; 101 ] (Index.find c 10);
  Alcotest.(check (list int)) "original grows" [ 100; 101; 102 ]
    (Index.find ix 10);
  Index.overwrite_from ~src:c ix;
  Alcotest.(check (list int)) "overwritten" [ 100; 101 ] (Index.find ix 10);
  Alcotest.(check (list int)) "other keys kept" [ 200 ] (Index.find ix 20);
  Alcotest.check_raises "name mismatch"
    (Invalid_argument "Index.overwrite_from: name") (fun () ->
      Index.overwrite_from ~src:c (Index.create ~name:"j"))

(* ------------------------- db ------------------------- *)

let test_db_catalog () =
  let db = Db.create ~nparts:4 in
  let a = Db.add_table db ~name:"a" ~nfields:2 ~capacity:10 in
  let b = Db.add_table db ~name:"b" ~nfields:1 ~capacity:0 in
  let ix = Db.add_index db ~name:"ia" in
  Tutil.check_int "ids dense" 0 a;
  Tutil.check_int "ids dense 2" 1 b;
  Tutil.check_int "index id" 0 ix;
  Tutil.check_int "ntables" 2 (Db.ntables db);
  Tutil.check_int "lookup" a (Db.table_id db "a");
  Tutil.check_bool "by name" true (Db.table_by_name db "a" == Db.table db a);
  Alcotest.check_raises "dup table" (Invalid_argument "Db.add_table: duplicate a")
    (fun () -> ignore (Db.add_table db ~name:"a" ~nfields:1 ~capacity:0));
  Alcotest.check_raises "unknown" (Invalid_argument "Db.table_id: unknown z")
    (fun () -> ignore (Db.table_id db "z"))

let test_db_checksum () =
  let mk () =
    let db = Db.create ~nparts:2 in
    let _ = Db.add_table db ~name:"t" ~nfields:2 ~capacity:16 in
    db
  in
  let d1 = mk () and d2 = mk () in
  Tutil.check_bool "equal initial" true (Db.checksum d1 = Db.checksum d2);
  let tbl = Db.table_by_name d1 "t" in
  Table.set tbl 3 1 99;
  Tutil.check_bool "live differs" true
    (Db.live_checksum d1 <> Db.live_checksum d2);
  Tutil.check_bool "committed unchanged" true (Db.checksum d1 = Db.checksum d2);
  Table.publish tbl 3;
  Tutil.check_bool "committed differs after publish" true
    (Db.checksum d1 <> Db.checksum d2);
  (* inserted rows affect the digest *)
  let _ = Table.insert (Db.table_by_name d2 "t") ~home:0 ~key:100 [| 0; 0 |] in
  Tutil.check_bool "insert changes digest" true
    (Db.checksum d2 <> Db.checksum (mk ()))

let prop_checksum_field_sensitive =
  QCheck.Test.make ~name:"checksum distinguishes single-field flips" ~count:50
    QCheck.(pair (int_bound 15) (int_bound 1))
    (fun (key, field) ->
      let db = Db.create ~nparts:2 in
      let _ = Db.add_table db ~name:"t" ~nfields:2 ~capacity:16 in
      let before = Db.checksum db in
      let tbl = Db.table_by_name db "t" in
      Table.set tbl key field 12345;
      Table.publish tbl key;
      Db.checksum db <> before)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "row",
        [
          Alcotest.test_case "publish/restore" `Quick test_row_publish_restore;
          Alcotest.test_case "batch reset" `Quick test_row_batch_reset;
        ] );
      ( "table",
        [
          Alcotest.test_case "dense" `Quick test_table_dense;
          Alcotest.test_case "insert/find/remove" `Quick
            test_table_insert_find_remove;
          Alcotest.test_case "range partitioning" `Quick
            test_table_range_partitioning;
          Alcotest.test_case "custom home" `Quick test_table_custom_home;
          Alcotest.test_case "footprint" `Quick test_table_footprint;
          qc prop_table_model;
        ] );
      ("index", [ Alcotest.test_case "fifo index" `Quick test_index ]);
      ( "db",
        [
          Alcotest.test_case "catalog" `Quick test_db_catalog;
          Alcotest.test_case "checksum" `Quick test_db_checksum;
          qc prop_checksum_field_sensitive;
        ] );
    ]
