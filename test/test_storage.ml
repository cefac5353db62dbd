open Quill_storage

let mk_table ?(capacity = 100) ?(nparts = 4) () =
  Table.create ~name:"t" ~nfields:3 ~capacity ~nparts ()

(* ------------------------- row ------------------------- *)

let test_row_publish_restore () =
  let r = Row.make ~key:1 ~nfields:3 in
  r.Row.data.(0) <- 10;
  Tutil.check_int "committed untouched" 0 r.Row.committed.(0);
  Row.publish r;
  Tutil.check_int "published" 10 r.Row.committed.(0);
  Row.restore r [| 7; 8; 9 |];
  Tutil.check_int "restored live" 7 r.Row.data.(0);
  Tutil.check_int "committed kept" 10 r.Row.committed.(0)

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
  Tutil.check_int "fresh row unmarked" (-1) r.Row.inserter;
  Cp.touch_insert cp 1 ~table:t r ~by:5;
  r.Row.data.(0) <- 7;
  Cp.touch cp 1 ~table:t r;
  Cp.touch cp 0 ~table:t r;
  Tutil.check_int "marked by its inserter" 5 r.Row.inserter;
  Tutil.check_bool "dirty" true r.Row.dirty;
  Cp.stage cp ~batch_no:0 ~txns:1;
  Cp.publish cp 0;
  Tutil.check_int "survives until its own slot is published" 5
    r.Row.inserter;
  Cp.publish cp 1;
  Tutil.check_int "cleared by publish" (-1) r.Row.inserter;
  Tutil.check_bool "clean" false r.Row.dirty;
  Tutil.check_int "published" 7 r.Row.committed.(0);
  (* the next batch starts from a clean row *)
  let d = Table.dense tbl 2 in
  d.Row.data.(1) <- 3;
  Cp.touch cp 0 ~table:t d;
  Tutil.check_int "dense rows are never marked" (-1) d.Row.inserter;
  Cp.publish cp 0;
  Tutil.check_int "committed image" 3 d.Row.committed.(1)

(* ------------------------- table ------------------------- *)

let test_table_dense () =
  let t = mk_table () in
  Tutil.check_int "capacity" 100 (Table.capacity t);
  let r = Table.dense t 42 in
  Tutil.check_int "key" 42 r.Row.key;
  Tutil.check_bool "find dense" true (Table.find t 42 = Some r);
  Alcotest.check_raises "oob" (Invalid_argument "Table.dense t: key 100")
    (fun () -> ignore (Table.dense t 100))

let test_table_insert_find_remove () =
  let t = mk_table () in
  Tutil.check_bool "missing" true (Table.find t 5_000 = None);
  let r = Table.insert t ~home:2 ~key:5_000 [| 1; 2; 3 |] in
  Tutil.check_int "payload" 2 r.Row.data.(1);
  Tutil.check_int "committed at insert" 2 r.Row.committed.(1);
  Tutil.check_bool "found" true (Table.find t 5_000 = Some r);
  Tutil.check_int "home recorded" 2 (Table.home_of_key t 5_000);
  Tutil.check_int "inserted count" 1 (Table.inserted_count t);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Table.insert t: duplicate key 5000") (fun () ->
      ignore (Table.insert t ~home:0 ~key:5_000 [| 0; 0; 0 |]));
  Table.remove t 5_000;
  Tutil.check_bool "removed" true (Table.find t 5_000 = None);
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

(* ------------------------- index ------------------------- *)

let test_index () =
  let ix = Index.create ~name:"i" in
  Index.add ix 10 100;
  Index.add ix 10 101;
  Index.add ix 20 200;
  Alcotest.(check (list int)) "find order" [ 100; 101 ] (Index.find ix 10);
  Alcotest.(check (list int)) "missing" [] (Index.find ix 99);
  Tutil.check_bool "pop fifo" true (Index.pop_min ix 10 = Some 100);
  Alcotest.(check (list int)) "after pop" [ 101 ] (Index.find ix 10);
  Tutil.check_bool "pop again" true (Index.pop_min ix 10 = Some 101);
  Tutil.check_bool "pop empty" true (Index.pop_min ix 10 = None);
  Tutil.check_bool "pop missing" true (Index.pop_min ix 77 = None);
  Tutil.check_int "size" 2 (Index.size ix)

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
  let row = Table.dense (Db.table_by_name d1 "t") 3 in
  row.Row.data.(1) <- 99;
  Tutil.check_bool "live differs" true
    (Db.live_checksum d1 <> Db.live_checksum d2);
  Tutil.check_bool "committed unchanged" true (Db.checksum d1 = Db.checksum d2);
  Row.publish row;
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
      let row = Table.dense (Db.table_by_name db "t") key in
      row.Row.data.(field) <- 12345;
      Row.publish row;
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
        ] );
      ("index", [ Alcotest.test_case "fifo index" `Quick test_index ]);
      ( "db",
        [
          Alcotest.test_case "catalog" `Quick test_db_catalog;
          Alcotest.test_case "checksum" `Quick test_db_checksum;
          qc prop_checksum_field_sensitive;
        ] );
    ]
