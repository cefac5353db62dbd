(* Schema creation and initial population (TPC-C clause 4.3.3, with the
   deviations documented in DESIGN.md: order-family tables start empty
   and text attributes are integer surrogates). *)

open Quill_common
open Quill_storage
open Tpcc_defs

type handles = {
  db : Db.t;
  t_warehouse : int;
  t_district : int;
  t_customer : int;
  t_history : int;
  t_new_order : int;
  t_orders : int;
  t_order_line : int;
  t_item : int;
  t_stock : int;
  ix_cust_by_name : int;  (* (dkey*1000 + last-name surrogate) -> ckeys *)
}

(* The handles of a database [build] created: its tables and index are
   looked up by name, so a workload needs to keep nothing but its
   database. *)
let of_db db =
  let t = Db.table_id db in
  {
    db;
    t_warehouse = t "warehouse";
    t_district = t "district";
    t_customer = t "customer";
    t_history = t "history";
    t_new_order = t "new_order";
    t_orders = t "orders";
    t_order_line = t "order_line";
    t_item = t "item";
    t_stock = t "stock";
    ix_cust_by_name = Db.index_id db "cust_by_name";
  }

let build (cfg : cfg) =
  let w = cfg.warehouses in
  let db = Db.create ~nparts:cfg.nparts in
  let dcap = w * 10 in
  (* Hash placement for the hot scalar rows: with few warehouses, range
     partitioning would pile every district (and the whole order family)
     onto a few executors. *)
  let district_home dk = dk mod cfg.nparts in
  let order_home key = district_home (dkey_of_okey key) in
  let ol_home key = district_home (key lsr 28) in
  ignore
    (Db.add_table db ~name:"warehouse" ~nfields:W.nfields ~capacity:w
       ~home_fn:(fun wk -> wk mod cfg.nparts));
  ignore
    (Db.add_table db ~name:"district" ~nfields:D.nfields ~capacity:dcap
       ~home_fn:district_home);
  ignore
    (Db.add_table db ~name:"customer" ~nfields:C.nfields
       ~capacity:(dcap * cfg.customers_per_district));
  ignore
    (Db.add_table db ~name:"history" ~nfields:H.nfields ~capacity:0);
  ignore
    (Db.add_table db ~name:"new_order" ~nfields:NO.nfields ~capacity:0
       ~home_fn:order_home);
  ignore
    (Db.add_table db ~name:"orders" ~nfields:O.nfields ~capacity:0
       ~home_fn:order_home);
  ignore
    (Db.add_table db ~name:"order_line" ~nfields:OL.nfields ~capacity:0
       ~home_fn:ol_home);
  ignore
    (Db.add_table db ~name:"item" ~nfields:I.nfields ~capacity:cfg.items);
  ignore
    (Db.add_table db ~name:"stock" ~nfields:S.nfields ~capacity:(w * 100_000));
  ignore (Db.add_index db ~name:"cust_by_name");
  of_db db

(* [init tbl key] for every dense row of [tbl], in key order, each row
   published after its fields are set. *)
let load tbl init =
  for key = 0 to Table.capacity tbl - 1 do
    init tbl key;
    Table.publish tbl key
  done

let populate (cfg : cfg) h =
  let rng = Rng.create (cfg.seed * 31 + 5) in
  let db = h.db in
  load (Db.table db h.t_warehouse) (fun tbl key ->
      Table.set tbl key W.ytd 3_000_000_00;
      Table.set tbl key W.tax (Rng.int_incl rng 0 2000));
  load (Db.table db h.t_district) (fun tbl key ->
      Table.set tbl key D.ytd 300_000_00;
      Table.set tbl key D.tax (Rng.int_incl rng 0 2000);
      Table.set tbl key D.next_o_id 0);
  let idx = Db.index db h.ix_cust_by_name in
  load (Db.table db h.t_customer) (fun tbl ck ->
      let dk = ck / 3000 in
      (* Clause 4.3.3.1: the first 1000 customers of each district get
         sequential last names, the rest NURand(255). *)
      let cpos = ck mod 3000 in
      let last =
        if cpos < 1000 && cfg.customers_per_district >= 1000 then cpos
        else last_name_num rng
      in
      Table.set tbl ck C.balance (-10_00);
      Table.set tbl ck C.ytd_payment 10_00;
      Table.set tbl ck C.payment_cnt 1;
      Table.set tbl ck C.discount (Rng.int_incl rng 0 5000);
      Table.set tbl ck C.last last;
      Table.set tbl ck C.delivery_cnt 0;
      Table.set tbl ck C.credit (if Rng.int rng 100 < 10 then 1 else 0);
      Index.add idx ((dk * 1000) + last) ck);
  load (Db.table db h.t_item) (fun tbl key ->
      Table.set tbl key I.price (Rng.int_incl rng 100 10000);
      Table.set tbl key I.im (Rng.int_incl rng 1 10_000);
      Table.set tbl key I.name (Rng.int rng 1_000_000));
  load (Db.table db h.t_stock) (fun tbl key ->
      Table.set tbl key S.quantity (Rng.int_incl rng 10 100);
      Table.set tbl key S.ytd 0;
      Table.set tbl key S.order_cnt 0;
      Table.set tbl key S.remote_cnt 0)

let make cfg =
  let h = build cfg in
  populate cfg h;
  h
