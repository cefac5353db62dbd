open Quill_common

type cfg = {
  warehouses : int;
  nparts : int;
  items : int;
  customers_per_district : int;
  mix_new_order : int;
  mix_payment : int;
  mix_order_status : int;
  mix_delivery : int;
  mix_stock_level : int;
  remote_payment_pct : int;
  remote_stock_pct : int;
  by_last_name_pct : int;
  invalid_item_pct : int;
  seed : int;
}

let default =
  {
    warehouses = 1;
    nparts = 1;
    items = 100_000;
    customers_per_district = 3000;
    mix_new_order = 45;
    mix_payment = 43;
    mix_order_status = 4;
    mix_delivery = 4;
    mix_stock_level = 4;
    remote_payment_pct = 15;
    remote_stock_pct = 1;
    by_last_name_pct = 60;
    invalid_item_pct = 1;
    seed = 7;
  }

let payment_mix cfg =
  {
    cfg with
    mix_new_order = 50;
    mix_payment = 50;
    mix_order_status = 0;
    mix_delivery = 0;
    mix_stock_level = 0;
  }

let dkey ~w ~d = (w * 10) + d
let ckey ~w ~d ~c = (dkey ~w ~d * 3000) + c
let skey ~w ~i = (w * 100_000) + i
let okey ~dk ~o = (dk lsl 24) lor o
let olkey ~ok ~ol = (ok lsl 4) lor ol
let dkey_of_okey ok = ok lsr 24

module W = struct
  let ytd = 0
  let tax = 1
  let nfields = 4
end

module D = struct
  let ytd = 0
  let tax = 1
  let next_o_id = 2
  let nfields = 4
end

module C = struct
  let balance = 0
  let ytd_payment = 1
  let payment_cnt = 2
  let discount = 3
  let last = 4
  let delivery_cnt = 5
  let credit = 6
  let nfields = 8
end

module H = struct
  let amount = 0
  let wd = 1
  let c = 2
  let nfields = 3
end

module NO = struct
  let delivered = 0
  let nfields = 1
end

module O = struct
  let c = 0
  (* field 1 (o_entry_d) stays 0: no transaction reads it *)
  let carrier = 2
  let ol_cnt = 3
  let nfields = 4
end

module OL = struct
  let i = 0
  let qty = 1
  let amount = 2
  let delivery_d = 3
  let supply_w = 4
  let nfields = 5
end

module I = struct
  let price = 0
  let im = 1
  let name = 2
  let nfields = 3
end

module S = struct
  let quantity = 0
  let ytd = 1
  let order_cnt = 2
  let remote_cnt = 3
  let nfields = 4
end

let op_no_wh = 10
let op_no_dist = 11
let op_no_cust = 12
let op_no_item = 13
let op_no_stock = 14
let op_no_ins_order = 15
let op_no_ins_neworder = 16
let op_no_ins_ol = 17
let op_pay_wh = 20
let op_pay_dist = 21
let op_pay_cust = 22
let op_pay_ins_hist = 23
let op_os_cust = 30
let op_os_order = 31
let op_os_ol = 32
let op_del_neworder = 40
let op_del_order = 41
let op_del_ol = 42
let op_del_cust = 43
let op_sl_dist = 50
let op_sl_ol = 51
let op_sl_stock = 52

(* Spec 2.1.6; C constants chosen once (any constant is spec-conformant
   for a given run). *)
let c_for_a a = match a with 255 -> 123 | 1023 -> 259 | 8191 -> 4099 | _ -> 42

let nurand rng ~a ~x ~y =
  let c = c_for_a a in
  ((((Rng.int_incl rng 0 a) lor Rng.int_incl rng x y) + c) mod (y - x + 1)) + x

let last_name_num rng = nurand rng ~a:255 ~x:0 ~y:999
