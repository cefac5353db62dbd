(** TPC-C schema constants: table ids are assigned by {!Tpcc_load}, this
    module owns key encodings, field layouts, opcodes and the standard
    random distributions (TPC-C v5.11 clause 2 / 4.3.2 / 4.3.3).

    All composite primary keys are packed into a single int:
    - district:   [w*10 + d]
    - customer:   [dkey*3000 + c]
    - stock:      [w*100000 + i]
    - orders:     [dkey << 24 | o]          (o is 0-based, pre-assigned)
    - order_line: [okey << 4 | ol]          (ol in 0..14)
    - new_order:  same key domain as orders
    - history:    generator-unique surrogate key

    Monetary amounts are fixed-point cents; tax/discount rates are
    x10000.  Text attributes are represented by integer surrogates
    (hashes), which preserves record sizes' order of magnitude and every
    access pattern while keeping rows as int arrays (see DESIGN.md). *)

type cfg = {
  warehouses : int;
  nparts : int;
  items : int;                 (** spec: 100_000; scale down for tests *)
  customers_per_district : int;(** spec: 3000 *)
  mix_new_order : int;         (** percentages, must sum to 100 *)
  mix_payment : int;
  mix_order_status : int;
  mix_delivery : int;
  mix_stock_level : int;
  remote_payment_pct : int;    (** spec: 15 *)
  remote_stock_pct : int;      (** spec: 1 (per order line) *)
  by_last_name_pct : int;      (** spec: 60 *)
  invalid_item_pct : int;      (** spec: 1 (of new-orders) *)
  seed : int;
}

val default : cfg
(** 1 warehouse, full-size tables, the standard 45/43/4/4/4 mix. *)

val payment_mix : cfg -> cfg
(** The QueCC-paper evaluation mix: 50% NewOrder / 50% Payment. *)

(* -- key encoding -- *)
val dkey : w:int -> d:int -> int
val ckey : w:int -> d:int -> c:int -> int
val skey : w:int -> i:int -> int
val okey : dk:int -> o:int -> int
val olkey : ok:int -> ol:int -> int
val dkey_of_okey : int -> int

(* -- field indexes -- *)
module W : sig
  val ytd : int
  val tax : int
  val nfields : int
end

module D : sig
  val ytd : int
  val tax : int
  val next_o_id : int
  val nfields : int
end

module C : sig
  val balance : int
  val ytd_payment : int
  val payment_cnt : int
  val discount : int
  val last : int
  val delivery_cnt : int
  val credit : int
  val nfields : int
end

module H : sig
  val amount : int
  val wd : int
  val c : int
  val nfields : int
end

module NO : sig
  val delivered : int
  val nfields : int
end

module O : sig
  val c : int
  val carrier : int
  val ol_cnt : int
  val nfields : int
end

module OL : sig
  val i : int
  val qty : int
  val amount : int
  val delivery_d : int
  val supply_w : int
  val nfields : int
end

module I : sig
  val price : int
  val im : int
  val name : int
  val nfields : int
end

module S : sig
  val quantity : int
  val ytd : int
  val order_cnt : int
  val remote_cnt : int
  val nfields : int
end

(* -- opcodes (fragment logic selectors) -- *)
val op_no_wh : int
val op_no_dist : int
val op_no_cust : int
val op_no_item : int
val op_no_stock : int
val op_no_ins_order : int
val op_no_ins_neworder : int
val op_no_ins_ol : int
val op_pay_wh : int
val op_pay_dist : int
val op_pay_cust : int
val op_pay_ins_hist : int
val op_os_cust : int
val op_os_order : int
val op_os_ol : int
val op_del_neworder : int
val op_del_order : int
val op_del_ol : int
val op_del_cust : int
val op_sl_dist : int
val op_sl_ol : int
val op_sl_stock : int

(* -- random distributions -- *)
val nurand : Quill_common.Rng.t -> a:int -> x:int -> y:int -> int
(** Spec 2.1.6 non-uniform random, with the standard C constants. *)

val last_name_num : Quill_common.Rng.t -> int
(** NURand(255) last-name surrogate in [0, 999]. *)
