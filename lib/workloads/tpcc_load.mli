(** TPC-C schema creation and initial population (clause 4.3.3, with the
    deviations documented in DESIGN.md: the order-family tables start
    empty, text attributes are integer surrogates).  The hot scalar
    tables (warehouse, district) and the order family use hash placement
    derived from the district embedded in the key, so an order always
    lives with its district. *)

type handles = {
  db : Quill_storage.Db.t;
  t_warehouse : int;
  t_district : int;
  t_customer : int;
  t_history : int;
  t_new_order : int;
  t_orders : int;
  t_order_line : int;
  t_item : int;
  t_stock : int;
  ix_cust_by_name : int;
      (** secondary index: [dkey * 1000 + last-name surrogate] -> ckeys *)
}

val of_db : Quill_storage.Db.t -> handles
(** The handles of a database {!build} created, looked up by table and
    index name.  Raises [Invalid_argument] when one is missing. *)

val build : Tpcc_defs.cfg -> handles
(** Create all nine tables and the customer-by-last-name index, empty. *)

val populate : Tpcc_defs.cfg -> handles -> unit
(** Load warehouses, districts, customers, items and stock per spec. *)

val make : Tpcc_defs.cfg -> handles
(** [build] then [populate]. *)
