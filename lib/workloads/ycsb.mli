(** YCSB-style transactional key-value workload (Cooper et al., SoCC'10),
    embedded as stored procedures the way ExpoDB/DBx1000 do: each
    transaction performs [ops_per_txn] operations on distinct keys drawn
    from a (scrambled) zipfian distribution.

    Knobs map directly onto the paper's experiments: [theta] controls
    contention (Table 2 row 3's YCSB counterpart), [mp_ratio] controls
    multi-partition transactions (row 1), and [abort_ratio]/
    [abort_threshold] inject data-dependent abortable fragments to
    exercise speculative vs conservative execution (section 3.2). *)

type cfg = {
  table_size : int;
  fields : int;
  ops_per_txn : int;
  read_ratio : float;      (** fraction of operations that are pure reads *)
  theta : float;           (** zipfian skew; 0 = uniform *)
  nparts : int;
  mp_ratio : float;        (** fraction of multi-partition transactions *)
  parts_per_txn : int;     (** partitions touched by a multi-partition txn *)
  abort_ratio : float;     (** fraction of txns carrying an abortable fragment *)
  abort_threshold : int;   (** 0-256: P(abort | abortable) ~ threshold/256 *)
  chain_deps : bool;       (** thread a data dependency through the ops *)
  global_zipf : bool;
      (** draw keys zipfian over the whole table instead of folding the
          draw into a per-txn partition choice: the globally hottest
          keys are then shared by every stream, the contention shape
          the adaptive planner's skew experiments target.  Ignores
          [mp_ratio]/[parts_per_txn]. *)
  seed : int;
}

val default : cfg
(** 100k rows, 10 fields, 10 ops, 50% reads, uniform, 4 partitions, no
    multi-partition txns, no aborts. *)

val min_part_rows : cfg -> int
(** Rows in the smallest partition: the last, which gets what the
    others leave, possibly none.  Unless [global_zipf] is set, a
    transaction draws its [ops_per_txn] distinct keys inside one
    partition, so a smaller last partition never finishes the draw. *)

val make : cfg -> Quill_txn.Workload.t
(** Builds and populates the database, returns the workload handle. *)

(* Opcodes, exposed for white-box tests. *)
val op_read : int
val op_rmw : int
val op_write : int
val op_abort_check : int
val op_rmw_dep : int
