(** Virtual-time cost model.

    Every value is in virtual nanoseconds.  The defaults are calibrated to
    published main-memory OLTP measurements (DBx1000 / Staring-into-the-
    abyss era hardware): data accesses cost tens of nanoseconds, lock
    manager operations ~a microsecond, LAN messages ~10 microseconds.
    Absolute simulator throughput is only meaningful relative to these
    constants; the benchmark harness reports ratios. *)

type t = {
  row_read : int;        (** read one row's payload *)
  row_write : int;       (** write one row's payload *)
  index_probe : int;     (** primary index lookup *)
  index_insert : int;    (** insert into an index / append arena *)
  cas : int;             (** one atomic RMW on a metadata word *)
  lock_acquire : int;    (** uncontended latch/lock acquire *)
  lock_release : int;
  lock_mgr_op : int;     (** centralized lock-manager queue operation (Calvin) *)
  queue_op : int;        (** push/pop on an execution queue *)
  plan_fragment : int;   (** planner work per fragment (routing + tagging) *)
  txn_overhead : int;    (** per-transaction bookkeeping (begin/commit path) *)
  validate_access : int; (** OCC validation work per access-set entry *)
  logic : int;           (** per-fragment business logic *)
  abort_cleanup : int;   (** per-access cleanup on abort *)
  msg_fixed : int;       (** CPU cost to send or receive one message *)
  msg_per_byte : int;    (** serialization cost per payload byte (x1000: milli-ns) *)
  net_latency : int;     (** one-way network propagation delay *)
  ipc_latency : int;     (** one-way cross-thread message-queue delay on a
                             single node (H-Store-style thread coordination) *)
  wakeup : int;          (** scheduler wakeup after blocking *)
  crash_reboot : int;    (** fixed restart overhead after a simulated
                             node crash, before queue replay begins *)
  wal_byte : int;        (** WAL serialization / replay-scan cost per log
                             byte (x1000: milli-ns) *)
  wal_fsync : int;       (** one durable flush of the WAL tail (the group
                             commit's single fsync) *)
  cdc_event : int;       (** serialize or apply one change-data-capture
                             event (a compact before/after image copy) *)
  cdc_publish : int;     (** seal one batch of the CDC feed and hand it to
                             the subscriber queues *)
}

val default : t
val zero : t
(** All-zero cost model, useful in unit tests where only ordering matters. *)
