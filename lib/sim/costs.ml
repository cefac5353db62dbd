type t = {
  row_read : int;
  row_write : int;
  index_probe : int;
  index_insert : int;
  cas : int;
  lock_acquire : int;
  lock_release : int;
  lock_mgr_op : int;
  queue_op : int;
  plan_fragment : int;
  txn_overhead : int;
  validate_access : int;
  logic : int;
  abort_cleanup : int;
  msg_fixed : int;
  msg_per_byte : int;
  net_latency : int;
  ipc_latency : int;
  wakeup : int;
  crash_reboot : int;
  wal_byte : int;
  wal_fsync : int;
  cdc_event : int;
  cdc_publish : int;
}

let default =
  {
    row_read = 50;
    row_write = 60;
    index_probe = 80;
    index_insert = 120;
    cas = 30;
    lock_acquire = 40;
    lock_release = 25;
    lock_mgr_op = 900;
    queue_op = 25;
    plan_fragment = 70;
    txn_overhead = 250;
    validate_access = 35;
    logic = 100;
    abort_cleanup = 40;
    msg_fixed = 3000;
    msg_per_byte = 250;    (* milli-ns per byte: 0.25 ns/B ~ 4 GB/s *)
    net_latency = 10_000;
    ipc_latency = 2_000;
    wakeup = 200;
    crash_reboot = 50_000;
    wal_byte = 60;         (* milli-ns per byte: 0.06 ns/B ~ 16 GB/s buffer copy *)
    wal_fsync = 25_000;
    cdc_event = 3;         (* serialize/apply one change event (~70B memcpy) *)
    cdc_publish = 1_000;   (* per-batch feed seal + subscriber queue handoff *)
  }

let zero =
  {
    row_read = 0;
    row_write = 0;
    index_probe = 0;
    index_insert = 0;
    cas = 0;
    lock_acquire = 0;
    lock_release = 0;
    lock_mgr_op = 0;
    queue_op = 0;
    plan_fragment = 0;
    txn_overhead = 0;
    validate_access = 0;
    logic = 0;
    abort_cleanup = 0;
    msg_fixed = 0;
    msg_per_byte = 0;
    net_latency = 0;
    ipc_latency = 0;
    wakeup = 0;
    crash_reboot = 0;
    wal_byte = 0;
    wal_fsync = 0;
    cdc_event = 0;
    cdc_publish = 0;
  }
