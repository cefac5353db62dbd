open Quill_common

type t = {
  mutable committed : int;
  mutable logic_aborted : int;
  mutable cc_aborts : int;
  mutable cascades : int;
  lat : Stats.Hist.t;
  mutable elapsed : int;
  mutable busy : int;
  mutable idle : int;
  mutable threads : int;
  mutable batches : int;
  mutable msgs : int;
  mutable effective_txns : int;
  (* Per-phase busy breakdown (virtual ns charged while the phase was
     active); phases not applicable to an engine stay 0. *)
  mutable plan_busy : int;
  mutable exec_busy : int;
  mutable recover_busy : int;
  mutable publish_busy : int;
  mutable other_busy : int;
  (* Idle time split by the primitive waited on. *)
  mutable idle_barrier : int;
  mutable idle_ivar : int;
  mutable idle_chan : int;
  mutable idle_sleep : int;
  (* Fault-injection / recovery counters; stay 0 on fault-free runs. *)
  mutable crashes : int;
  mutable redone : int;
  mutable msg_retries : int;
  mutable msg_dup_drops : int;
  (* Pipelined-execution counters; stay 0 on non-pipelined runs.  Fill
     stalls: executor idle waiting for the next planned batch (pipeline
     starved); drain stalls: planner idle waiting for a queue buffer to
     drain (pipeline backed up). *)
  mutable pipe_fill_stall : int;
  mutable pipe_drain_stall : int;
  (* Threads contributing to each stall sum (executors for fill,
     planners for drain).  The raw sums grow with the thread count, so
     cross-engine comparisons must divide by these; see
     [fill_stall_avg] / [drain_stall_avg]. *)
  mutable pipe_fill_threads : int;
  mutable pipe_drain_threads : int;
  (* Adaptive-planning counters (QueCC cfg.split / cfg.adapt). *)
  mutable split_keys : int;      (* hot keys split into sub-queue chains *)
  mutable split_subqueues : int; (* chain segments created *)
  mutable repart_moves : int;    (* virtual partitions remapped between batches *)
  mutable batch_resizes : int;   (* auto-tuner batch-size adjustments *)
  (* Replication / failover counters (HA runs); stay 0 when replicas=0.
     [rep_lag_max] is the widest batch gap a backup ever observed between
     the newest fully-received batch and the newest committed one —
     bounded by the configured speculation lag.  [spec_wasted] counts
     speculatively executed transactions undone because their batch never
     committed before a failover. *)
  mutable replicas : int;
  mutable spec_executed : int;
  mutable spec_wasted : int;
  mutable rep_lag_max : int;
  mutable failovers : int;
  mutable failover_time : int;   (* virtual ns: crash detect -> resume *)
  (* Network-traffic totals (distributed engines): payload bytes sent and
     duplicate copies injected by the fault plan. *)
  mutable msg_bytes : int;
  mutable msg_dups_sent : int;
  (* WAL / durability counters; stay 0 on runs without --wal.
     [wal_group_txns] accumulates the transaction count of every durable
     group commit (so group size = wal_group_txns / wal_fsyncs);
     [durable_batches] is the number of batches whose commit marker hit
     the platter; [recovery_time] is the virtual ns the post-crash
     snapshot-restore + log-replay pass took. *)
  mutable wal_bytes : int;
  mutable wal_fsyncs : int;
  mutable wal_fsync_fails : int;
  mutable wal_group_txns : int;
  mutable snapshots : int;
  mutable wal_truncations : int;
  mutable torn_records : int;
  mutable durable_batches : int;
  mutable recovery_time : int;
  (* Change-data-capture / subscription counters; stay 0 without --cdc.
     [cdc_events] counts canonical feed events (one per distinct dirty
     (table, key) per batch); [cdc_lag_max] is the widest batch gap any
     subscriber's cursor ever trailed the commit point by;
     [view_refreshes] counts incremental materialized-view refresh
     operations. *)
  mutable cdc_events : int;
  mutable cdc_bytes : int;
  mutable cdc_batches : int;
  mutable cdc_subs : int;
  mutable cdc_lag_max : int;
  mutable view_refreshes : int;
  (* Open-loop client / admission counters; stay 0 on closed-loop runs. *)
  mutable offered : int;
  mutable shed : int;
  mutable deadline_miss : int;
  mutable client_retries : int;
  mutable retry_exhausted : int;
  mutable qmax : int;
  client_lat : Stats.Hist.t;
}

let create () =
  {
    committed = 0;
    logic_aborted = 0;
    cc_aborts = 0;
    cascades = 0;
    lat = Stats.Hist.create ();
    elapsed = 0;
    busy = 0;
    idle = 0;
    threads = 0;
    batches = 0;
    msgs = 0;
    effective_txns = 0;
    plan_busy = 0;
    exec_busy = 0;
    recover_busy = 0;
    publish_busy = 0;
    other_busy = 0;
    idle_barrier = 0;
    idle_ivar = 0;
    idle_chan = 0;
    idle_sleep = 0;
    crashes = 0;
    redone = 0;
    msg_retries = 0;
    msg_dup_drops = 0;
    pipe_fill_stall = 0;
    pipe_drain_stall = 0;
    pipe_fill_threads = 0;
    pipe_drain_threads = 0;
    split_keys = 0;
    split_subqueues = 0;
    repart_moves = 0;
    batch_resizes = 0;
    replicas = 0;
    spec_executed = 0;
    spec_wasted = 0;
    rep_lag_max = 0;
    failovers = 0;
    failover_time = 0;
    msg_bytes = 0;
    msg_dups_sent = 0;
    wal_bytes = 0;
    wal_fsyncs = 0;
    wal_fsync_fails = 0;
    wal_group_txns = 0;
    snapshots = 0;
    wal_truncations = 0;
    torn_records = 0;
    durable_batches = 0;
    recovery_time = 0;
    cdc_events = 0;
    cdc_bytes = 0;
    cdc_batches = 0;
    cdc_subs = 0;
    cdc_lag_max = 0;
    view_refreshes = 0;
    offered = 0;
    shed = 0;
    deadline_miss = 0;
    client_retries = 0;
    retry_exhausted = 0;
    qmax = 0;
    client_lat = Stats.Hist.create ();
  }

let record_sim t sim ~threads =
  let module Sim = Quill_sim.Sim in
  t.elapsed <- Sim.horizon sim;
  t.busy <- Sim.busy_time sim;
  t.idle <- Sim.idle_time sim;
  t.threads <- threads;
  t.plan_busy <- Sim.busy_in sim Sim.Ph_plan;
  t.exec_busy <- Sim.busy_in sim Sim.Ph_execute;
  t.recover_busy <- Sim.busy_in sim Sim.Ph_recover;
  t.publish_busy <- Sim.busy_in sim Sim.Ph_publish;
  t.other_busy <- Sim.busy_in sim Sim.Ph_other;
  t.idle_barrier <- Sim.idle_in sim Sim.Cause_barrier;
  t.idle_ivar <- Sim.idle_in sim Sim.Cause_ivar;
  t.idle_chan <- Sim.idle_in sim Sim.Cause_chan;
  t.idle_sleep <- Sim.idle_in sim Sim.Cause_sleep

let retire t (txn : Txn.t) ~ok ~now =
  txn.Txn.finish_time <- now;
  if ok then begin
    txn.Txn.status <- Txn.Committed;
    t.committed <- t.committed + 1
  end
  else begin
    txn.Txn.status <- Txn.Aborted;
    t.logic_aborted <- t.logic_aborted + 1
  end;
  Stats.Hist.add t.lat (now - txn.Txn.submit_time)

let phase_busy t = t.plan_busy + t.exec_busy + t.recover_busy + t.publish_busy

let throughput t =
  if t.elapsed <= 0 then 0.0
  else float_of_int t.committed /. (float_of_int t.elapsed /. 1e9)

let abort_rate t =
  let attempts = t.committed + t.cc_aborts in
  if attempts = 0 then 0.0 else float_of_int t.cc_aborts /. float_of_int attempts

let utilization t =
  let span = t.elapsed * t.threads in
  if span <= 0 then 0.0 else float_of_int t.busy /. float_of_int span

let pp fmt t =
  Format.fprintf fmt
    "commits=%d aborts(logic)=%d aborts(cc)=%d tput=%.0f txn/s p50=%dns p99=%dns util=%.2f"
    t.committed t.logic_aborted t.cc_aborts (throughput t)
    (Stats.Hist.percentile t.lat 50.0)
    (Stats.Hist.percentile t.lat 99.0)
    (utilization t)

let faulted t =
  t.crashes > 0 || t.redone > 0 || t.msg_retries > 0 || t.msg_dup_drops > 0

(* Per-thread stall averages: the raw sums add one elapsed-sized term
   per participating thread, so engines with different planner/executor
   counts are only comparable after normalization. *)
let fill_stall_avg t = t.pipe_fill_stall / max 1 t.pipe_fill_threads
let drain_stall_avg t = t.pipe_drain_stall / max 1 t.pipe_drain_threads

let replicated t = t.replicas > 0

let walled t = t.wal_fsyncs > 0 || t.wal_bytes > 0 || t.wal_fsync_fails > 0

let wal_group_size t =
  if t.wal_fsyncs = 0 then 0.0
  else float_of_int t.wal_group_txns /. float_of_int t.wal_fsyncs

let cdc_active t = t.cdc_subs > 0 || t.cdc_events > 0 || t.cdc_batches > 0

let clients_active t = t.offered > 0

let offered_rate t =
  if t.elapsed <= 0 then 0.0
  else float_of_int t.offered /. (float_of_int t.elapsed /. 1e9)
