(** Run metrics shared by every engine. *)

type t = {
  mutable committed : int;
  mutable logic_aborted : int;  (** transactions whose final outcome is abort *)
  mutable cc_aborts : int;      (** concurrency-control aborts / retries (ND) *)
  mutable cascades : int;       (** speculative cascade re-executions *)
  lat : Quill_common.Stats.Hist.t;  (** commit latency, virtual ns *)
  mutable elapsed : int;        (** virtual ns covered by the run *)
  mutable busy : int;           (** CPU ns charged *)
  mutable idle : int;
  mutable threads : int;        (** virtual cores used *)
  mutable batches : int;
  mutable msgs : int;           (** messages sent (distributed engines) *)
  mutable effective_txns : int;
      (** transactions actually submitted (the harness rounds the
          requested count to whole batches; 0 when run outside it) *)
  mutable plan_busy : int;      (** busy ns attributed to the plan phase *)
  mutable exec_busy : int;
  mutable recover_busy : int;
  mutable publish_busy : int;
  mutable other_busy : int;     (** busy ns outside any labelled phase *)
  mutable idle_barrier : int;   (** idle ns waiting on barriers *)
  mutable idle_ivar : int;
  mutable idle_chan : int;
  mutable idle_sleep : int;     (** explicit sleeps (backoff) *)
  mutable crashes : int;        (** node crashes consumed from the fault plan *)
  mutable redone : int;
      (** units of work re-executed during recovery (queue entries for
          dist-quecc, sequencer-log transactions for dist-calvin) *)
  mutable msg_retries : int;    (** retransmissions implied by dropped messages *)
  mutable msg_dup_drops : int;  (** duplicate messages suppressed at receivers *)
  mutable pipe_fill_stall : int;
      (** executor idle ns waiting for the next planned batch (pipelined
          runs only; the pipeline ran dry) *)
  mutable pipe_drain_stall : int;
      (** planner idle ns waiting for a queue buffer to free up
          (pipelined runs only; the pipeline backed up) *)
  mutable pipe_fill_threads : int;
      (** threads whose waits feed [pipe_fill_stall] (executors); the
          raw sum grows with this count, so cross-engine comparisons
          use {!fill_stall_avg} *)
  mutable pipe_drain_threads : int;
      (** threads whose waits feed [pipe_drain_stall] (planners /
          sequencers); see {!drain_stall_avg} *)
  mutable split_keys : int;     (** hot keys split into sub-queue chains *)
  mutable split_subqueues : int;(** sub-queue chain segments created *)
  mutable repart_moves : int;   (** virtual partitions remapped between batches *)
  mutable replicas : int;       (** backup nodes receiving the queue stream *)
  mutable spec_executed : int;
      (** transactions a backup speculatively executed ahead of the
          leader's commit marker *)
  mutable spec_wasted : int;
      (** speculatively executed transactions undone at failover because
          their batch never fully committed *)
  mutable rep_lag_max : int;
      (** widest received-vs-committed batch gap any backup observed;
          bounded by the configured speculation lag *)
  mutable failovers : int;      (** leader failovers performed *)
  mutable failover_time : int;  (** virtual ns from crash detection to resume *)
  mutable msg_bytes : int;      (** payload bytes sent (distributed engines) *)
  mutable msg_dups_sent : int;  (** duplicate copies injected by the fault plan *)
  mutable wal_bytes : int;      (** WAL bytes appended (durable or not) *)
  mutable wal_fsyncs : int;     (** group-commit flushes that succeeded *)
  mutable wal_fsync_fails : int;(** flushes failed by the disk-fault plan *)
  mutable wal_group_txns : int;
      (** transactions covered by successful flushes; group size =
          [wal_group_txns / wal_fsyncs] *)
  mutable snapshots : int;      (** periodic WAL snapshot rolls *)
  mutable wal_truncations : int;(** log truncations behind a snapshot *)
  mutable torn_records : int;
      (** invalid records detected (and truncated at) by the recovery
          scan's checksum / length validation *)
  mutable durable_batches : int;(** batches whose commit marker is durable *)
  mutable recovery_time : int;
      (** virtual ns of snapshot restore + log replay after a crash *)
  mutable cdc_events : int;
      (** canonical change-feed events published (one per distinct
          dirty (table, key) per batch) *)
  mutable cdc_bytes : int;      (** serialized change-feed bytes *)
  mutable cdc_batches : int;    (** change-feed entries published *)
  mutable cdc_subs : int;       (** subscriptions registered on the feed *)
  mutable cdc_lag_max : int;
      (** widest batch gap any subscriber's cursor ever trailed the
          commit point by *)
  mutable view_refreshes : int;
      (** incremental materialized-view refresh operations *)
  mutable offered : int;        (** transactions offered by open-loop clients *)
  mutable shed : int;           (** admissions dropped by the overload policy *)
  mutable deadline_miss : int;  (** transactions dropped past their deadline *)
  mutable client_retries : int; (** abort->retry resubmissions *)
  mutable retry_exhausted : int;(** transactions dropped after the retry budget *)
  mutable qmax : int;           (** peak admission-queue depth observed *)
  client_lat : Quill_common.Stats.Hist.t;
      (** client-observed latency: first offer -> commit, virtual ns *)
}

val create : unit -> t

val record_sim : t -> Quill_sim.Sim.t -> threads:int -> unit
(** The end-of-run epilogue every engine shares (call once, after
    [Sim.run] returns): copy the simulator's horizon, busy and idle
    totals, per-phase busy and per-cause idle attribution, plus the
    run's thread count, into the record. *)

val retire : t -> Txn.t -> ok:bool -> now:int -> unit
(** The one end of a transaction's lifecycle: stamp [finish_time = now],
    set the final status ([Committed] when [ok], else [Aborted]), count
    it in [committed] or [logic_aborted] and add its latency since
    [submit_time] to [lat]. *)

val phase_busy : t -> int
(** Busy ns covered by the four labelled phases (excludes [other_busy]). *)

val throughput : t -> float
(** Committed transactions per virtual second. *)

val abort_rate : t -> float
(** cc aborts / (commits + cc aborts): wasted-execution fraction. *)

val utilization : t -> float

val pp : Format.formatter -> t -> unit
(** One-line summary: commits, aborts, throughput, p50/p99 latency and
    utilization. *)

val faulted : t -> bool
(** True when any fault/recovery counter is nonzero. *)

val fill_stall_avg : t -> int
(** [pipe_fill_stall] per contributing thread: comparable across engines
    with different executor counts. *)

val drain_stall_avg : t -> int
(** [pipe_drain_stall] per contributing thread. *)

val replicated : t -> bool
(** True when the run streamed queues to backup replicas. *)

val walled : t -> bool
(** True when the run appended to (or tried to flush) a WAL. *)

val wal_group_size : t -> float
(** Mean transactions per successful group-commit flush. *)

val cdc_active : t -> bool
(** True when the run published a change feed or had subscribers. *)

val clients_active : t -> bool
(** True when the run was driven by open-loop clients (offered > 0). *)

val offered_rate : t -> float
(** Offered transactions per virtual second. *)
