(** Speculative queue replication and leader failover for dist-quecc.

    The leader streams every planned batch — the queues that already
    double as the deterministic redo log — to [replicas] backups over a
    dedicated replication network, plus a commit marker per batch.
    Backups execute batches speculatively as they arrive (at most
    [spec_lag] batches ahead of the newest commit marker), keep the
    effects in their replica database's live versions, and publish to
    the committed versions only on the leader's marker.  A backup acks a
    batch once received and speculatively executed; the leader's
    coordinator gates each batch commit on all acks, so a lagging
    backup backpressures the leader instead of falling behind without
    bound.

    When the leader goes silent (crash injected by the fault plan),
    backups detect via heartbeat timeout, elect the lowest-id live
    backup, agree on the highest batch fully replicated everywhere,
    finalize up to it (zero committed transactions lost: commits were
    gated on every backup's ack), roll speculation beyond it back, and
    the new leader re-plans the in-flight batches from the workload's
    deterministic streams and resumes the protocol.

    The replication network itself carries no fault plan: it models the
    reliable ordered leader->backup transport of the HA design.  The
    leader crash is injected on the engine's main interconnect. *)

open Quill_sim
open Quill_storage
open Quill_txn

type t

val heartbeat_every : Costs.t -> int
(** Leader heartbeat period, virtual ns (sized from the net latency). *)

val detect_timeout : Costs.t -> int
(** Silence window after which backups declare the leader dead. *)

val create :
  sim:Sim.t ->
  costs:Costs.t ->
  wl:Workload.t ->
  replicas:int ->
  spec_lag:int ->
  slices:int ->
  total_batches:int ->
  metrics:Metrics.t ->
  halted:(unit -> bool) ->
  committed_batches:(unit -> int) ->
  replan:(first:int -> unit -> Txn.t array) ->
  unit ->
  t
(** [slices] is the number of planner slices each batch arrives in;
    [halted] reports whether the fault plan killed the leader;
    [committed_batches] is the leader's accounting cursor (batches fully
    accounted so far); [replan ~first] returns a generator that re-draws
    the workload streams and yields batch [first], [first+1], ... in
    global batch-slot order — the exact transactions the dead leader
    would have planned. *)

val spawn : t -> unit
(** Spawn the replication threads into the simulation: one per backup,
    plus the leader's ack listener and heartbeat. *)

val threads : t -> int
(** Virtual cores the replication layer occupies (for metrics). *)

val ship : t -> batch:int -> part:int -> Txn.t array -> unit
(** Leader planner hook: stream one planned slice to every backup. *)

val await_acks : t -> batch:int -> unit
(** Leader commit gate: block until every backup has received and
    speculatively executed the batch. *)

val committed : t -> batch:int -> unit
(** Broadcast the leader's commit marker for a batch. *)

val stop : t -> unit
(** Quiescent shutdown: stop the backups, the ack listener and the
    heartbeat. *)

val kill_leader : t -> unit
(** Fault-plan hook for a leader crash: release every leader-local
    replication thread and ack gate without notifying the backups —
    they must detect the silence and fail over. *)

val record : t -> unit
(** Fold the replication network's traffic counters and the replica
    count into the run metrics. *)

val failed_over : t -> bool

val winner_db : t -> Db.t
(** The elected leader's database; only meaningful after a failover. *)
