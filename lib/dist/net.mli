(** Simulated cluster interconnect: one FIFO inbox per node, messages
    carry a payload size used for serialization and propagation costs.
    Senders pay [Costs.msg_fixed] CPU; delivery is delayed by
    [Costs.net_latency] plus a per-byte term; receivers pay
    [Costs.msg_fixed] on receipt (charged by the node's demux thread
    calling [recv]).  Loopback sends are free and instantaneous.

    Every message carries a per-link sequence number.  When a fault
    plan is attached, "dropped" messages arrive late (the delay models
    bounded retransmission with exponential backoff — delivery is
    guaranteed, so protocols never deadlock on loss), duplicated
    messages are delivered twice and suppressed at the receiver by
    sequence number, and partitioned links hold traffic until they
    heal.  All fault decisions come from the plan's seeded RNG in
    deterministic send order, so runs are reproducible bit-for-bit. *)

type 'a t

val create :
  ?faults:Quill_faults.Faults.t ->
  Quill_sim.Sim.t ->
  Quill_sim.Costs.t ->
  nodes:int ->
  'a t
(** An inactive fault plan (or none) leaves the fault machinery
    entirely out of the message path. *)

val send : 'a t -> src:int -> dst:int -> bytes:int -> 'a -> unit
(** Must be called from a simulated thread on node [src].  Raises
    [Invalid_argument] with a descriptive message when [src] or [dst]
    is not a valid node index. *)

val recv : 'a t -> node:int -> 'a
(** Blocking receive from the node's inbox; injected duplicates are
    consumed (and their receive cost charged) transparently.  Raises
    [Invalid_argument] on a bad [node] index. *)

val recv_timeout : 'a t -> node:int -> timeout:int -> 'a option
(** Like {!recv} but waits at most [timeout] virtual ns for a fresh
    (non-duplicate) message; [None] on timeout. *)

val messages_retried : 'a t -> int
(** Retransmissions implied by fault-plan drops. *)

val record : 'a t -> Quill_txn.Metrics.t -> unit
(** Add this network's non-loopback messages, bytes, retries, duplicate
    copies sent and stale copies dropped to the run's metrics. *)
