(** Deterministic open-loop client layer.

    Seeded arrival processes (Poisson or bursty on/off) running on
    {!Quill_sim.Sim} virtual time feed a bounded per-node admission
    queue.  When the queue is full a pluggable overload policy decides
    who loses: [Block] parks the submitter (backpressure), the shed
    policies drop the newest or oldest entry, and [Deadline] purges
    expired entries before shedding.  Aborted transactions are
    resubmitted with seeded exponential backoff + jitter under a
    bounded retry budget.

    Determinism: each client thread owns one RNG stream derived from
    [(cfg.seed, client index)] and each entry owns a retry-jitter
    stream derived from [(cfg.seed, client index, serial)], so the
    schedule of arrivals and backoffs is a pure function of the seed —
    independent of engine interleaving and completion order.  Runs are
    bit-identical for a given seed. *)

type policy =
  | Block        (** full queue blocks the submitter: backpressure *)
  | Shed_newest  (** full queue drops the incoming transaction *)
  | Shed_oldest  (** full queue drops the head (stalest) entry *)
  | Deadline     (** drop expired entries; shed incoming when still full *)

type arrival =
  | Poisson of float
      (** mean arrival rate, transactions per virtual second *)
  | Bursty of { rate : float; on_ns : int; off_ns : int }
      (** Poisson at [rate] during [on_ns] windows separated by silent
          [off_ns] windows *)

type cfg = {
  arrival : arrival;
  clients : int;      (** generator threads; thread i feeds node (i mod nodes) *)
  depth : int;        (** admission-queue bound, per node *)
  policy : policy;
  deadline : int;     (** ns from first offer; 0 = no deadline *)
  max_retries : int;  (** abort -> retry budget per transaction *)
  backoff : int;      (** base retry backoff, ns; doubled per attempt *)
  max_backoff : int;
  seed : int;
  total : int;        (** transactions to offer across all clients *)
}

val default : cfg

type entry = {
  txn : Quill_txn.Txn.t;
  node : int;
  first_offer : int;
  deadline_at : int;
  mutable attempt : int;
  rng : Quill_common.Rng.t;
}

(** One node's FIFO admission queue.  It keeps a lower bound on the
    queued [deadline_at]s, so a purge that can find nothing expired
    costs O(1) instead of a scan. *)
module Admission : sig
  type q

  val create : unit -> q
  val length : q -> int
  val is_empty : q -> bool
  val push : q -> entry -> unit

  val pop : q -> entry
  (** The head; raises [Queue.Empty] when empty. *)

  val take_opt : q -> entry option

  val purge : q -> now:int -> (entry -> unit) -> unit
  (** [purge q ~now miss] removes every entry with [now > deadline_at]
      and calls [miss] on each, in queue order; the others keep their
      order.  No scan runs when the bound shows that no entry can have
      expired. *)
end

type t

val create : sim:Quill_sim.Sim.t -> nodes:int -> Quill_txn.Workload.t -> cfg -> t
(** Spawn [cfg.clients] generator threads on [sim].  Must be called
    before [Sim.run] starts (generators are ordinary sim threads). *)

val take : t -> node:int -> entry option
(** Dequeue one admitted transaction for [node], blocking on virtual
    time until one arrives.  [None] means the node is exhausted: every
    transaction routed to it has been finally resolved, so no arrival
    can ever happen again.  Must be called from a sim thread. *)

val drain : t -> node:int -> max:int -> entry array
(** Dequeue up to [max] entries — whatever the queue holds at
    batch-close, but at least one, blocking until the node is
    exhausted ([[||]]).  Must be called from a sim thread. *)

val complete : t -> entry -> ok:bool -> unit
(** Report the engine-side outcome for a dequeued entry.  [ok:true]
    records client latency and retires it; [ok:false] schedules a
    backoff retry, or retires it when the retry budget or deadline is
    exhausted.  Every entry returned by [take]/[drain] must be
    completed exactly once. *)

val serve :
  ?clients:t ->
  Quill_txn.Workload.t ->
  workers:int ->
  worker:int ->
  txns:int ->
  ((unit -> Quill_txn.Txn.t) -> bool) ->
  unit
(** One per-transaction worker's loop.  [run draw] executes one
    transaction, obtained by calling [draw] (typically through
    {!Quill_txn.Txn.admit}), and returns true when it committed.  Closed
    loop: [worker]'s even share of [txns] from its own stream
    [new_stream worker].  With [?clients]: take from node 0's admission
    queue, run and {!complete} until the client layer is exhausted.
    Must be called from a sim thread. *)

val exhausted : t -> bool
(** True when every offered transaction has been finally resolved
    (committed, shed, deadline-missed, or retry-exhausted).  Stable:
    once true it never becomes false. *)

val queued : t -> node:int -> int

val record : t -> Quill_txn.Metrics.t -> unit
(** Copy the overload counters and client-latency histogram into [m]. *)

val policy_name : policy -> string
val arrival_to_string : arrival -> string

val parse_arrival : string -> (arrival, string) result
(** ["250000"] or ["2.5e6"] (Poisson txn/s) or ["burst:RATE:ON:OFF"]
    with ON/OFF in {!Quill_faults.Faults.parse_time}'s grammar. *)

val parse_admission : string -> (policy * int, string) result
(** ["block:256" | "shed:256" | "shed-newest:256" | "deadline:256"];
    the [:DEPTH] suffix is optional. *)

val parse_retries : string -> (int * int, string) result
(** ["N[:BACKOFF]"] -> (max_retries, base backoff ns). *)
