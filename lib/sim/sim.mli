(** Deterministic simulated-multicore execution substrate.

    Engine code is written as ordinary blocking OCaml against this module:
    [spawn] a thread per (virtual) core, charge CPU work with [tick], and
    synchronize through {!Ivar}, {!Chan}, {!Barrier} and {!Gate}.  Under the
    hood a single real thread runs a discrete-event scheduler built on
    OCaml 5 effect handlers: every thread carries a virtual clock, the
    runnable thread with the smallest clock runs next, and blocking
    primitives hand wake-up times to their wakers.  Runs are bit-for-bit
    deterministic, which the test suite exploits to check the paper's
    central property (deterministic final database state).

    Invariant relied on throughout Quill: shared-state accesses performed
    by the running thread happen "at" its current clock, and the scheduler
    only runs the globally minimal runnable clock, so shared-state events
    are totally ordered by virtual time (ties broken by scheduling order,
    deterministically).  A thread that charges with {!tick_local} runs
    ahead of that order on private state and rejoins it at {!sync}.

    The run queue is a min-heap on [(at, ord)], where [ord] numbers every
    (re)scheduling; the dispatch order is exactly "smallest [at], then
    earliest scheduled".  A [tick] or [sleep] yields only when another
    entry is due at or before the caller's new clock.  That yield — the
    context switch, the simulator's hottest path — allocates nothing but
    the runtime's continuation: the yielding thread is held aside and
    merged with the queue's root in one sift-down.  Adding, removing or
    moving a yield point changes tie order, hence virtual results; the
    dispatch order is pinned by a golden trace and a reference-scheduler
    property in [test/test_sim.ml]. *)

type t
type time = int

(** Why a thread spent virtual time idle: the primitive it waited on
    ([Cause_sleep] is an explicit {!sleep}, e.g. contention backoff). *)
type idle_cause = Cause_barrier | Cause_ivar | Cause_chan | Cause_sleep

val cause_name : idle_cause -> string

(** Engine phase of the calling thread; busy time charged via {!tick} is
    attributed to the phase active at that moment.  The labels follow
    the QueCC plan / execute / recover / publish pipeline; engines
    without a phase use the subset that applies (default [Ph_other]). *)
type phase = Ph_other | Ph_plan | Ph_execute | Ph_recover | Ph_publish

val phase_name : phase -> string

val create : ?wake_cost:int -> ?tracer:Quill_trace.Trace.t -> unit -> t
(** [wake_cost] is added to a thread's clock whenever it is woken from a
    blocking primitive (models scheduler/futex wake latency); every
    party of a hand-off pays it, including fast-path readers that catch
    up to a value produced ahead of their clock and the barrier arriver
    that releases the others.  [tracer] (default {!Quill_trace.Trace.null},
    disabled) receives wait spans for idle time; it never affects
    virtual time. *)

val of_costs : ?sim:t -> Costs.t -> t
(** [sim] when given, else a fresh simulator whose [wake_cost] is the
    cost model's [wakeup]: every engine's run prologue. *)

val spawn : ?at:time -> t -> (unit -> unit) -> unit
(** Register a thread whose body starts executing at virtual time [at]
    (default 0).  Must be called before or during [run]. *)

val run : t -> int
(** Execute until no thread is runnable.  Returns the number of threads
    still parked on a blocking primitive (0 for a quiescent shutdown).
    An exception raised by a thread escapes [run]; afterwards no thread
    is current ({!in_thread} is [false]) and the threads still queued
    resume on the next [run]. *)

val now : t -> time
(** Clock of the calling thread (must be called from inside a thread). *)

val tick : t -> int -> unit
(** Charge [n] ns of CPU work to the calling thread, yielding to any
    thread whose wake-up time has been reached. *)

val tick_local : t -> int -> unit
(** [tick] without the yield: charge [n] ns of busy time exactly as
    [tick] does and advance the clock, recording the new clock as a
    pending yield point.  For work on state no other thread reads or
    writes until the caller's next {!sync}. *)

val sync : t -> unit
(** Replay the calling thread's pending yield points in order: at each
    point where [tick] would have yielded, the thread re-enters the run
    queue there, and it resumes once no point is left.  The dispatch
    order is then exactly that of the program with every [tick_local]
    read as [tick].  A no-op with nothing pending.  Call it before
    touching state another thread reads or writes; [tick] and every
    primitive of this module ([sleep], [yield], [spawn], {!Ivar},
    {!Chan}, {!Barrier}, {!Gate}) sync first. *)

val resumes : t -> int
(** Fiber resumptions so far, starts included: the simulator's context
    switches (a replayed yield point that does not resume its fiber is
    not one). *)

val sleep : t -> int -> unit
(** Advance the clock by [n] ns of idle (not busy) time. *)

val yield : t -> unit
(** Reschedule at the current clock, letting equal-time threads run. *)

val set_phase : t -> phase -> unit
(** Label subsequent [tick]s of the calling thread with [phase]. *)

val phase : t -> phase
(** Phase currently labelling the calling thread (set via {!set_phase};
    [Ph_other] if never set).  Used by the conflict detector to attribute
    recorded row accesses to the pipeline stage that performed them. *)

val in_thread : t -> bool
(** Whether the caller is executing inside a simulated thread (i.e.
    [now]/[phase]/[current_tid] are callable). *)

val busy_time : t -> int
(** Total CPU ns charged via [tick] across all threads. *)

val busy_in : t -> phase -> int
(** CPU ns charged while the given phase was active. *)

val idle_time : t -> int

val idle_in : t -> idle_cause -> int
(** Idle ns attributed to the given wait cause.  The causes partition
    {!idle_time} exactly. *)

val horizon : t -> time
(** Largest virtual time reached by any thread. *)

val threads_spawned : t -> int
val threads_completed : t -> int

val tracer : t -> Quill_trace.Trace.t
val current_tid : t -> int
(** Thread id of the calling thread (stable spawn index). *)

val in_phase : t -> phase -> int -> (unit -> 'a) -> 'a
(** [in_phase t ph tid f] runs [f] with the calling thread's phase set
    to [ph], emits a span labelled with the phase on trace lane [tid]
    over [f]'s virtual extent when tracing is enabled, and restores
    [Ph_other]. *)

(** Write-once cell: the cross-thread data-dependency primitive. *)
module Ivar : sig
  type 'a iv

  val create : unit -> 'a iv
  val is_full : 'a iv -> bool
  val fill : t -> 'a iv -> 'a -> unit
  (** Fill at the caller's clock; wakes all readers.  Raises
      [Invalid_argument] when already full. *)

  val read : t -> 'a iv -> 'a
  (** Block until full; the caller's clock advances to at least the fill
      time. *)

  val peek : 'a iv -> 'a option
end

(** FIFO channel with per-message delivery delay: the messaging
    primitive.  Multi-producer, multi-consumer. *)
module Chan : sig
  type 'a ch

  val create : unit -> 'a ch
  val send : ?delay:int -> t -> 'a ch -> 'a -> unit
  (** Deliver the message at [caller clock + delay] (default 0). *)

  val recv : t -> 'a ch -> 'a
  (** Block until a message is available; clock advances to at least the
      message's arrival time. *)

  val recv_timeout : t -> 'a ch -> timeout:int -> 'a option
  (** Block at most [timeout] ns of virtual time.  Returns [Some msg]
      if a message arrives (or had arrived) by the deadline, [None]
      otherwise — in which case the caller's clock stands at the
      deadline and the wait was charged as chan idle time.  An unfired
      timeout never advances the simulation horizon.  Raises
      [Invalid_argument] on a negative timeout. *)

  val try_recv : t -> 'a ch -> 'a option
  (** Non-blocking: only returns a message already arrived by the caller's
      clock. *)

  val pending : 'a ch -> int
end

(** Reusable rendezvous barrier for a fixed party count: the phase
    separator between planning and execution. *)
module Barrier : sig
  type b

  val create : int -> b
  val await : t -> b -> unit
  (** All parties leave at the max of their arrival clocks. *)
end

(** Countdown latch: commit-dependency resolution.  [await] blocks until
    [arrive] has been called [n] times. *)
module Gate : sig
  type g

  val create : int -> g
  val arrive : t -> g -> unit
  val await : t -> g -> unit
  val pending : g -> int
end
