(** Seedable, fully deterministic fault plans.

    A fault plan describes everything that can go wrong in a simulated
    cluster run: node crashes at fixed virtual times, per-message drop /
    duplicate / extra-delay probabilities, and per-link partitions over
    virtual-time windows.  All probabilistic decisions are drawn from a
    single {!Quill_common.Rng} stream seeded by the plan, and every
    decision is keyed off virtual time — never wall-clock — so the same
    spec (including its seed) yields a bit-identical run, with or
    without tracing enabled.

    Spec string grammar (clauses separated by [','], clause fields by
    [':'], times accept [ns]/[us]/[ms]/[s] suffixes, default ns):

    {v
      crash@t=TIME[:node=N][:down=TIME]   crash node N at virtual TIME,
                                          reboot after down (default 500us)
      part@t=TIME:a=N:b=N:until=TIME      partition link N<->N over a window
      drop=P                              per-message drop probability
      dup=P                               per-message duplicate probability
      delay=P[:by=TIME]                   extra-delay probability / amount
      torn@rec=K                          the K-th WAL record ever appended
                                          persists only half its bytes and
                                          the disk wedges (later flushes
                                          are lost)
      fsync-fail@t=TIME                   every fsync at/after virtual TIME
                                          fails, discarding its buffer
      corrupt@off=N                       flip one bit of WAL byte N
                                          (applied at recovery scan)
      seed=N                              RNG seed for the drop/dup/delay draws
      retries=N                           retransmit cap (default 8)
      rto=TIME                            initial retransmit timeout (50us)
    v}

    Example: ["crash@t=5ms:node=1,drop=0.01,seed=7"]. *)

type crash = { node : int; at : int; down : int }
(** Crash [node] at virtual time [at]; it reboots [down] ns later. *)

type partition = { a : int; b : int; from_t : int; until_t : int }
(** The link between [a] and [b] is down for [from_t <= now < until_t];
    traffic sent during the window is delivered after it heals. *)

type spec = {
  seed : int;
  drop : float;  (** per-message drop probability in [0,1] *)
  dup : float;  (** per-message duplicate probability in [0,1] *)
  delay_p : float;  (** probability a message takes an extra delay *)
  delay_by : int;  (** the extra delay, ns *)
  crashes : crash list;
  partitions : partition list;
  max_retries : int;  (** retransmit cap per message *)
  rto : int;  (** initial retransmit timeout, ns; doubles per retry *)
  torn_rec : int option;
      (** WAL disk fault: the [K]-th record ever appended is torn — only
          half its bytes reach the platter and the disk wedges (every
          later flush is silently lost) *)
  fsync_fail_at : int option;
      (** WAL disk fault: every fsync issued at/after this virtual time
          fails, discarding the records it would have made durable *)
  corrupt_off : int option;
      (** WAL disk fault: one bit of the byte at this absolute log
          offset is flipped before the recovery scan reads it *)
}

val none : spec
(** The empty plan: no faults, seed 0, default retry parameters. *)

val active : spec -> bool
(** [active s] is [true] when [s] can affect a run (any nonzero
    probability, crash, partition, or disk fault).  Engines treat
    inactive specs exactly like no spec at all. *)

val net_active : spec -> bool
(** True when the plan carries message-level faults (drop / dup / delay /
    partition) — these only apply to engines with a network. *)

val disk_active : spec -> bool
(** True when the plan carries a WAL disk fault (torn record, failing
    fsync, or corrupted byte) — these only apply to runs with a WAL. *)

val parse : string -> (spec, string) result
(** Parse the spec grammar above.  The error string is a one-line
    human-readable diagnostic. *)

val parse_time : string -> (int, string) result
(** The time grammar every flag shares: [NUM[ns|us|ms|s]] -> ns, bare
    numbers are ns.  Negative, non-finite and out-of-range (above
    [max_int] ns) values are errors. *)

val to_string : spec -> string
(** Canonical spec string; [parse (to_string s)] round-trips. *)

val pp : Format.formatter -> spec -> unit

val crashes_for : spec -> node:int -> crash array
(** The crashes planned for [node], sorted by ascending [at]. *)

val check_nodes : spec -> nodes:int -> name:string -> unit
(** Raise [Invalid_argument] (prefixed with [name]) if the plan names a
    crash or partition node outside [0, nodes). *)

(** {1 Runtime} *)

type t
(** Mutable fault-plan runtime: the spec plus the RNG stream for the
    per-message draws.  Create one per run ({!make}); the draw order is
    the deterministic [Net.send] order of the simulation. *)

type verdict = {
  extra_delay : int;  (** add to the link latency (retransmits, delay, partition heal) *)
  retries : int;  (** how many retransmissions the delay models *)
  duplicate : bool;  (** deliver a second copy *)
}

val make : spec -> t
val spec : t -> spec

val on_send : t -> src:int -> dst:int -> now:int -> verdict
(** Decide the fate of one message sent on link [src -> dst] at virtual
    time [now].  Messages are never lost outright: a "dropped" message
    is retransmitted with exponential backoff (capped at
    [max_retries]), so delivery is guaranteed and no protocol deadlocks
    on a lost message — the cost of loss shows up as delay and retry
    counts instead. *)
