(** Virtual-time tracing with a Chrome trace-event exporter.

    Spans, counters and instant markers are recorded against the
    simulator's nanosecond clock and exported in the Chrome trace-event
    JSON format (load the file in chrome://tracing or
    {{:https://ui.perfetto.dev}Perfetto}).

    The tracer is zero-cost when disabled: {!null} is a shared sentinel
    whose {!enabled} flag is false and every recording function is a
    no-op on it.  Recording never advances simulated time, so a run with
    tracing on is bit-identical (virtual times, metrics, database state)
    to the same run with tracing off. *)

type t

val null : t
(** The disabled tracer; recording on it does nothing. *)

val create : unit -> t
(** A fresh enabled tracer with no events. *)

val enabled : t -> bool
(** Guard for any non-trivial event-argument computation at call sites. *)

val num_events : t -> int

val begin_process : t -> string -> unit
(** Start a new logical process (Chrome [pid]) named [name]; subsequent
    events belong to it.  Lets several runs share one trace file and
    render as separate swim-lane groups. *)

val span :
  t -> tid:int -> ?cat:string -> name:string -> ts:int -> dur:int -> unit ->
  unit
(** Complete span ([ph:"X"]) on thread [tid], starting at virtual ns
    [ts] and lasting [dur] ns.  [cat] defaults to ["phase"]. *)

val counter :
  t -> tid:int -> name:string -> series:string -> ts:int -> value:int -> unit
(** Counter sample ([ph:"C"]): the value of [series] under counter
    [name] at virtual ns [ts]. *)

val instant : t -> tid:int -> name:string -> ts:int -> unit

val to_chrome_json : t -> string
(** The whole trace as one JSON object:
    [{"displayTimeUnit":"ns","traceEvents":[...]}].  [ts]/[dur] are
    emitted in (fractional) microseconds as the format requires. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (quotes, backslashes and
    control characters escaped; no surrounding quotes). *)

val write_file : t -> string -> unit
