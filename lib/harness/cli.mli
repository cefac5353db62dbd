(** The one command-line grammar of [quill_cli] and [bench/main.exe].

    Every flag is one term here, with one name, default, doc string and
    parser: the grammar-typed values wrap {!Quill_faults.Faults.parse},
    {!Quill_faults.Faults.parse_time} and the {!Quill_clients.Clients}
    parsers, engine names go through {!Engine_registry}, and output
    paths are checked writable when parsed, so a bad value of any of
    them is a command-line error before the run starts.  Range checks
    that need the whole configuration live in {!Experiment.run}.

    Terms evaluate to values, never to runs: {!experiment} to an
    {!Experiment.t}, a command to the thunk that runs it, so tests parse
    command lines with [Cmdliner.Cmd.eval_value] without running them. *)

val experiment : Experiment.t Cmdliner.Term.t
(** Every [quill_cli run] flag that shapes the run: engine, workload and
    scale, execution, faults, clients, durability, CDC and replication.
    The experiment is named by the engine as typed ([-e dist-quecc]
    labels its output [dist-quecc]). *)

val workload_name : Experiment.workload_spec -> string
(** [ycsb], [tpcc] (the NewOrder/Payment mix) or [tpcc-full]. *)

val to_argv : Experiment.t -> string list
(** Flags that {!experiment} parses back to exactly this value.  Raises
    [Invalid_argument] when no command line gives it (non-default
    [costs], a name that is not the engine's, workload or client
    settings no flag reaches). *)

(** {1 Flags read outside the experiment} *)

val faults : Quill_faults.Faults.spec option Cmdliner.Term.t
val arrival : Quill_clients.Clients.arrival option Cmdliner.Term.t
val admission : (Quill_clients.Clients.policy * int) option Cmdliner.Term.t
val deadline : int option Cmdliner.Term.t
val retries : (int * int) option Cmdliner.Term.t

val trace : string option Cmdliner.Term.t
(** [--trace FILE], checked writable when parsed. *)

val json : string option Cmdliner.Term.t
(** [--json FILE], checked writable when parsed. *)

val phase_table : bool Cmdliner.Term.t
val check_conflicts : bool Cmdliner.Term.t

val scale : float Cmdliner.Term.t
(** The bench targets' positional [SCALE]: finite and > 0, default 0.5. *)

(** {1 Commands} *)

val bench : micro:(unit -> unit) -> (unit -> unit) Cmdliner.Cmd.t
(** [bench/main.exe]: one subcommand per experiment of {!Experiments}
    plus [micro] (runs [micro]) and [all], each reading only its own
    flags ([--json] on the JSON-writing targets, [--faults] on
    fault-tolerance and failover, the client flags on overload, the
    suite flags [--trace]/[--phase-table]/[--check-conflicts] on all
    but micro).  No subcommand runs [all] at scale 0.5. *)

val eval : (unit -> unit) Cmdliner.Cmd.t -> unit
(** Parses [Sys.argv] and runs the command.  A command-line error, or
    [Invalid_argument] / [Failure] from the run, prints one line
    ([<prog>: ... (try '<prog> --help')]) and exits 2.
    {!Experiments.Claim_failed} prints one [<prog>: claim failed: ...]
    line per false claim and exits 1. *)
