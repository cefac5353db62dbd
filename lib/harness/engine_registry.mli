(** The engine registry: the one place engine names are parsed, printed
    and dispatched.

    Each engine family registers its names, parser and modules here;
    {!Experiment.run}, the CLI and the bench driver resolve engines to
    first-class {!Engine_intf.S} modules through it and never match on
    engine constructors themselves. *)

type engine =
  | Serial
  | Quecc of Quill_quecc.Engine.exec_mode * Quill_quecc.Engine.isolation
  | Twopl_nowait
  | Twopl_waitdie
  | Silo
  | Tictoc
  | Mvto
  | Hstore
  | Calvin
  | Dist_quecc of int   (** nodes *)
  | Dist_calvin of int  (** nodes *)

val engine_name : engine -> string
(** Canonical name; round-trips through {!engine_of_string}.  Raises
    [Invalid_argument] for an unregistered engine. *)

val engine_of_string : string -> engine option

val resolve : engine -> Engine_intf.t
(** Raises [Invalid_argument] for an unregistered engine. *)

val names : unit -> string list
(** Every advertised engine name, registration order (for [--help] and
    error messages). *)

val all_centralized : engine list
(** Every single-node engine, QueCC first. *)
