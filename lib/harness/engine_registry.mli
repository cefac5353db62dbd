(** The engine registry: the one place engine names are parsed, printed
    and dispatched.

    One static table maps every advertised name to its engine;
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

val table : (string * engine) list
(** Every advertised name with the engine it denotes, in {!names} order.
    A [dist-*-<n>n] row stands for its family at any node count and
    denotes the default 4-node member. *)

val engine_name : engine -> string
(** Canonical name; round-trips through {!engine_of_string}. *)

val engine_of_string : string -> engine option
(** A {!table} name or a [dist-quecc-<n>n] / [dist-calvin-<n>n] name
    with [n > 0]; the [<n>] rows themselves do not parse. *)

val resolve : engine -> Engine_intf.t

val names : unit -> string list
(** Every advertised name (for [--help] and error messages). *)

val all_centralized : engine list
(** Every single-node engine except serial, QueCC first. *)
