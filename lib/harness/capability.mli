(** Engine capability set.

    One value per optional feature an engine can honor.  Engines
    advertise a capability {e set} ({!Engine_intf.S.caps}) instead of
    per-feature booleans, and {!Experiment.run} validates every
    requested feature against it in one chokepoint — an engine is never
    handed (and never silently ignores) a feature it cannot honor. *)

type t =
  | Faults       (** consumes an active fault plan ([--faults]) *)
  | Clients      (** open-loop client layer ([--arrival ...]) *)
  | Dist         (** multi-node: network faults address real links *)
  | Wal          (** durable group-commit WAL ([--wal]) *)
  | Cdc          (** ordered commit-stream subscriptions ([--cdc]) *)
  | Replication  (** HA queue replication ([--replicas N]) *)
  | Pipeline     (** overlapped plan/execute batches ([--pipeline]) *)
  | Adaptive
      (** queue-level adaptation: work stealing ([--steal]), hot-key
          splitting ([--split]) and between-batch adaptation
          ([--adapt]) *)

val all : t list
(** Every capability, in canonical order. *)

val to_string : t -> string
(** Lower-case name, e.g. ["wal"]. *)

val set_to_string : t list -> string
(** Canonically ordered, e.g. ["{faults, clients, wal, cdc}"]. *)

val mem : t -> t list -> bool

val require : engine:string -> have:t list -> (t * string) list -> unit
(** [require ~engine ~have wanted] checks every [(capability, feature
    description)] pair and raises [Invalid_argument] naming the engine
    and its full capability set on the first one missing from [have].
    The CLI maps the exception to exit code 2. *)
