(** Deterministic pseudo-random number generation.

    All randomness in Quill flows through this module so that every
    experiment is reproducible from a single seed.  The generator is
    SplitMix64 (Steele et al., OOPSLA 2014): tiny state, good statistical
    quality, and splittable, which lets us hand independent streams to
    planners, workers and workload generators without coordination.

    [int], [int_incl], [float], [bool] and [chance] allocate nothing:
    the state is kept unboxed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an arbitrary seed. *)

val split : t -> t
(** [split t] returns a new generator statistically independent from the
    future output of [t]; [t] is advanced. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future output). *)

val next : t -> int
(** [next t] returns a uniform non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_incl : t -> int -> int -> int
(** [int_incl t lo hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
