(** Deterministic pseudo-random number generation.

    All randomness in Quill flows through this module so that every
    experiment is reproducible from a single seed.  The generator is
    SplitMix64 (Steele et al., OOPSLA 2014): tiny state and good
    statistical quality.  Independent streams are separate generators
    created from seeds drawn with {!next} (see
    [Quill_txn.Workload.streams]).

    [int], [int_incl], [float] and [chance] allocate nothing: the state
    is kept unboxed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an arbitrary seed. *)

val next : t -> int
(** [next t] returns a uniform non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_incl : t -> int -> int -> int
(** [int_incl t lo hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)
