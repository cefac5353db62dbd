(** Skewed-access samplers used by the workload generators.

    [Zipf] implements the YCSB zipfian generator (Gray et al.'s rejection
    inversion as popularized by the YCSB core workloads), including the
    scrambled variant that spreads hot keys across the key space so that
    skew is not correlated with partition placement. *)

type t

val create : ?theta:float -> int -> t
(** [create ~theta n] prepares a sampler over [\[0, n)].  [theta] is the
    YCSB skew parameter: 0 is uniform, 0.99 is the classic "high
    contention" setting.  Cost: O(n) once (zeta precomputation). *)

val sample : t -> Rng.t -> int
(** Draw a key; key 0 is the hottest. *)

val sample_scrambled : t -> Rng.t -> int
(** Draw a key with the YCSB "scrambled zipfian" hash applied, decoupling
    hotness from key order. *)
