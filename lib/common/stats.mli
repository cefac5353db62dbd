(** Latency histograms for the benchmark harness. *)

(** Log-scale histogram for latency distributions (HdrHistogram-style, base
    bucketing by powers of two with linear sub-buckets).  Values are
    arbitrary non-negative integers (we use virtual nanoseconds). *)
module Hist : sig
  type t

  val create : unit -> t

  val add : t -> int -> unit
  (** Record one value.  Raises [Invalid_argument] on negative input —
      latency math that goes negative is a bug and must fail loudly,
      not be silently clamped into bucket 0. *)

  val merge_into : dst:t -> t -> unit
  val count : t -> int
  val mean : t -> float
  val percentile : t -> float -> int
  (** [percentile h 99.0] is an upper bound for the p99 value (bucket
      upper edge), 0 when empty. *)

  val max_value : t -> int

  (* Bucket mapping, exposed for white-box property tests: every value
     lands in a bucket whose upper edge is at least the value. *)
  val index_of : int -> int
  val upper_edge : int -> int
end
