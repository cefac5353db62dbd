(** Engine-facing workload handle, and the two rules every engine uses
    to split its input.

    A workload bundles the populated database, per-stream transaction
    generators (one independent deterministic stream per planner or
    worker thread, built by {!streams}), and the fragment-logic
    interpreter.  {!slice} is the one rule that cuts a batch (or a
    transaction count) into contiguous per-thread slices. *)

type t = {
  name : string;
  db : Quill_storage.Db.t;
  new_stream : int -> unit -> Txn.t;
      (** [new_stream i] returns a generator for stream [i]; streams are
          deterministic and independent.  Transactions carry globally
          unique, monotone-per-stream tids. *)
  exec : Exec.ctx -> Txn.t -> Fragment.t -> Exec.outcome;
      (** Run one fragment's logic through the engine's accessors. *)
  describe : string;
}

val streams :
  seed:int -> (Quill_common.Rng.t -> int -> Txn.t) -> int -> unit -> Txn.t
(** [streams ~seed gen] is a [new_stream] for a generator [gen rng tid]:
    1,024 stream seeds are drawn from [seed] once, stream [i] draws from
    its own generator seeded with seed [i mod 1024], and its [k]-th
    transaction (from 0) gets [tid = k * 1024 + i mod 1024].  A draw
    allocates nothing beyond what [gen] does. *)

val slice : total:int -> parts:int -> int -> int * int
(** [slice ~total ~parts i] is [(start, count)] of slice [i] when
    [total] items are cut into [parts] contiguous slices in order: each
    gets [total / parts] items, and the first [total mod parts] one
    more.  Requires [parts >= 1] and [0 <= i < parts]. *)
