(** Row values that live outside a table's flat image array.

    A table stores every row image in one [int array] and names rows by
    slot (see {!Table}); nothing in the engines holds a row object.
    This module keeps the two shapes that still have one:

    - {!t}, a read-only snapshot of a row's key and committed image,
      which {!Table.dense} and {!Table.iter_dense} build on request for
      readers outside the engines (benchmarks, examples, tests);
    - {!version}, one entry of a multi-version chain, kept per slot by
      the engine that allocates the chains ({!Table.use_versions}). *)

type t = {
  key : int;
  committed : int array;  (** a copy of the committed image *)
}

type version = {
  v_data : int array;
  v_wts : int;
  mutable v_rts : int;
}
