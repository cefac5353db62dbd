(** The execution interface between workload logic and engines.

    Workload transaction logic (YCSB ops, TPC-C stored procedures) is
    written once against {!ctx}; every engine — QueCC, the deterministic
    baselines and the non-deterministic protocols — supplies its own
    implementation of the record accessors, which is where concurrency
    control, cost accounting and dependency tracking live. *)

type outcome =
  | Ok
  | Abort          (** deterministic logic abort *)
  | Blocked        (** ND protocols only: conflict, retry the txn *)

type ctx = {
  read : Fragment.t -> int -> int;
      (** [read frag field]: current value of the fragment's record. *)
  write : Fragment.t -> int -> int -> unit;
      (** [write frag field v]. *)
  add : Fragment.t -> int -> int -> unit;
      (** [add frag field delta]: commutative increment.  Engines may
          exploit commutativity (QueCC's speculative mode undoes it by
          inverse delta and records no speculation edges); protocols
          without that notion implement it as read-modify-write. *)
  insert : Fragment.t -> key:int -> int array -> unit;
      (** Insert under the computed key into the fragment's table; the
          fragment's routing key fixed the home partition. *)
  input : int -> int;
      (** [input fid]: output published by an earlier fragment (data
          dependency); may block in the queue-oriented engine when the
          producer runs on another core. *)
  output : int -> int -> unit;
      (** [output fid v]: publish this fragment's output. *)
  found : Fragment.t -> bool;
      (** Does the fragment's record exist (insert-region probes)? *)
}

exception Blocked_exn
(** Raised by ND-protocol accessors on lock conflict / validation
    prefail; engines catch it and retry. *)

