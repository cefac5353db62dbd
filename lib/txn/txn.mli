(** Transaction descriptors.

    A transaction is an ordered array of fragments (see {!Fragment}); the
    array order is the intra-transaction program order.  Descriptors are
    generated with their complete fragment list up front — the
    deterministic-processing prerequisite the paper discusses in
    section 2.3. *)

type status =
  | Pending      (** generated, not yet executing *)
  | Active       (** executing *)
  | Committed
  | Aborted      (** logic abort (deterministic) *)

type t = {
  tid : int;                  (** unique, monotone; doubles as timestamp *)
  frags : Fragment.t array;
  n_abortable : int;
  mutable status : status;
  mutable submit_time : int;  (** virtual ns *)
  mutable finish_time : int;
  mutable attempts : int;     (** executions incl. retries (ND protocols) *)
}

val make : tid:int -> Fragment.t array -> t
(** Validates fragment numbering ([frags.(i).fid = i] and data deps point
    backwards) and computes each fragment's [commit_dep] flag. *)

val admit :
  ?local:bool -> Quill_sim.Sim.t -> Quill_sim.Costs.t -> (unit -> t) -> t
(** The one start of a transaction's lifecycle: charge [txn_overhead],
    then call [draw] for the transaction, stamp its [submit_time], mark
    it [Active] and count one attempt.  [draw] is a thunk so a caller
    that generates the transaction after the overhead tick (the ND
    driver) and one that generated it before (the distributed runtime)
    keep their generation times.  [local] (default false) charges with
    {!Quill_sim.Sim.tick_local} instead of [tick]: for a caller that
    touches nothing shared until its next sync, such as a QueCC planner,
    whose transactions stay private until the batch's planned gate. *)
