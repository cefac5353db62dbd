(** Happens-before checker for {!Access_log} recordings.

    Replays a recorded run against the structural invariants that make
    QueCC's priority-ordered queues deterministic (Qadah, Middleware
    2019):

    - {b plan-access} (C1): the planning phase performs zero row
      accesses — planners route fragment descriptors, they never touch
      storage.
    - {b priority-order} (C2): conflicting (read-write or write-write)
      same-key accesses within a batch execute in planned queue-slot
      order — planner priority first, then intra-key sub-queue index
      (hot-key chain segments, [cfg.split]), then position within the
      (sub-)queue.  Committed-image reads and recovery replay are exempt
      (they commute / legitimately re-execute out of global order).
    - {b cross-owner} (C2b): a key's conflicting fragments all land in
      one owner's queue set; conflicting accesses spanning owners mean
      planner routing broke per-key locality.  (A chain segment runs on
      a foreign {e thread} but keeps its home {e owner}, so splitting
      does not trip this rule.)
    - {b off-owner} (C3): every plain queue is drained by the executor
      it was planned for; a queue drained by any other thread is a
      violation whatever keys it holds.
    - {b segment-overlap} (C3): a hot-key chain segment, the one
      (sub-)queue that runs on a foreign thread, never overlaps a queue
      of another thread that shares its key (its window must be
      serialized by the chain ivars).

    The checker iterates sorted arrays only (never an unordered
    container), so its own output is deterministic. *)

type rule =
  | Plan_access
  | Priority_order
  | Cross_owner
  | Off_owner
  | Segment_overlap

val rule_name : rule -> string

type violation = {
  v_rule : rule;
  v_batch : int;  (** -1 when the access predates batch attribution *)
  v_table : string;
  v_key : int;
  v_msg : string;
}

type report = {
  r_rows : int;  (** row accesses examined *)
  r_probes : int;  (** storage probes examined *)
  r_batches : int;  (** distinct batches covered *)
  r_segments : int;  (** hot-key chain segments observed (cfg.split) *)
  violations : violation list;
}

val ok : report -> bool
val check_log : Access_log.t -> report
val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
