open Quill_common
open Quill_sim
module A = Access_log

type rule =
  | Plan_access
  | Priority_order
  | Cross_owner
  | Off_owner
  | Segment_overlap

let rule_name = function
  | Plan_access -> "plan-access"
  | Priority_order -> "priority-order"
  | Cross_owner -> "cross-owner"
  | Off_owner -> "off-owner"
  | Segment_overlap -> "segment-overlap"

type violation = {
  v_rule : rule;
  v_batch : int;
  v_table : string;
  v_key : int;
  v_msg : string;
}

type report = {
  r_rows : int;
  r_probes : int;
  r_batches : int;
  r_segments : int;
  violations : violation list;
}

let ok r = r.violations = []

let pp_violation fmt v =
  Format.fprintf fmt "[%s] batch %d %s key %d: %s" (rule_name v.v_rule)
    v.v_batch v.v_table v.v_key v.v_msg

let pp_report fmt r =
  Format.fprintf fmt
    "conflict-check: %d row accesses, %d probes, %d batches, %d chain \
     segments, %d violations"
    r.r_rows r.r_probes r.r_batches r.r_segments
    (List.length r.violations);
  List.iter (fun v -> Format.fprintf fmt "@.  %a" pp_violation v) r.violations

(* Queue-slot order within one owner's queue set: planner priority
   first, then intra-key sub-queue index (hot-key chain segments;
   -1 for plain entries), then position within the (sub-)queue.  This is
   the order the paper requires conflicting accesses to respect; the
   subseq component is what lets a split key's accesses, spread over
   several executors, still prove planned order. *)
let slot_lt (p1, s1, q1) (p2, s2, q2) =
  p1 < p2
  || (p1 = p2 && (s1 < s2 || (s1 = s2 && q1 < q2)))

(* All checks iterate deterministic sorted arrays — never a Hashtbl —
   so the checker's own output order is reproducible. *)

(* C1: the planning phase must perform zero row accesses.  Planners only
   route fragment descriptors into queues; a storage probe under Ph_plan
   means planning depends on row state and is no longer a pure function
   of the batch. *)
let check_plan_access ~(rows : A.row_access array)
    ~(probes : A.probe array) add =
  Array.iter
    (fun (p : A.probe) ->
      if p.A.p_phase = Sim.Ph_plan then
        add
          {
            v_rule = Plan_access;
            v_batch = -1;
            v_table = p.A.p_table;
            v_key = p.A.p_key;
            v_msg =
              Printf.sprintf
                "storage %s by thread %d at vt=%d during planning phase"
                (if p.A.p_insert then "insert" else "lookup")
                p.A.p_tid p.A.p_vt;
          })
    probes;
  Array.iter
    (fun (a : A.row_access) ->
      if a.A.a_phase = Sim.Ph_plan then
        add
          {
            v_rule = Plan_access;
            v_batch = a.A.a_batch;
            v_table = Printf.sprintf "table#%d" a.A.a_table;
            v_key = a.A.a_key;
            v_msg =
              Printf.sprintf "%s by thread %d at vt=%d during planning phase"
                (A.op_name a.A.a_op) a.A.a_thread a.A.a_vt;
          })
    rows

(* Execute-phase records that participate in ordering rules.  Recovery
   replay (Ph_recover) legitimately re-executes a batch prefix serially
   and out of global order; committed-image reads commute with anything
   in flight.  Both are excluded. *)
let ordered_rows rows =
  let v = Vec.create () in
  Array.iter
    (fun (a : A.row_access) ->
      if
        a.A.a_phase = Sim.Ph_execute
        && a.A.a_op <> A.Committed_read
        && a.A.a_batch >= 0
      then Vec.push v a)
    rows;
  let arr = Vec.to_array v in
  Array.sort
    (fun (x : A.row_access) (y : A.row_access) ->
      let c = compare x.A.a_batch y.A.a_batch in
      if c <> 0 then c
      else
        let c = compare x.A.a_table y.A.a_table in
        if c <> 0 then c
        else
          let c = compare x.A.a_key y.A.a_key in
          if c <> 0 then c else compare x.A.a_seq y.A.a_seq)
    arr;
  arr

let is_write = function A.Write | A.Insert -> true | A.Read | A.Committed_read -> false

(* C2: conflicting same-key accesses within a batch must follow planned
   queue priority order.  Within one owner's queue set the execution
   order (by [a_seq]) of any read-write or write-write pair must agree
   with queue-slot order (priority, then position).  A conflicting pair
   spanning two different owners should be impossible — the planner
   routes a key's fragments to one executor — and is reported as
   [Cross_owner]. *)
let check_priority_order sorted add =
  let n = Array.length sorted in
  let i = ref 0 in
  while !i < n do
    let a0 = sorted.(!i) in
    let j = ref !i in
    while
      !j < n
      && sorted.(!j).A.a_batch = a0.A.a_batch
      && sorted.(!j).A.a_table = a0.A.a_table
      && sorted.(!j).A.a_key = a0.A.a_key
    do
      incr j
    done;
    (* group [i, j) shares (batch, table, key), already in seq order *)
    let owners = ref [] (* (owner, max slot of any access, max slot of a write) *)
    and has_write = ref false
    and multi_owner = ref false
    and reported_cross = ref false in
    for k = !i to !j - 1 do
      let a = sorted.(k) in
      let slot = (a.A.a_prio, a.A.a_subseq, a.A.a_pos) in
      if is_write a.A.a_op then has_write := true;
      (match !owners with
      | (o, _, _) :: _ when o <> a.A.a_owner -> multi_owner := true
      | _ -> ());
      if !multi_owner && !has_write && not !reported_cross then begin
        reported_cross := true;
        add
          {
            v_rule = Cross_owner;
            v_batch = a.A.a_batch;
            v_table = Printf.sprintf "table#%d" a.A.a_table;
            v_key = a.A.a_key;
            v_msg =
              "conflicting accesses span two owner queue sets (planner \
               routing broke per-key locality)";
          }
      end;
      let max_all, max_w =
        match List.assoc_opt a.A.a_owner (List.map (fun (o, ma, mw) -> (o, (ma, mw))) !owners) with
        | Some (ma, mw) -> (ma, mw)
        | None -> ((-1, -1, -1), (-1, -1, -1))
      in
      let against = if is_write a.A.a_op then max_all else max_w in
      if slot_lt slot against then begin
        let ap, asq, apos = against in
        add
          {
            v_rule = Priority_order;
            v_batch = a.A.a_batch;
            v_table = Printf.sprintf "table#%d" a.A.a_table;
            v_key = a.A.a_key;
            v_msg =
              Printf.sprintf
                "%s at queue slot (prio %d, sub %d, pos %d) by thread %d \
                 executed after a conflicting access at slot (prio %d, \
                 sub %d, pos %d) of the same owner %d"
                (A.op_name a.A.a_op) a.A.a_prio a.A.a_subseq a.A.a_pos
                a.A.a_thread ap asq apos a.A.a_owner;
          }
      end;
      let max_all' = if slot_lt max_all slot then slot else max_all in
      let max_w' =
        if is_write a.A.a_op && slot_lt max_w slot then slot else max_w
      in
      owners :=
        (a.A.a_owner, max_all', max_w')
        :: List.filter (fun (o, _, _) -> o <> a.A.a_owner) !owners
    done;
    i := !j
  done

(* One drained execution (sub-)queue: who drained it, which keys it
   touched, and the seq window over which it was drained.  A hot-key
   chain segment ([q_subseq >= 0]) is its own queue: it may run on a
   foreign thread, so its window must not overlap any other thread's
   queue that shares a key — chain sequencing is what guarantees
   that. *)
type queue = {
  q_batch : int;
  q_owner : int;
  q_prio : int;
  q_subseq : int;
  mutable q_thread : int;
  mutable q_min_seq : int;
  mutable q_max_seq : int;
  q_keys : (int * int) Vec.t; (* (table, key) *)
}

let build_queues sorted =
  (* sorted by (batch, table, key, seq); re-sort a copy by queue id *)
  let arr = Array.copy sorted in
  Array.sort
    (fun (x : A.row_access) (y : A.row_access) ->
      let c = compare x.A.a_batch y.A.a_batch in
      if c <> 0 then c
      else
        let c = compare x.A.a_owner y.A.a_owner in
        if c <> 0 then c
        else
          let c = compare x.A.a_prio y.A.a_prio in
          if c <> 0 then c
          else
            let c = compare x.A.a_subseq y.A.a_subseq in
            if c <> 0 then c
            else
              (* two chains can share (owner, prio, subseq); a segment
                 holds exactly one key, so key-group the segment rows *)
              let c =
                if x.A.a_subseq < 0 then 0
                else compare (x.A.a_table, x.A.a_key) (y.A.a_table, y.A.a_key)
              in
              if c <> 0 then c else compare x.A.a_seq y.A.a_seq)
    arr;
  let queues = Vec.create () in
  Array.iter
    (fun (a : A.row_access) ->
      let fresh () =
        let q =
          {
            q_batch = a.A.a_batch;
            q_owner = a.A.a_owner;
            q_prio = a.A.a_prio;
            q_subseq = a.A.a_subseq;
            q_thread = a.A.a_thread;
            q_min_seq = a.A.a_seq;
            q_max_seq = a.A.a_seq;
            q_keys = Vec.create ();
          }
        in
        Vec.push q.q_keys (a.A.a_table, a.A.a_key);
        Vec.push queues q
      in
      if Vec.length queues = 0 then fresh ()
      else
        let q = Vec.get queues (Vec.length queues - 1) in
        if
          q.q_batch = a.A.a_batch && q.q_owner = a.A.a_owner
          && q.q_prio = a.A.a_prio && q.q_subseq = a.A.a_subseq
          && (q.q_subseq < 0
             || Vec.get q.q_keys 0 = (a.A.a_table, a.A.a_key))
        then begin
          q.q_max_seq <- max q.q_max_seq a.A.a_seq;
          q.q_min_seq <- min q.q_min_seq a.A.a_seq;
          (* a queue is drained by one thread; a second thread showing up
             mid-queue is itself suspicious, keep the last one so the
             off-owner check sees it *)
          q.q_thread <- a.A.a_thread;
          Vec.push q.q_keys (a.A.a_table, a.A.a_key)
        end
        else fresh ())
    arr;
  let qs = Vec.to_array queues in
  Array.iter
    (fun q ->
      Vec.sort compare q.q_keys)
    qs;
  qs

let keys_intersect a b =
  (* both Vecs sorted; merge scan for a shared (table, key) *)
  let la = Vec.length a.q_keys and lb = Vec.length b.q_keys in
  let i = ref 0 and j = ref 0 and hit = ref None in
  while !hit = None && !i < la && !j < lb do
    let x = Vec.get a.q_keys !i and y = Vec.get b.q_keys !j in
    let c = compare x y in
    if c = 0 then hit := Some x
    else if c < 0 then incr i
    else incr j
  done;
  !hit

(* C3: every plain queue is drained by its owner; a queue on any other
   thread is a violation whatever its keys, since no engine moves a
   queue off the executor it was planned for.  A hot-key chain segment
   is the one (sub-)queue that runs on a foreign thread, and it is
   ordered by sequencing rather than placement: its window must never
   overlap a queue of another thread that shares its key.  Returns the
   number of segments seen. *)
let check_queue_placement queues add =
  let n = Array.length queues in
  let segments = ref 0 in
  for a = 0 to n - 1 do
    let qa = queues.(a) in
    if qa.q_subseq < 0 then begin
      if qa.q_thread <> qa.q_owner then
        let table, key = Vec.get qa.q_keys 0 in
        add
          {
            v_rule = Off_owner;
            v_batch = qa.q_batch;
            v_table = Printf.sprintf "table#%d" table;
            v_key = key;
            v_msg =
              Printf.sprintf
                "queue (owner %d, prio %d) drained by thread %d, not its \
                 owner"
                qa.q_owner qa.q_prio qa.q_thread;
          }
    end
    else begin
      incr segments;
      for b = 0 to n - 1 do
        let qb = queues.(b) in
        if
          b <> a
          && qb.q_batch = qa.q_batch
          && qb.q_thread <> qa.q_thread
          && qb.q_max_seq > qa.q_min_seq
          && qb.q_min_seq < qa.q_max_seq
        then
          match keys_intersect qa qb with
          | None -> ()
          | Some (table, key) ->
              add
                {
                  v_rule = Segment_overlap;
                  v_batch = qa.q_batch;
                  v_table = Printf.sprintf "table#%d" table;
                  v_key = key;
                  v_msg =
                    Printf.sprintf
                      "chain segment (owner %d, prio %d, sub %d) on thread \
                       %d overlaps concurrent queue (owner %d, prio %d, \
                       sub %d) on thread %d — chain sequencing was violated"
                      qa.q_owner qa.q_prio qa.q_subseq qa.q_thread
                      qb.q_owner qb.q_prio qb.q_subseq qb.q_thread;
                }
      done
    end
  done;
  !segments

let count_batches (rows : A.row_access array) =
  let seen = ref [] in
  Array.iter
    (fun (a : A.row_access) ->
      if a.A.a_batch >= 0 && not (List.mem a.A.a_batch !seen) then
        seen := a.A.a_batch :: !seen)
    rows;
  List.length !seen

let check_log log =
  let rows = A.rows log and probes = A.probes log in
  let acc = Vec.create () in
  let add v = Vec.push acc v in
  check_plan_access ~rows ~probes add;
  let sorted = ordered_rows rows in
  check_priority_order sorted add;
  let queues = build_queues sorted in
  let segments = check_queue_placement queues add in
  {
    r_rows = Array.length rows;
    r_probes = Array.length probes;
    r_batches = count_batches rows;
    r_segments = segments;
    violations = Vec.to_list acc;
  }
