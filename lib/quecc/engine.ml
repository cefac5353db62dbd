open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Trace = Quill_trace.Trace
module Clients = Quill_clients.Clients
module Alog = Quill_analysis.Access_log
module Commit_point = Quill_commit.Commit_point

type exec_mode = Speculative | Conservative
type isolation = Serializable | Read_committed

(* Hot-key queue splitting: when one planner routes at least the
   [split] threshold of operations to a single key, that key's operations
   are spread across up to [max_subqueues] sub-queues (chain segments) on
   different executors, tagged with intra-key sequence numbers so the
   per-record access order is exactly the enqueue order. *)
let max_subqueues = 8

(* Repartitioning remaps virtual partitions, [spread] per executor, to
   executors by measured per-partition load. *)
let spread = 8

type cfg = {
  planners : int;
  executors : int;
  batch_size : int;
  mode : exec_mode;
  isolation : isolation;
  costs : Costs.t;
  pipeline : bool;
      (* overlap planning of batch N+1 with execution of batch N via a
         double-buffered queue matrix; off = the lockstep oracle path *)
  split : int option;  (* hot-key split threshold; None = off *)
  repart : bool;  (* dynamic repartitioning between batches *)
}

let default_cfg =
  {
    planners = 4;
    executors = 4;
    batch_size = 1024;
    mode = Speculative;
    isolation = Serializable;
    costs = Costs.default;
    pipeline = false;
    split = None;
    repart = false;
  }

(* Per-batch runtime state of one transaction. *)
type rt = {
  txn : Txn.t;
  bidx : int;                        (* position in the batch = serial order *)
  slots : int Sim.Ivar.iv array;     (* data-dependency value slots; [||]
                                        when the txn has no data deps *)
  resolved : unit Sim.Ivar.iv;       (* commit-dependency gate *)
  mutable pending_aborters : int;
  mutable logic_abort : bool;
  entry : Clients.entry option;      (* admission-queue provenance, for
                                        client completion / retry *)
}

type qentry = { rt : rt; frag : Fragment.t }

(* One sub-queue of a split hot key: segment [sg_idx] of the chain for
   [sg_key] (a packed sig_key) homed at executor [sg_home].  The segment
   runs on a foreign executor but only after [sg_prev] is filled — the
   previous segment's [sg_done] (segment 0's start ivar is filled by the
   home executor when it reaches the chain's priority) — so the key's
   operations still execute in exact enqueue order. *)
type segment = {
  sg_home : int;
  sg_key : int;
  sg_idx : int;
  sg_entries : qentry Vec.t;
  sg_prev : unit Sim.Ivar.iv;
  sg_done : unit Sim.Ivar.iv;
}

(* Planner-side bookkeeping for one open chain. *)
type chain = {
  ch_home : int;
  ch_key : int;
  ch_seg_len : int;
  ch_max_segs : int;
  mutable ch_last : segment;
  mutable ch_nsegs : int;
}

(* The queue matrix and the per-slot runtimes are double-buffered by
   batch parity so a pipelined run can plan batch N+1 while batch N is
   still executing.  The non-pipelined path only ever uses parity 0. *)
type shared = {
  cfg : cfg;
  sim : Sim.t;
  wl : Workload.t;
  db : Db.t;
  queues : qentry Vec.t array array array;
      (* [parity].[planner].[executor] *)
  rts : rt option array array;         (* [parity].[slot] -> runtime *)
  chain_starts : unit Sim.Ivar.iv Vec.t array array array;
      (* [parity].[planner].[home executor]: segment-0 start ivars, filled
         by the home executor when it reaches that priority *)
  chain_joins : unit Sim.Ivar.iv Vec.t array array array;
      (* [parity].[planner].[home executor]: last-segment done ivars the
         home executor awaits before leaving that priority *)
  segs : segment Vec.t array array array;
      (* [parity].[planner].[assigned executor], sorted by
         (home, key, idx) — the global order that makes chain waits
         deadlock-free (DESIGN.md §12) *)
  rmap : int array array;  (* [batch parity].[vpart] -> executor *)
  vload : int array array; (* [batch parity].[vpart] -> routed op count *)
  metrics : Metrics.t;
  recorder : Alog.t option;
      (* conflict-detector access log (--check-conflicts); None on the
         hot path *)
  cp : Commit_point.t;
      (* the batch commit point: touched sets per executor + one
         recovery slot, WAL, CDC and the crash point *)
  journal : Journal.t;
      (* the executing batch's speculative accesses (speculative mode);
         one suffices, because batch b+1 starts executing only after
         batch b is recovered and published *)
  mutable batch_no : int;
}

(* Pack (table, key) into one int; tables are small. *)
let sig_key table key = (key lsl 6) lor table

(* ------------------------------------------------------------------ *)
(* Transaction runtime                                                 *)
(* ------------------------------------------------------------------ *)

let make_rt ?entry txn bidx =
  let has_deps =
    Array.exists
      (fun f -> Array.length f.Fragment.data_deps > 0)
      txn.Txn.frags
  in
  let slots =
    if has_deps then
      Array.init (Array.length txn.Txn.frags) (fun _ -> Sim.Ivar.create ())
    else [||]
  in
  {
    txn;
    bidx;
    slots;
    resolved = Sim.Ivar.create ();
    pending_aborters = txn.Txn.n_abortable;
    logic_abort = false;
    entry;
  }

let fill_unfilled_slots sh rt =
  Array.iter
    (fun iv -> if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv 0)
    rt.slots

(* Both sync first: the abort count, status and slots are shared with
   the transaction's other executors. *)
let resolve_arrive sh rt =
  Sim.sync sh.sim;
  rt.pending_aborters <- rt.pending_aborters - 1;
  if rt.pending_aborters = 0 && not (Sim.Ivar.is_full rt.resolved) then
    Sim.Ivar.fill sh.sim rt.resolved ()

let do_abort sh rt =
  Sim.sync sh.sim;
  if rt.txn.Txn.status <> Txn.Aborted then begin
    rt.txn.Txn.status <- Txn.Aborted;
    rt.logic_abort <- true;
    if not (Sim.Ivar.is_full rt.resolved) then
      Sim.Ivar.fill sh.sim rt.resolved ();
    (* Unblock any same-txn consumer already waiting on a value slot; the
       garbage value is repaired by the recovery pass (speculative) or
       never written back (conservative: all updates are gated). *)
    fill_unfilled_slots sh rt
  end

(* ------------------------------------------------------------------ *)
(* Executor context                                                    *)
(* ------------------------------------------------------------------ *)

type exec_state = {
  eid : int;
  mutable cur_rt : rt;
  cur : Direct.cursor;
  locate : Fragment.t -> int;  (* [Direct.find] on the database *)
}

let dummy_rt = make_rt (Txn.make ~tid:(-1) [||]) (-1)

(* A read-committed read: served from the committed image, so planning
   may spread it over any executor. *)
let is_rc sh (f : Fragment.t) =
  sh.cfg.isolation = Read_committed && f.Fragment.mode = Fragment.Read

let make_exec_ctx sh st =
  let costs = sh.cfg.costs in
  let speculative = sh.cfg.mode = Speculative in
  let j = sh.journal in
  let cur = st.cur in
  let read (frag : Fragment.t) field =
    Sim.tick_local sh.sim costs.Costs.row_read;
    if not cur.found then 0
    else begin
      let table = frag.Fragment.table and slot = cur.slot in
      let tbl = Db.table sh.db table in
      match (sh.cfg.isolation, frag.Fragment.mode) with
      | Read_committed, Fragment.Read -> Table.committed tbl slot field
      | _ ->
          if speculative then
            Journal.read j ~bidx:st.cur_rt.bidx ~table slot field;
          Table.get tbl slot field
    end
  in
  (* A set ([is_add] false, [x] the value) or a commutative add ([x] the
     delta); speculative mode journals it. *)
  let update (frag : Fragment.t) field ~is_add x =
    Sim.tick_local sh.sim costs.Costs.row_write;
    if cur.found then begin
      let table = frag.Fragment.table and slot = cur.slot in
      let tbl = Db.table sh.db table in
      let old = Table.get tbl slot field in
      if speculative then begin
        let bidx = st.cur_rt.bidx in
        if is_add then Journal.add j ~bidx ~table slot field ~delta:x
        else Journal.set j ~bidx ~table slot field ~old
      end;
      Commit_point.touch sh.cp st.eid ~table slot;
      Table.set tbl slot field (if is_add then old + x else x)
    end
  in
  let write frag field v = update frag field ~is_add:false v in
  let add frag field d = update frag field ~is_add:true d in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick sh.sim costs.Costs.index_insert;
    let rt = st.cur_rt in
    let tbl = Db.table sh.db frag.Fragment.table in
    let home = Db.home sh.db frag.Fragment.table frag.Fragment.key in
    let slot = Table.insert tbl ~home ~key payload in
    if speculative then
      Journal.insert j ~bidx:rt.bidx ~table:frag.Fragment.table slot;
    Commit_point.touch_insert sh.cp st.eid ~table:frag.Fragment.table slot
      ~by:rt.bidx
  in
  let input fid =
    Sim.tick sh.sim costs.Costs.cas;
    let rt = st.cur_rt in
    if Array.length rt.slots = 0 then 0 else Sim.Ivar.read sh.sim rt.slots.(fid)
  in
  let output fid v =
    let rt = st.cur_rt in
    if Array.length rt.slots > 0 then begin
      Sim.sync sh.sim;
      if not (Sim.Ivar.is_full rt.slots.(fid)) then
        Sim.Ivar.fill sh.sim rt.slots.(fid) v
    end
  in
  let found _frag = cur.found in
  { Exec.read; write; add; insert; input; output; found }

(* Executor [eid]'s state and context, with conflict-detector
   interposition when a recorder is active.  Read-committed reads are
   flagged so the checker exempts them from ordering rules: they only
   read committed state, and planning spreads them over every core. *)
let new_executor sh eid =
  let st =
    {
      eid;
      cur_rt = dummy_rt;
      cur = Direct.cursor ();
      locate = Direct.find sh.db;
    }
  in
  let ctx = make_exec_ctx sh st in
  ( st,
    match sh.recorder with
    | None -> ctx
    | Some log ->
        Alog.wrap_exec_ctx log ~rc_read:(is_rc sh) ctx )

let exec_entry sh st ctx { rt; frag } =
  let costs = sh.cfg.costs in
  (* Only an abortable fragment changes a transaction's status mid-batch
     and only value slots hand data across executors: a transaction with
     neither is private to the executors running its fragments. *)
  if rt.txn.Txn.n_abortable > 0 || Array.length rt.slots > 0 then
    Sim.tick sh.sim costs.Costs.queue_op
  else Sim.tick_local sh.sim costs.Costs.queue_op;
  if rt.txn.Txn.status = Txn.Aborted then
    Sim.tick sh.sim costs.Costs.abort_cleanup
  else begin
    (* Conservative execution: a fragment that updates the database while
       a sibling may still abort waits for the commit-dependency gate. *)
    if
      sh.cfg.mode = Conservative
      && frag.Fragment.commit_dep
      && not (Sim.Ivar.is_full rt.resolved)
    then Sim.Ivar.read sh.sim rt.resolved;
    if rt.txn.Txn.status = Txn.Aborted then
      Sim.tick sh.sim costs.Costs.abort_cleanup
    else begin
      st.cur_rt <- rt;
      (* A read-committed read may run on any executor and probe a key
         another executor inserts this batch: its probe syncs. *)
      match
        Direct.step ~local:(not (is_rc sh frag)) sh.sim costs sh.wl ctx st.cur
          ~locate:st.locate rt.txn frag
      with
      | Exec.Ok -> if frag.Fragment.abortable then resolve_arrive sh rt
      | Exec.Abort ->
          assert frag.Fragment.abortable;
          do_abort sh rt
      | Exec.Blocked -> assert false
    end
  end

(* ------------------------------------------------------------------ *)
(* Queue draining                                                      *)
(* ------------------------------------------------------------------ *)

(* Chain-segment execution.  The home executor fills every segment-0
   start ivar for chains homed at (p, e) when it reaches priority p
   (before draining its own queue), and joins the chains it owns after
   its own queue.  Segments assigned to executor [e] run on a per-batch
   helper thread spawned next to the drain loop, so a hot-key chain
   overlaps with every executor's own-queue work instead of queueing
   behind it (the chain is a serial dependency either way; the helper
   keeps it off the executors' critical path).  Segment entries never
   block — splitting is restricted to dependency-free, non-abortable
   plain row ops — so the only waits are the sg_prev ivars, and those
   cannot cycle: each helper processes its segments in the global
   (prio, home, key, idx) order, making the minimal unfinished segment
   always runnable. *)
let chain_begin sh ~parity p e =
  if sh.chain_starts <> [||] then
    Vec.iter
      (fun iv -> if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv ())
      sh.chain_starts.(parity).(p).(e)

(* Drain queue [q] as executor [st.eid], stamping each entry's queue
   slot when a recorder is attached. *)
let drain_with sh st ctx ~owner ~subseq p q =
  match sh.recorder with
  | None -> Vec.iter (exec_entry sh st ctx) q
  | Some log ->
      Vec.iteri
        (fun i entry ->
          Alog.set_slot log ~thread:st.eid ~owner ~prio:p ~subseq ~pos:i
            ~batch:sh.batch_no;
          exec_entry sh st ctx entry)
        q

(* Helper thread running executor [e]'s assigned chain segments for one
   batch.  The work list is snapshotted at spawn (the plan phase reuses
   the parity-indexed rows two batches later) and the helper gets its
   own exec state/ctx — [exec_state]'s scratch (the current runtime and
   cursor) lives across an entry's switch points (its value-slot reads
   and syncs), so it cannot be shared with the concurrently draining
   executor. *)
let spawn_segment_runner sh e ~parity =
  if sh.segs <> [||] then begin
    let work = Vec.create () in
    for p = 0 to sh.cfg.planners - 1 do
      Vec.iter (fun sg -> Vec.push work (p, sg)) sh.segs.(parity).(p).(e)
    done;
    if Vec.length work > 0 then
      Sim.spawn ~at:(Sim.now sh.sim) sh.sim (fun () ->
          Sim.set_phase sh.sim Sim.Ph_execute;
          let st, ctx = new_executor sh e in
          Vec.iter
            (fun (p, sg) ->
              Sim.Ivar.read sh.sim sg.sg_prev;
              Sim.tick sh.sim sh.cfg.costs.Costs.queue_op;
              drain_with sh st ctx ~owner:sg.sg_home ~subseq:sg.sg_idx p
                sg.sg_entries;
              Sim.Ivar.fill sh.sim sg.sg_done ())
            work)
  end

let chain_join sh ~parity p e =
  if sh.chain_joins <> [||] then
    Vec.iter
      (fun iv -> Sim.Ivar.read sh.sim iv)
      sh.chain_joins.(parity).(p).(e)

(* Execute every queue planned for executor [st.eid], in priority order:
   the oracle drain loop.  With a recorder active each entry is stamped
   with its queue slot so the conflict checker can replay priority order
   ([subseq >= 0] marks a chain segment). *)
let drain_queues sh st ctx ~parity =
  let e = st.eid in
  spawn_segment_runner sh e ~parity;
  for p = 0 to sh.cfg.planners - 1 do
    chain_begin sh ~parity p e;
    drain_with sh st ctx ~owner:e ~subseq:(-1) p sh.queues.(parity).(p).(e);
    chain_join sh ~parity p e
  done

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* Order fragments for queue insertion: dependency-free abortable
   fragments go first so that, in conservative mode, an executor blocked
   on a commit-dependency gate can never be queued ahead of the abort
   decision it waits for (the deadlock-freedom argument in DESIGN.md). *)
let plan_order frags =
  let n = Array.length frags in
  if n = 0 then frags
  else begin
  let ordered = Array.make n frags.(0) in
  let i = ref 0 in
  Array.iter
    (fun (f : Fragment.t) ->
      if f.Fragment.abortable && Array.length f.Fragment.data_deps = 0 then begin
        ordered.(!i) <- f;
        incr i
      end)
    frags;
  Array.iter
    (fun (f : Fragment.t) ->
      if not (f.Fragment.abortable && Array.length f.Fragment.data_deps = 0)
      then begin
        ordered.(!i) <- f;
        incr i
      end)
    frags;
  ordered
  end

let slice_bounds ~batch_size ~planners p =
  let base = batch_size / planners and rem = batch_size mod planners in
  let start = (p * base) + min p rem in
  let count = base + if p < rem then 1 else 0 in
  (start, count)

(* A fragment may enter a hot-key chain only if it can never block a
   foreign executor: no abortable sibling (so no commit gate and no
   abort path), no data-dependency slots anywhere in its transaction,
   plain row op, and not an early fragment (those must keep their
   front-of-queue position). *)
let seg_exec sh home i =
  let en = sh.cfg.executors in
  (home + 1 + (i mod (en - 1))) mod en

(* Plan the [count] transactions at [start..start+count-1] of the batch,
   fetched one at a time via [get] (closed-loop: the workload stream;
   client mode: the entries drained from the admission queue).  [bno] is
   the batch number being planned — under repartitioning it selects the
   routing-map parity, which in the pipelined path differs from
   [sh.batch_no] (the batch still executing). *)
let plan_txns sh ~parity ~bno p ~start ~count ~get rr =
  let costs = sh.cfg.costs in
  let en = sh.cfg.executors in
  let m = sh.metrics in
  let queues = sh.queues.(parity).(p) in
  Array.iter Vec.clear queues;
  if sh.segs <> [||] then
    for e = 0 to en - 1 do
      Vec.clear sh.chain_starts.(parity).(p).(e);
      Vec.clear sh.chain_joins.(parity).(p).(e);
      Vec.clear sh.segs.(parity).(p).(e)
    done;
  let split_en =
    match sh.cfg.split with Some t when en > 1 -> Some t | _ -> None
  in
  let repart = sh.cfg.repart in
  let bpar = bno land 1 in
  let is_rc = is_rc sh in
  (* Home-executor routing: the base modulo map, refined through the
     virtual-partition map when repartitioning is on.  Also feeds the
     per-vpart load counters the next rebalance consumes. *)
  let route_exec t k =
    if repart then begin
      let vp = ((Db.home sh.db t k mod en) * spread) + (k mod spread) in
      sh.vload.(bpar).(vp) <- sh.vload.(bpar).(vp) + 1;
      sh.rmap.(bpar).(vp)
    end
    else Db.home sh.db t k mod en
  in
  (* Pass 1 (splitting only): materialize the slice and count per-key
     routed operations, so pass 2 knows which keys are hot before the
     first fragment is enqueued.  No Sim call happens here; all virtual
     time is charged in pass 2, so the cost model is unchanged. *)
  let slice =
    if count = 0 then [||]
    else begin
      let first = get 0 in
      let a = Array.make count first in
      for j = 1 to count - 1 do
        a.(j) <- get j
      done;
      a
    end
  in
  let franks =
    Array.map (fun ((txn : Txn.t), _) -> plan_order txn.Txn.frags) slice
  in
  let counts : (int, int * bool) Hashtbl.t = Hashtbl.create 64 in
  (match split_en with
  | None -> ()
  | Some _ ->
      Array.iteri
        (fun j ((txn : Txn.t), _) ->
          let pure =
            txn.Txn.n_abortable = 0
            && Array.for_all
                 (fun (g : Fragment.t) ->
                   Array.length g.Fragment.data_deps = 0)
                 txn.Txn.frags
          in
          Array.iter
            (fun (f : Fragment.t) ->
              if not (is_rc f) then begin
                let sk = sig_key f.Fragment.table f.Fragment.key in
                let ok =
                  pure
                  && (match f.Fragment.mode with
                     | Fragment.Insert -> false
                     | Fragment.Read | Fragment.Write | Fragment.Rmw -> true)
                  && not f.Fragment.early
                in
                match Hashtbl.find_opt counts sk with
                | Some (c, clean) ->
                    Hashtbl.replace counts sk (c + 1, clean && ok)
                | None -> Hashtbl.add counts sk (1, ok)
              end)
            franks.(j))
        slice);
  (* Chains open lazily at the first routed occurrence of a hot key, so
     creation order follows slice order (deterministic), never hash
     order.  [new_chains] remembers them for join registration. *)
  let chain_tbl : (int, chain) Hashtbl.t = Hashtbl.create 8 in
  let new_chains : chain Vec.t = Vec.create () in
  let chain_for sk home =
    match split_en with
    | None -> None
    | Some threshold -> (
        match Hashtbl.find_opt chain_tbl sk with
        | Some ch -> Some ch
        | None -> (
            match Hashtbl.find_opt counts sk with
            | Some (c, true) when c >= threshold ->
                let nsegs = min max_subqueues (max 2 (c / threshold)) in
                let seg_len = (c + nsegs - 1) / nsegs in
                let start = Sim.Ivar.create () in
                Vec.push sh.chain_starts.(parity).(p).(home) start;
                let seg0 =
                  {
                    sg_home = home;
                    sg_key = sk;
                    sg_idx = 0;
                    sg_entries = Vec.create ();
                    sg_prev = start;
                    sg_done = Sim.Ivar.create ();
                  }
                in
                Vec.push sh.segs.(parity).(p).(seg_exec sh home 0) seg0;
                let ch =
                  {
                    ch_home = home;
                    ch_key = sk;
                    ch_seg_len = seg_len;
                    ch_max_segs = nsegs;
                    ch_last = seg0;
                    ch_nsegs = 1;
                  }
                in
                Hashtbl.add chain_tbl sk ch;
                Vec.push new_chains ch;
                m.Metrics.split_keys <- m.Metrics.split_keys + 1;
                m.Metrics.split_subqueues <- m.Metrics.split_subqueues + 1;
                Some ch
            | _ -> None))
  in
  let chain_push ch entry =
    if
      Vec.length ch.ch_last.sg_entries >= ch.ch_seg_len
      && ch.ch_nsegs < ch.ch_max_segs
    then begin
      let seg =
        {
          sg_home = ch.ch_home;
          sg_key = ch.ch_key;
          sg_idx = ch.ch_nsegs;
          sg_entries = Vec.create ();
          sg_prev = ch.ch_last.sg_done;
          sg_done = Sim.Ivar.create ();
        }
      in
      Vec.push sh.segs.(parity).(p).(seg_exec sh ch.ch_home ch.ch_nsegs) seg;
      ch.ch_nsegs <- ch.ch_nsegs + 1;
      ch.ch_last <- seg;
      m.Metrics.split_subqueues <- m.Metrics.split_subqueues + 1
    end;
    Vec.push ch.ch_last.sg_entries entry
  in
  (* Early (read-only, never-written-table) abortable fragments go to the
     head of their queues so abort decisions resolve before the gated
     updates arrive. *)
  let front = Array.init en (fun _ -> Vec.create ()) in
  (* Pass 2: the original planning loop, now with hot keys diverted into
     chain segments. *)
  for j = 0 to count - 1 do
    let txn, entry = slice.(j) in
    (* drawn before pass 2 and private until the planned gate *)
    let txn = Txn.admit ~local:true sh.sim costs (fun () -> txn) in
    let rt = make_rt ?entry txn (start + j) in
    sh.rts.(parity).(start + j) <- Some rt;
    Array.iter
      (fun (f : Fragment.t) ->
        Sim.tick_local sh.sim costs.Costs.plan_fragment;
        let rc_read = is_rc f in
        let e =
          if rc_read then begin
            (* Read-committed reads are safe on any core: spread them. *)
            rr := (!rr + 1) mod en;
            !rr
          end
          else route_exec f.Fragment.table f.Fragment.key
        in
        let in_chain =
          (not rc_read)
          &&
          match chain_for (sig_key f.Fragment.table f.Fragment.key) e with
          | Some ch ->
              chain_push ch { rt; frag = f };
              true
          | None -> false
        in
        if not in_chain then
          if f.Fragment.early && Array.length f.Fragment.data_deps = 0 then
            Vec.push front.(e) { rt; frag = f }
          else Vec.push queues.(e) { rt; frag = f })
      franks.(j)
  done;
  Array.iteri
    (fun e fv ->
      if not (Vec.is_empty fv) then begin
        let main = Vec.to_array queues.(e) in
        Vec.clear queues.(e);
        Vec.iter (fun x -> Vec.push queues.(e) x) fv;
        Array.iter (fun x -> Vec.push queues.(e) x) main
      end)
    front;
  if sh.segs <> [||] then begin
    (* Register chain joins with the home executors and put every
       executor's assigned segments in the global (home, key, idx) order
       the deadlock-freedom argument needs. *)
    Vec.iter
      (fun ch ->
        Vec.push sh.chain_joins.(parity).(p).(ch.ch_home) ch.ch_last.sg_done)
      new_chains;
    for e = 0 to en - 1 do
      Vec.sort
        (fun a b ->
          compare (a.sg_home, a.sg_key, a.sg_idx)
            (b.sg_home, b.sg_key, b.sg_idx))
        sh.segs.(parity).(p).(e)
    done
  end

(* Where a batch's transactions come from: [Stream], [cfg.batch_size]
   transactions drawn from the planners' workload streams, each planner
   its own slice (closed loop), or [Admitted entries], whatever the
   admission queue held at batch-close (client mode, variable size). *)
type work = Stream | Admitted of Clients.entry array

(* Plan planner [p]'s slice of the batch; every planner splits it the
   same way, and one whose slice is empty still clears its queues. *)
let plan_work sh ~streams ~parity ~bno p work rr =
  let batch_size =
    match work with Stream -> sh.cfg.batch_size | Admitted es -> Array.length es
  in
  let start, count = slice_bounds ~batch_size ~planners:sh.cfg.planners p in
  plan_txns sh ~parity ~bno p ~start ~count
    ~get:(fun j ->
      match work with
      | Stream -> (streams.(p) (), None)
      | Admitted es ->
          let e = es.(start + j) in
          (e.Clients.txn, Some e))
    rr

(* ------------------------------------------------------------------ *)
(* Speculative recovery: cascade closure, undo, serial re-execution     *)
(* ------------------------------------------------------------------ *)

(* Re-execute one cascaded transaction serially, in place with undo; its
   touched rows land in the recovery slot.  Recovery-pass inserts must be
   marked there too: the WAL write set is staged from the touched set, and
   a replay that misses an insert diverges from the fault-free run. *)
let reexec_txn sh recovery_slot rt =
  let direct =
    Direct.create
      ~touch:(Commit_point.touch sh.cp recovery_slot)
      ~inserted:(fun ~table slot ->
        Commit_point.touch_insert sh.cp recovery_slot ~table slot ~by:rt.bidx)
      ~read_committed:(sh.cfg.isolation = Read_committed)
      ~add_reads:false sh.sim sh.cfg.costs sh.wl
  in
  rt.txn.Txn.attempts <- rt.txn.Txn.attempts + 1;
  rt.txn.Txn.status <-
    (match Direct.run direct rt.txn with
    | Exec.Ok -> Txn.Committed
    | Exec.Abort | Exec.Blocked -> Txn.Aborted)

(* Only a batch with a logic abort replays its journal: the closure of
   the aborters in batch order, its writes and inserts undone newest
   first, then serial re-execution in batch order. *)
let recover sh ~parity =
  let rts = sh.rts.(parity) in
  let n = sh.cfg.batch_size in
  let aborter = function Some rt -> rt.logic_abort | None -> false in
  if Array.exists aborter rts then begin
    let in_a =
      Journal.closure sh.journal n ~aborted:(fun b -> aborter rts.(b))
    in
    Journal.revert sh.journal in_a ~charge:(fun () ->
        Sim.tick sh.sim sh.cfg.costs.Costs.abort_cleanup);
    let recovery_slot = sh.cfg.executors in
    for b = 0 to n - 1 do
      if in_a.(b) then
        match rts.(b) with
        | None -> ()
        | Some rt ->
            sh.metrics.Metrics.cascades <- sh.metrics.Metrics.cascades + 1;
            reexec_txn sh recovery_slot rt
    done
  end;
  Journal.clear sh.journal

(* Every transaction still active after recovery (speculative) or
   execution (conservative) commits. *)
let finalize_statuses sh ~parity =
  for i = 0 to sh.cfg.batch_size - 1 do
    match sh.rts.(parity).(i) with
    | Some rt when rt.txn.Txn.status = Txn.Active ->
        rt.txn.Txn.status <- Txn.Committed
    | Some _ | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Between-batch adaptation                                            *)
(* ------------------------------------------------------------------ *)

(* Rebalance the virtual-partition map from the load the planners of
   batch [bno] measured: longest-processing-time-first over the loaded
   vparts, heaviest to the least-loaded executor.  Runs on one thread
   during the recover phase of batch [bno]; it rewrites the parity-[bno]
   map, which the planners of batch [bno + 2] are the next to read, so
   the rewrite can never race a planner (batch [bno + 1] planning uses
   the other parity).  Zero-load vparts keep their mapping. *)
let rebalance sh ~bno =
  if sh.cfg.repart then begin
    let par = bno land 1 in
    let load = sh.vload.(par) and map = sh.rmap.(par) in
    let nvp = Array.length map in
    let idx = Array.init nvp (fun i -> i) in
    Array.sort
      (fun i j ->
        let c = compare load.(j) load.(i) in
        if c <> 0 then c else compare i j)
      idx;
    let eload = Array.make sh.cfg.executors 0 in
    let moves = ref 0 in
    Array.iter
      (fun vp ->
        if load.(vp) > 0 then begin
          let best = ref 0 in
          for e = 1 to sh.cfg.executors - 1 do
            if eload.(e) < eload.(!best) then best := e
          done;
          Sim.tick sh.sim sh.cfg.costs.Costs.queue_op;
          if map.(vp) <> !best then begin
            incr moves;
            map.(vp) <- !best
          end;
          eload.(!best) <- eload.(!best) + load.(vp)
        end)
      idx;
    Array.fill load 0 nvp 0;
    sh.metrics.Metrics.repart_moves <-
      sh.metrics.Metrics.repart_moves + !moves
  end

(* Batch [b]'s work, or [None] at the end of the run: once the node has
   crashed, once the [batches] fixed-size batches are out, or once a
   drain comes back empty (every client transaction is finally
   resolved).  Only the closed-loop answer is a pure function of [b]; a
   drain consumes the admission queue, so each client batch asks once
   and shares the answer.  The admission queue and the crash flag are
   shared, so it syncs first. *)
let next_work ?clients sh ~batches b =
  Sim.sync sh.sim;
  if Commit_point.crashed sh.cp then None
  else
    match clients with
    | Some c -> (
        match Clients.drain c ~node:0 ~max:sh.cfg.batch_size with
        | [||] -> None
        | es -> Some (Admitted es))
    | None -> if b < batches then Some Stream else None

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* Account the batch's outcomes and retire its runtimes; returns how
   many transactions the batch committed. *)
let account ?clients sh ~parity =
  let now = Sim.now sh.sim in
  let rts = sh.rts.(parity) in
  let m = sh.metrics in
  let committed0 = m.Metrics.committed in
  for b = 0 to sh.cfg.batch_size - 1 do
    match rts.(b) with
    | None -> ()
    | Some rt ->
        let ok =
          match rt.txn.Txn.status with
          | Txn.Committed -> true
          | Txn.Aborted -> false
          | Txn.Active | Txn.Pending -> assert false
        in
        Metrics.retire m rt.txn ~ok ~now;
        (match (clients, rt.entry) with
        | Some c, Some e -> Clients.complete c e ~ok
        | _ -> ());
        rts.(b) <- None
  done;
  m.Metrics.batches <- m.Metrics.batches + 1;
  m.Metrics.committed - committed0

(* Drain executor [st.eid]'s queues of the batch in buffer [parity],
   after a queue-depth trace counter. *)
let execute sh st ctx ~parity =
  let e = st.eid in
  let tr = Sim.tracer sh.sim in
  if Trace.enabled tr then begin
    let depth = ref 0 in
    for p = 0 to sh.cfg.planners - 1 do
      depth := !depth + Vec.length sh.queues.(parity).(p).(e)
    done;
    Trace.counter tr ~tid:e ~name:"queue_depth"
      ~series:("exec" ^ string_of_int e) ~ts:(Sim.now sh.sim) ~value:!depth
  end;
  Sim.in_phase sh.sim Sim.Ph_execute e (fun () ->
      drain_queues sh st ctx ~parity)

(* Publish the touched sets thread [t] owns: its executor slot, plus the
   recovery slot on thread 0.  Nothing is published in a batch the node
   died in (the crash flag is shared: sync first). *)
let publish_own sh t =
  Sim.sync sh.sim;
  if t < sh.cfg.executors && not (Commit_point.crashed sh.cp) then
    Sim.in_phase sh.sim Sim.Ph_publish t (fun () ->
        if t < sh.cfg.executors then Commit_point.publish sh.cp t;
        if t = 0 then Commit_point.publish sh.cp sh.cfg.executors)

(* The batch epilogue, run by the thread that closes batch [bno]
   (lockstep thread 0, pipelined executor 0) once every executor has
   drained it.  At the commit point: settle every status (speculative
   recovery or conservative finalize), account, stage the touched rows
   and rebalance — unless the node dies here, in which case the batch is
   never accounted or logged.  [published] is the path's own publish
   hand-off and returns once every slot is published; the seal (or crash
   recovery) follows it, while the next batch's executors are still held
   short of their first row access. *)
let close_batch ?clients sh ~parity ~tid ~bno ~published =
  Sim.in_phase sh.sim Sim.Ph_recover tid (fun () ->
      if not (Commit_point.crash_due sh.cp) then begin
        if sh.cfg.mode = Speculative then recover sh ~parity;
        finalize_statuses sh ~parity;
        let txns = account ?clients sh ~parity in
        Commit_point.stage sh.cp ~batch_no:bno ~txns;
        rebalance sh ~bno
      end);
  published ();
  Commit_point.seal sh.cp sh.metrics ~tid

(* ------------------------------------------------------------------ *)
(* Lockstep execution (the oracle): plan | execute | recover | publish  *)
(* separated by full barriers, every batch.                             *)
(* ------------------------------------------------------------------ *)

let spawn_lockstep sim sh ?clients ~batches ~streams () =
  let cfg = sh.cfg in
  let nthreads = max cfg.planners cfg.executors in
  let barrier = Sim.Barrier.create nthreads in
  let local = clients = None in
  (* A shared decision is made by thread 0 strictly before the round
     barrier and read by everyone strictly after it, so every thread runs
     the same barrier sequence (a bare loop check here deadlocks: late
     checkers exit while early checkers park on the round barrier). *)
  let decision = ref None in
  for t = 0 to nthreads - 1 do
    Sim.spawn sim (fun () ->
        let st, ctx = new_executor sh t in
        let rr = ref t in
        (* Every thread publishes its slots between two barriers; the
           seal on thread 0 follows, while the next batch's executors are
           held at the post-plan barrier. *)
        let published () =
          Sim.Barrier.await sim barrier;
          publish_own sh t;
          Sim.Barrier.await sim barrier
        in
        let rec loop b =
          let work =
            if local then next_work ?clients sh ~batches b
            else begin
              if t = 0 then decision := next_work ?clients sh ~batches b;
              Sim.Barrier.await sim barrier;
              !decision
            end
          in
          match work with
          | None -> ()
          | Some w ->
              if t = 0 then sh.batch_no <- b;
              if t < cfg.planners then
                Sim.in_phase sim Sim.Ph_plan t (fun () ->
                    plan_work sh ~streams ~parity:0 ~bno:b t w rr);
              Sim.Barrier.await sim barrier;
              if t < cfg.executors then execute sh st ctx ~parity:0;
              Sim.Barrier.await sim barrier;
              (* A crash at thread 0's commit point kills the batch; every
                 thread unwinds after the publish barrier. *)
              if t = 0 then
                close_batch ?clients sh ~parity:0 ~tid:t ~bno:b ~published
              else published ();
              loop (b + 1)
        in
        (* Client batches are numbered from 1: the WAL's snapshot cadence
           follows the batch number. *)
        loop (if clients = None then 0 else 1))
  done;
  nthreads

(* ------------------------------------------------------------------ *)
(* Pipelined execution: dedicated planner and executor threads,        *)
(* double-buffered queues, one hand-off per batch.                     *)
(* ------------------------------------------------------------------ *)

(* Per-batch one-shot synchronisation.  Batch b for an executor: await
   start -> drain parity (b land 1) -> arrive exec_done -> [e0:
   recover/account, fill recovered] -> publish own slot -> arrive
   published -> [e0: await published, then open b+1].  A planner plans
   b as soon as recovered(b-2) is filled — the parity buffer is
   guaranteed drained — so planning b overlaps execution of b-1 and
   publish/recovery of b-2 overlaps planning of b.  Publish of b
   completing before start(b+1) is what keeps read-committed reads and
   cross-slot recovery exact: committed images only ever change between
   batches, exactly as in the lockstep path. *)
type batch_sync = {
  planned : Sim.Gate.g;  (* planners arrive after planning b *)
  start : bool Sim.Ivar.iv;  (* executor 0 opens b (false = stop) *)
  exec_done : Sim.Gate.g;  (* executors arrive after draining b *)
  recovered : unit Sim.Ivar.iv;  (* recovery + accounting of b is done *)
  published : Sim.Gate.g;  (* all slots of b are published *)
  decision : work option Sim.Ivar.iv;
      (* b's work unless every thread decides it locally *)
}

let spawn_pipelined sim sh ?clients ~batches ~streams () =
  let cfg = sh.cfg in
  let m = sh.metrics in
  let local = clients = None in
  (* One record per batch in flight, created on first access (any thread
     may get there first; creation never yields, so the check-then-add
     pair is atomic under the cooperative scheduler) and removed once
     batch b+2 closes: by then every planner of b+2 has read
     recovered(b). *)
  let syncs : (int, batch_sync) Hashtbl.t = Hashtbl.create 4 in
  let sync b =
    try Hashtbl.find syncs b
    with Not_found ->
      let s =
        {
          planned = Sim.Gate.create cfg.planners;
          start = Sim.Ivar.create ();
          exec_done = Sim.Gate.create cfg.executors;
          recovered = Sim.Ivar.create ();
          published = Sim.Gate.create cfg.executors;
          decision = Sim.Ivar.create ();
        }
      in
      Hashtbl.add syncs b s;
      s
  in
  (* Batch b's work.  A shared decision is made by planner 0 once the
     buffer frees; the other planners and executor 0 read it. *)
  let work_of ?(decide = false) s b =
    if local then next_work ?clients sh ~batches b
    else begin
      if decide then
        Sim.Ivar.fill sim s.decision (next_work ?clients sh ~batches b);
      Sim.Ivar.read sim s.decision
    end
  in
  (* Only a fixed-size run knows its end before deciding a batch. *)
  let may_run b = (not local) || b < batches in
  (* Planner threads (trace tids above the executor range). *)
  for p = 0 to cfg.planners - 1 do
    Sim.spawn sim (fun () ->
        let tid = cfg.executors + p in
        let rr = ref p in
        let rec loop b =
          if may_run b then begin
            (* The parity buffer for b is reusable once batch b-2 has been
               recovered and accounted. *)
            if b >= 2 then begin
              let t0 = Sim.now sim in
              Sim.Ivar.read sim (sync (b - 2)).recovered;
              m.Metrics.pipe_drain_stall <-
                m.Metrics.pipe_drain_stall + (Sim.now sim - t0)
            end;
            let s = sync b in
            let work = work_of ~decide:(p = 0) s b in
            Option.iter
              (fun w ->
                Sim.in_phase sim Sim.Ph_plan tid (fun () ->
                    plan_work sh ~streams ~parity:(b land 1) ~bno:b p w rr))
              work;
            Sim.Gate.arrive sim s.planned;
            if Option.is_some work then loop (b + 1)
          end
        in
        loop 0)
  done;
  (* Executor threads. *)
  for e = 0 to cfg.executors - 1 do
    Sim.spawn sim (fun () ->
        let st, ctx = new_executor sh e in
        let rec loop b =
          let s = sync b in
          let t0 = Sim.now sim in
          let go =
            if e > 0 then Sim.Ivar.read sim s.start
            else begin
              Sim.sync sim (* before the shared crash flag *);
              let go =
                may_run b
                && (not (Commit_point.crashed sh.cp))
                && begin
                     Sim.Gate.await sim s.planned;
                     Option.is_some (work_of s b)
                   end
              in
              (* batch_no is only read between start(b) and the end of
                 publish(b), so advancing it here cannot race the
                 planners: they never touch rows. *)
              if go then sh.batch_no <- b;
              Sim.Ivar.fill sim s.start go;
              go
            end
          in
          m.Metrics.pipe_fill_stall <-
            m.Metrics.pipe_fill_stall + (Sim.now sim - t0);
          if go then begin
            let parity = b land 1 in
            execute sh st ctx ~parity;
            Sim.Gate.arrive sim s.exec_done;
            let publish () =
              publish_own sh e;
              Sim.Gate.arrive sim s.published
            in
            if e = 0 then begin
              Sim.Gate.await sim s.exec_done;
              close_batch ?clients sh ~parity ~tid:e ~bno:b
                ~published:(fun () ->
                  Sim.Ivar.fill sim s.recovered ();
                  publish ();
                  Sim.Gate.await sim s.published);
              Hashtbl.remove syncs (b - 2)
            end
            else begin
              Sim.Ivar.read sim s.recovered;
              publish ()
            end;
            loop (b + 1)
          end
        in
        loop 0)
  done;
  cfg.planners + cfg.executors

let run ?sim ?clients ?recorder ?wal ?cdc ?crash_at cfg wl ~batches =
  assert (cfg.planners > 0 && cfg.executors > 0 && cfg.batch_size > 0);
  (match (crash_at, clients) with
  | Some _, Some _ ->
      invalid_arg
        "Quecc.Engine.run: crash faults and open-loop clients cannot be \
         combined (a crashed node strands the admission queue)"
  | _ -> ());
  (match cfg.split with Some t -> assert (t > 0) | None -> ());
  let sim = Sim.of_costs ?sim cfg.costs in
  let nbuf = if cfg.pipeline then 2 else 1 in
  (* A [parity].[planner].[executor] matrix, or none when [on] is off. *)
  let matrix ?(on = true) f =
    if on then
      Array.init nbuf (fun _ ->
          Array.init cfg.planners (fun _ ->
              Array.init cfg.executors (fun _ -> f ())))
    else [||]
  in
  let split_on = cfg.split <> None && cfg.executors > 1 in
  let rmap, vload =
    if cfg.repart then
      let nvp = cfg.executors * spread in
      ( Array.init 2 (fun _ -> Array.init nvp (fun vp -> vp / spread)),
        Array.init 2 (fun _ -> Array.make nvp 0) )
    else ([||], [||])
  in
  let sh =
    {
      cfg;
      sim;
      wl;
      db = wl.Workload.db;
      queues = matrix Vec.create;
      rts = Array.init nbuf (fun _ -> Array.make cfg.batch_size None);
      chain_starts = matrix ~on:split_on Vec.create;
      chain_joins = matrix ~on:split_on Vec.create;
      segs = matrix ~on:split_on Vec.create;
      rmap;
      vload;
      metrics = Metrics.create ();
      recorder;
      cp =
        Commit_point.create ?wal ?cdc ?crash_at ~slots:(cfg.executors + 1) sim
          wl.Workload.db;
      journal = Journal.create wl.Workload.db;
      batch_no = 0;
    }
  in
  if cfg.pipeline then begin
    sh.metrics.Metrics.pipe_fill_threads <- cfg.executors;
    sh.metrics.Metrics.pipe_drain_threads <- cfg.planners
  end;
  let streams =
    match clients with
    | Some _ -> [||]
    | None -> Array.init cfg.planners wl.Workload.new_stream
  in
  let nthreads =
    if cfg.pipeline then spawn_pipelined sim sh ?clients ~batches ~streams ()
    else spawn_lockstep sim sh ?clients ~batches ~streams ()
  in
  let parked =
    match recorder with
    | None -> Sim.run sim
    | Some log -> Alog.with_sim log sim (fun () -> Sim.run sim)
  in
  if parked <> 0 then
    failwith (Printf.sprintf "Quecc.Engine.run: %d threads deadlocked" parked);
  let m = sh.metrics in
  Metrics.record_sim m sim ~threads:nthreads;
  Commit_point.record sh.cp m;
  m
