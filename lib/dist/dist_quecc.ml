open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Faults = Quill_faults.Faults
module Trace = Quill_trace.Trace
module Clients = Quill_clients.Clients

type cfg = {
  nodes : int;
  planners : int;
  executors : int;
  batch_size : int;
  costs : Costs.t;
  pipeline : bool;
  replicas : int;
  spec_lag : int;
}

let default_cfg =
  { nodes = 4; planners = 2; executors = 2; batch_size = 2048;
    costs = Costs.default; pipeline = false; replicas = 0; spec_lag = 1 }

(* Distributed per-batch transaction runtime. *)
type drt = {
  txn : Txn.t;
  bidx : int;
  inputs : int Sim.Ivar.iv array array;    (* [fid].[dep_idx] *)
  producers : (int * int Sim.Ivar.iv) list array; (* [fid] -> (node, iv) *)
  resolved : unit Sim.Ivar.iv array;       (* per node *)
  aborted_local : bool array;              (* per node view *)
  participants : int list;
  mutable pending_aborters : int;
  mutable aborted : bool;                  (* authoritative (coordinator) *)
  centry : Clients.entry option;           (* admission provenance *)
}

(* [voted] makes the abort-resolution vote idempotent: queue replay
   after a crash re-executes entries whose vote already reached the
   coordinator, and a second [resolve_arrive] would corrupt the
   pending-aborters count. *)
type entry = { rt : drt; frag : Fragment.t; mutable voted : bool }

type msg =
  | Ship of { batch : int; prio : int; qs : entry Vec.t array }
  | Fill of { iv : int Sim.Ivar.iv; v : int }
  | Resolve of { rt : drt; aborted : bool }
  | Exec_done
  | Commit_batch of { batch : int; stop : bool }
      (* [stop] piggybacks the run-termination decision on the commit
         broadcast, so every node learns "no further batch" at a
         deterministic point (client mode: the client layer is
         exhausted; closed loop: the batch quota is reached). *)
  | Stop

type shared = {
  cfg : cfg;
  sim : Sim.t;
  wl : Workload.t;
  db : Db.t;
  net : msg Net.t;
  reg : (int * int * int, entry Vec.t Sim.Ivar.iv) Hashtbl.t;
      (* (batch, prio, executor gid) -> queue *)
  commits : (int * int, bool Sim.Ivar.iv) Hashtbl.t;
      (* (batch, node) -> commit signal carrying the stop decision *)
  rts : drt option array array;            (* [batch parity].[slot] *)
      (* Two buffers of global batch slots: with [pipeline], planners
         fill batch [b+1]'s slots while the demux still owns batch
         [b]'s for accounting; the parity index keeps them apart.
         Planning of [b] is gated on the commit of [b-2], so at most
         two batches of runtimes are ever live. *)
  touched : Row.t Vec.t array;             (* per executor gid *)
  crash_plan : Faults.crash array array;   (* per node, sorted by time *)
  metrics : Metrics.t;
  exec_done_b : Sim.Barrier.b array;       (* per node: executor rendezvous *)
  mutable done_count : int;                (* node 0: Exec_done received *)
  mutable batches_done : int;
  total_batches : int;
  clients : Clients.t option;
  recorder : Quill_analysis.Access_log.t option;
      (* conflict-detector access log (--check-conflicts) *)
  mutable rep : Replication.t option;      (* HA: cfg.replicas > 0 *)
  mutable halted : bool;
      (* HA leader killed by the fault plan.  Set before any poisoning,
         so every guarded protocol step observes it; the dead leader's
         threads then fast-forward through poisoned synchronization and
         exit without accounting further batches. *)
}

let p_global sh = sh.cfg.nodes * sh.cfg.planners
let e_global sh = sh.cfg.nodes * sh.cfg.executors
let node_of_part sh part = part / sh.cfg.executors

let frag_part sh (f : Fragment.t) =
  Db.home sh.db f.Fragment.table f.Fragment.key mod e_global sh

let get_iv tbl key =
  match Hashtbl.find_opt tbl key with
  | Some iv -> iv
  | None ->
      let iv = Sim.Ivar.create () in
      Hashtbl.replace tbl key iv;
      iv

let get_reg sh batch prio egid = get_iv sh.reg (batch, prio, egid)
let get_commit sh batch node = get_iv sh.commits (batch, node)

(* ------------------------------------------------------------------ *)
(* Abort / resolution coordination                                     *)
(* ------------------------------------------------------------------ *)

let broadcast_resolution sh ~self rt aborted =
  List.iter
    (fun n ->
      if n = self then begin
        if aborted then rt.aborted_local.(n) <- true;
        if not (Sim.Ivar.is_full rt.resolved.(n)) then
          Sim.Ivar.fill sh.sim rt.resolved.(n) ()
      end
      else Net.send sh.net ~src:self ~dst:n ~bytes:16 (Resolve { rt; aborted }))
    rt.participants

let resolve_arrive sh ~self rt =
  rt.pending_aborters <- rt.pending_aborters - 1;
  if rt.pending_aborters = 0 && not rt.aborted then
    broadcast_resolution sh ~self rt false

let do_abort sh ~self rt =
  if not rt.aborted then begin
    rt.aborted <- true;
    rt.txn.Txn.status <- Txn.Aborted;
    broadcast_resolution sh ~self rt true;
    (* Unblock same-txn consumers; conservative gating keeps garbage out
       of the database. *)
    Array.iter
      (fun ivs ->
        Array.iter
          (fun iv -> if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv 0)
          ivs)
      rt.inputs
  end

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

let make_drt ?centry sh txn bidx =
  let n = Array.length txn.Txn.frags in
  let inputs =
    Array.map
      (fun (f : Fragment.t) ->
        Array.map (fun _ -> Sim.Ivar.create ()) f.Fragment.data_deps)
      txn.Txn.frags
  in
  let producers = Array.make n [] in
  Array.iteri
    (fun fid (f : Fragment.t) ->
      let consumer_node = node_of_part sh (frag_part sh f) in
      Array.iteri
        (fun i d ->
          producers.(d) <- (consumer_node, inputs.(fid).(i)) :: producers.(d))
        f.Fragment.data_deps)
    txn.Txn.frags;
  let participants =
    let seen = Array.make sh.cfg.nodes false in
    Array.iter
      (fun f -> seen.(node_of_part sh (frag_part sh f)) <- true)
      txn.Txn.frags;
    let acc = ref [] in
    for i = sh.cfg.nodes - 1 downto 0 do
      if seen.(i) then acc := i :: !acc
    done;
    !acc
  in
  txn.Txn.status <- Txn.Active;
  {
    txn;
    bidx;
    inputs;
    producers;
    resolved = Array.init sh.cfg.nodes (fun _ -> Sim.Ivar.create ());
    aborted_local = Array.make sh.cfg.nodes false;
    participants;
    pending_aborters = txn.Txn.n_abortable;
    aborted = false;
    centry;
  }

let slice_bounds sh gid =
  let planners = p_global sh in
  let base = sh.cfg.batch_size / planners
  and rem = sh.cfg.batch_size mod planners in
  let start = (gid * base) + min gid rem in
  (start, base + if gid < rem then 1 else 0)

let plan_order = Quill_quecc.Engine.plan_order_for_dist

(* The contiguous [rts] slot range owned by a node (union of its
   planners' slices; used whole by planner 0 in client mode). *)
let node_slot_range sh node =
  let start = fst (slice_bounds sh (node * sh.cfg.planners)) in
  let stop =
    if node = sh.cfg.nodes - 1 then sh.cfg.batch_size
    else fst (slice_bounds sh ((node + 1) * sh.cfg.planners))
  in
  (start, stop - start)

let planner_thread sh node p stream batches =
  let costs = sh.cfg.costs in
  let gid = (node * sh.cfg.planners) + p in
  let plan_txn out parity start j txn centry =
    Sim.tick sh.sim costs.Costs.txn_overhead;
    txn.Txn.submit_time <- Sim.now sh.sim;
    txn.Txn.attempts <- txn.Txn.attempts + 1;
    let rt = make_drt ?centry sh txn (start + j) in
    sh.rts.(parity).(start + j) <- Some rt;
    Array.iter
      (fun (f : Fragment.t) ->
        Sim.tick sh.sim costs.Costs.plan_fragment;
        Vec.push out.(frag_part sh f) { rt; frag = f; voted = false })
      (plan_order txn.Txn.frags)
  in
  (* Plan one batch via [fill] and deliver the queues.  The staging
     array (queues destined for every executor gid) is allocated fresh
     per batch: local executors receive their queues by reference and
     keep them as the crash-replay log until the batch commits, so a
     pipelined planner must not reuse (or clear) a previous batch's
     vectors. *)
  let plan_batch b fill =
    Sim.set_phase sh.sim Sim.Ph_plan;
    let out = Array.init (e_global sh) (fun _ -> Vec.create ()) in
    fill out (b land 1);
    (* Deliver queues: local ones directly, remote ones as one shipped
       message per destination node (the Q-Store batching). *)
    for dst = 0 to sh.cfg.nodes - 1 do
      if dst = node then
        for e = 0 to sh.cfg.executors - 1 do
          let egid = (dst * sh.cfg.executors) + e in
          Sim.tick sh.sim costs.Costs.queue_op;
          (* An HA leader kill poisons every queue ivar with an empty
             queue; a planner caught mid-batch must not double-fill. *)
          let iv = get_reg sh b gid egid in
          if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv out.(egid)
        done
      else begin
        let qs =
          Array.init sh.cfg.executors (fun e ->
              let egid = (dst * sh.cfg.executors) + e in
              let copy = Vec.of_array (Vec.to_array out.(egid)) in
              copy)
        in
        let entries =
          Array.fold_left (fun acc q -> acc + Vec.length q) 0 qs
        in
        Net.send sh.net ~src:node ~dst ~bytes:(32 * max 1 entries)
          (Ship { batch = b; prio = gid; qs })
      end
    done;
    Sim.set_phase sh.sim Sim.Ph_other
  in
  let await_commit b = Sim.Ivar.read sh.sim (get_commit sh b node) in
  match sh.clients with
  | None ->
      let start, count = slice_bounds sh gid in
      let fill out parity =
        for j = 0 to count - 1 do
          plan_txn out parity start j (stream ()) None
        done
      in
      (* HA: stream this planner's freshly planned slice to the backups
         — the queues double as the replication log. *)
      let replicate b =
        match sh.rep with
        | Some r when not sh.halted ->
            let txns =
              Array.init count (fun j ->
                  match sh.rts.(b land 1).(start + j) with
                  | Some rt -> rt.txn
                  | None -> assert false)
            in
            Replication.ship r ~batch:b ~part:gid txns
        | _ -> ()
      in
      if sh.cfg.pipeline then
        (* Lag-1 pipelining: plan batch [b] as soon as batch [b-2]
           committed, overlapping planning of [b] with execution of
           [b-1].  Exactly two batches of runtimes are live at once —
           what the parity-indexed [rts] buffers hold.  The time spent
           blocked on that lagged commit is the pipeline backing up
           (execution slower than planning). *)
        for b = 0 to batches - 1 do
          if not sh.halted then begin
            if b >= 2 then begin
              let t0 = Sim.now sh.sim in
              ignore (await_commit (b - 2));
              sh.metrics.Metrics.pipe_drain_stall <-
                sh.metrics.Metrics.pipe_drain_stall + (Sim.now sh.sim - t0)
            end;
            if not sh.halted then begin
              plan_batch b fill;
              replicate b
            end
          end
        done
      else
        for b = 0 to batches - 1 do
          if not sh.halted then begin
            plan_batch b fill;
            replicate b;
            ignore (await_commit b)
          end
        done
  | Some c ->
      (* Client mode: exactly one planner per node (p = 0) closes each
         batch against the admission queue, owning the node's whole slot
         range.  A second blocking drainer would deadlock: executors sit
         on its unshipped queue ivars, so completions — the only thing
         that can exhaust the client layer — could never happen.  The
         other planners ship empty queues to keep the priority structure
         (and message counts) intact.

         The loop stays sequential even with [pipeline] set: a batch can
         only close against arrivals admitted after the previous batch's
         completions ran, and the stop decision rides on that batch's
         commit — planning ahead would change admission order. *)
      let start, capacity = node_slot_range sh node in
      let rec loop b =
        plan_batch b (fun out parity ->
            if p = 0 then
              Array.iteri
                (fun j (e : Clients.entry) ->
                  plan_txn out parity start j e.Clients.txn (Some e))
                (Clients.drain c ~node ~max:capacity));
        if not (await_commit b) then loop (b + 1)
      in
      loop 0

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type est = {
  node : int;
  egid : int;
  mutable cur_rt : drt option;
  mutable cur_frag : Fragment.t option;
  cur : Direct.cursor;
  mutable replaying : bool;  (* re-executing queues during recovery *)
}

let make_ctx sh st =
  let costs = sh.cfg.costs in
  let the_rt () =
    match st.cur_rt with Some rt -> rt | None -> assert false
  in
  let cur = st.cur in
  let read (_ : Fragment.t) field =
    Sim.tick sh.sim costs.Costs.row_read;
    if cur.found then cur.row.Row.data.(field) else 0
  in
  let write _frag field v =
    Sim.tick sh.sim costs.Costs.row_write;
    if cur.found then begin
      let row = cur.row in
      if not row.Row.dirty then begin
        row.Row.dirty <- true;
        Vec.push sh.touched.(st.egid) row
      end;
      row.Row.data.(field) <- v
    end
  in
  let add frag field d = write frag field (read frag field + d) in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick sh.sim costs.Costs.index_insert;
    let tbl = Db.table sh.db frag.Fragment.table in
    (* Inserts publish immediately and survive the crash; replaying one
       verbatim would raise on the duplicate key. *)
    if not (st.replaying && Table.find tbl key <> None) then begin
      let home = Db.home sh.db frag.Fragment.table frag.Fragment.key in
      ignore (Table.insert tbl ~home ~key payload)
    end
  in
  let input producer_fid =
    let rt = the_rt () in
    let frag =
      match st.cur_frag with Some f -> f | None -> assert false
    in
    (* Find which of this fragment's dependencies points at the producer;
       its input ivar carries the value (locally or via a Fill message). *)
    let deps = frag.Fragment.data_deps in
    let rec find i =
      if i >= Array.length deps then assert false
      else if deps.(i) = producer_fid then i
      else find (i + 1)
    in
    Sim.Ivar.read sh.sim rt.inputs.(frag.Fragment.fid).(find 0)
  in
  let output fid v =
    let rt = the_rt () in
    List.iter
      (fun (dst, iv) ->
        if dst = st.node then begin
          if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv v
        end
        else Net.send sh.net ~src:st.node ~dst ~bytes:16 (Fill { iv; v }))
      rt.producers.(fid)
  in
  let found _ = cur.found in
  { Exec.read; write; add; insert; input; output; found }

let exec_entry sh st ctx e =
  let { rt; frag; _ } = e in
  let costs = sh.cfg.costs in
  Sim.tick sh.sim costs.Costs.queue_op;
  if rt.aborted_local.(st.node) then Sim.tick sh.sim costs.Costs.abort_cleanup
  else begin
    if frag.Fragment.commit_dep && not (Sim.Ivar.is_full rt.resolved.(st.node))
    then Sim.Ivar.read sh.sim rt.resolved.(st.node);
    if rt.aborted_local.(st.node) then
      Sim.tick sh.sim costs.Costs.abort_cleanup
    else begin
      st.cur_rt <- Some rt;
      st.cur_frag <- Some frag;
      match
        Direct.step sh.sim costs sh.wl ctx st.cur ~locate:(Direct.find sh.db)
          rt.txn frag
      with
      | Exec.Ok ->
          if frag.Fragment.abortable && not e.voted then begin
            e.voted <- true;
            resolve_arrive sh ~self:st.node rt
          end
      | Exec.Abort -> do_abort sh ~self:st.node rt
      | Exec.Blocked -> assert false
    end
  end

let executor_thread sh node e batches =
  let egid = (node * sh.cfg.executors) + e in
  let st = { node; egid; cur_rt = None; cur_frag = None;
             cur = Direct.cursor (); replaying = false } in
  let ctx =
    match sh.recorder with
    | None -> make_ctx sh st
    | Some log -> Quill_analysis.Access_log.wrap_exec_ctx log (make_ctx sh st)
  in
  let nprio = p_global sh in
  (* Volatile batch state for recovery: the queues delivered so far and
     how many entries of each were completed.  The planned queues double
     as the redo log — after a crash, replaying the completed prefixes
     in priority order rebuilds exactly the pre-crash partition state. *)
  let qs : entry Vec.t option array = Array.make nprio None in
  let done_ = Array.make nprio 0 in
  let crashes = sh.crash_plan.(node) in
  let crash_idx = ref 0 in
  (* Consume every planned crash whose time has passed.  Crashes
     materialize at entry boundaries: the executor rolls its partition
     back to the last published batch, sits out the downtime, pays the
     reboot cost, and re-executes the completed queue prefixes. *)
  let check_crash () =
    while
      !crash_idx < Array.length crashes
      && crashes.(!crash_idx).Faults.at <= Sim.now sh.sim
    do
      let c = crashes.(!crash_idx) in
      incr crash_idx;
      Sim.in_phase sh.sim Sim.Ph_recover (Sim.current_tid sh.sim) (fun () ->
          Vec.iter Row.revert sh.touched.(egid);
          Vec.clear sh.touched.(egid);
          let restart = c.Faults.at + c.Faults.down in
          if restart > Sim.now sh.sim then
            Sim.sleep sh.sim (restart - Sim.now sh.sim);
          Sim.tick sh.sim sh.cfg.costs.Costs.crash_reboot;
          st.replaying <- true;
          for prio = 0 to nprio - 1 do
            match qs.(prio) with
            | None -> ()
            | Some q ->
                for i = 0 to done_.(prio) - 1 do
                  exec_entry sh st ctx (Vec.get q i);
                  sh.metrics.Metrics.redone <- sh.metrics.Metrics.redone + 1
                done
          done;
          st.replaying <- false;
          if e = 0 then
            sh.metrics.Metrics.crashes <- sh.metrics.Metrics.crashes + 1);
      Sim.set_phase sh.sim Sim.Ph_execute
    done
  in
  (* One batch; returns the commit's stop decision. *)
  let exec_batch b =
    Sim.set_phase sh.sim Sim.Ph_execute;
    Array.fill qs 0 nprio None;
    Array.fill done_ 0 nprio 0;
    for prio = 0 to nprio - 1 do
      check_crash ();
      let t0 = Sim.now sh.sim in
      let q = Sim.Ivar.read sh.sim (get_reg sh b prio egid) in
      (* In a pipelined run, waiting on a queue ivar means the pipeline
         ran dry (planning/shipping slower than execution). *)
      if sh.cfg.pipeline then
        sh.metrics.Metrics.pipe_fill_stall <-
          sh.metrics.Metrics.pipe_fill_stall + (Sim.now sh.sim - t0);
      qs.(prio) <- Some q;
      for i = 0 to Vec.length q - 1 do
        check_crash ();
        (match sh.recorder with
        | None -> ()
        | Some log ->
            (* no stealing in the distributed engine: owner = thread *)
            Quill_analysis.Access_log.set_slot log ~thread:egid ~owner:egid
              ~prio ~subseq:(-1) ~pos:i ~batch:b);
        exec_entry sh st ctx (Vec.get q i);
        done_.(prio) <- i + 1
      done;
      Hashtbl.remove sh.reg (b, prio, egid)
    done;
    Sim.set_phase sh.sim Sim.Ph_other;
    (* Node-local rendezvous; the last executor reports to node 0. *)
    Sim.Barrier.await sh.sim sh.exec_done_b.(node);
    if e = 0 then Net.send sh.net ~src:node ~dst:0 ~bytes:8 Exec_done;
    let stop = Sim.Ivar.read sh.sim (get_commit sh b node) in
    (* Publish committed state for this executor's rows. *)
    Sim.set_phase sh.sim Sim.Ph_publish;
    Vec.iter Row.publish sh.touched.(egid);
    Vec.clear sh.touched.(egid);
    Sim.set_phase sh.sim Sim.Ph_other;
    stop
  in
  match sh.clients with
  | None -> for b = 0 to batches - 1 do ignore (exec_batch b) done
  | Some _ ->
      let rec loop b = if not (exec_batch b) then loop (b + 1) in
      loop 0

(* ------------------------------------------------------------------ *)
(* Demultiplexer (per node): network thread                            *)
(* ------------------------------------------------------------------ *)

let account sh ~parity =
  let now = Sim.now sh.sim in
  let rts = sh.rts.(parity) in
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some rt ->
          rt.txn.Txn.finish_time <- now;
          (match rt.txn.Txn.status with
          | Txn.Aborted ->
              sh.metrics.Metrics.logic_aborted <-
                sh.metrics.Metrics.logic_aborted + 1
          | Txn.Active | Txn.Committed ->
              rt.txn.Txn.status <- Txn.Committed;
              sh.metrics.Metrics.committed <- sh.metrics.Metrics.committed + 1
          | Txn.Pending -> assert false);
          Stats.Hist.add sh.metrics.Metrics.lat
            (now - rt.txn.Txn.submit_time);
          (match (sh.clients, rt.centry) with
          | Some c, Some ce ->
              Clients.complete c ce ~ok:(rt.txn.Txn.status = Txn.Committed)
          | _ -> ());
          rts.(i) <- None)
    rts;
  sh.metrics.Metrics.batches <- sh.metrics.Metrics.batches + 1

let demux_thread sh node =
  let rec loop () =
    match Net.recv sh.net ~node with
    | Ship { batch; prio; qs } ->
        Array.iteri
          (fun e q ->
            let egid = (node * sh.cfg.executors) + e in
            Sim.Ivar.fill sh.sim (get_reg sh batch prio egid) q)
          qs;
        loop ()
    | Fill { iv; v } ->
        if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv v;
        loop ()
    | Resolve { rt; aborted } ->
        if aborted then rt.aborted_local.(node) <- true;
        if not (Sim.Ivar.is_full rt.resolved.(node)) then
          Sim.Ivar.fill sh.sim rt.resolved.(node) ();
        loop ()
    | Exec_done ->
        assert (node = 0);
        if sh.halted then loop ()
        else begin
          sh.done_count <- sh.done_count + 1;
          if sh.done_count = sh.cfg.nodes then begin
            sh.done_count <- 0;
            let b = sh.batches_done in
            (* HA commit gate: a batch commits only after every backup
               has received and speculatively executed it — so a leader
               crash can never lose a committed transaction, and a
               lagging backup backpressures the leader. *)
            (match sh.rep with
            | Some r -> Replication.await_acks r ~batch:b
            | None -> ());
            if sh.halted then
              (* killed while waiting on the ack gate: the batch is not
                 accounted here — the failover finalizes it *)
              loop ()
            else begin
              account sh ~parity:(b land 1);
              sh.batches_done <- b + 1;
              (match sh.rep with
              | Some r -> Replication.committed r ~batch:b
              | None -> ());
              (* The stop decision is made here, after accounting, where
                 it is monotone-stable: client exhaustion means every
                 offered transaction is finally resolved (retries are
                 scheduled before [complete] returns), so no further
                 batch can form. *)
              let stop =
                match sh.clients with
                | None -> sh.batches_done = sh.total_batches
                | Some c -> Clients.exhausted c
              in
              for dst = 0 to sh.cfg.nodes - 1 do
                if dst = 0 then begin
                  (* the commit-marker send above may yield into an HA
                     leader kill, which poisons commit ivars *)
                  let iv = get_commit sh b 0 in
                  if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv stop
                end
                else
                  Net.send sh.net ~src:0 ~dst ~bytes:8
                    (Commit_batch { batch = b; stop })
              done;
              if stop then begin
                for dst = 0 to sh.cfg.nodes - 1 do
                  if dst = 0 then ()
                  else Net.send sh.net ~src:0 ~dst ~bytes:8 Stop
                done;
                match sh.rep with
                | Some r -> Replication.stop r
                | None -> ()
              end
              else loop ()
            end
          end
          else loop ()
        end
    | Commit_batch { batch = b; stop } ->
        Sim.Ivar.fill sh.sim (get_commit sh b node) stop;
        loop ()
    | Stop -> ()
  in
  loop ()

(* ------------------------------------------------------------------ *)

let run ?sim ?(faults = Faults.none) ?clients ?recorder cfg wl ~batches =
  assert (cfg.nodes > 0 && cfg.planners > 0 && cfg.executors > 0);
  let db = wl.Workload.db in
  if Db.nparts db <> cfg.nodes * cfg.executors then
    invalid_arg "Dist_quecc.run: db nparts must equal nodes * executors";
  Faults.check_nodes faults ~nodes:cfg.nodes ~name:"Dist_quecc.run";
  if cfg.replicas > 0 then begin
    (* The HA deployment replicates a single-node leader: the cluster's
       redundancy comes from the backups, not from sharding the leader.
       (check_nodes above then forces any planned crash onto node 0.) *)
    if cfg.nodes <> 1 then
      invalid_arg "Dist_quecc.run: --replicas wants a single-node leader";
    if cfg.spec_lag < 1 then
      invalid_arg "Dist_quecc.run: spec_lag must be >= 1";
    (match clients with
    | Some _ ->
        invalid_arg
          "Dist_quecc.run: replication does not compose with open-loop \
           clients"
    | None -> ());
    (match recorder with
    | Some _ ->
        invalid_arg
          "Dist_quecc.run: replication does not compose with the conflict \
           recorder"
    | None -> ());
    if List.length faults.Faults.crashes > 1 then
      invalid_arg "Dist_quecc.run: replication supports one leader crash"
  end;
  let ha = cfg.replicas > 0 in
  let frt = if Faults.active faults then Some (Faults.make faults) else None in
  let sim =
    match sim with
    | Some s -> s
    | None -> Sim.create ~wake_cost:cfg.costs.Costs.wakeup ()
  in
  let sh =
    {
      cfg;
      sim;
      wl;
      db;
      net = Net.create ?faults:frt sim cfg.costs ~nodes:cfg.nodes;
      reg = Hashtbl.create 1024;
      commits = Hashtbl.create 64;
      rts = Array.init 2 (fun _ -> Array.make cfg.batch_size None);
      touched =
        Array.init (cfg.nodes * cfg.executors) (fun _ -> Vec.create ());
      crash_plan =
        (* An HA leader crash is fail-stop, not the transient
           crash-and-replay of the executor path: the reaper below kills
           the leader for good and the backups take over. *)
        (if ha then Array.init cfg.nodes (fun _ -> [||])
         else Array.init cfg.nodes (fun n -> Faults.crashes_for faults ~node:n));
      metrics = Metrics.create ();
      exec_done_b = Array.init cfg.nodes (fun _ -> Sim.Barrier.create cfg.executors);
      done_count = 0;
      batches_done = 0;
      total_batches = batches;
      clients;
      recorder;
      rep = None;
      halted = false;
    }
  in
  if ha then begin
    (* Deterministic re-planning for failover: re-draw every planner
       stream from its seed, fast-forward past the batches the dead
       leader already planned, and yield successive whole batches in
       global batch-slot order — the exact transactions the dead leader
       would have planned (exact for generators that do not read the
       database while generating, i.e. YCSB; see DESIGN.md). *)
    let replan ~first =
      let streams =
        Array.init (p_global sh) (fun gid -> wl.Workload.new_stream gid)
      in
      Array.iteri
        (fun gid s ->
          let _, count = slice_bounds sh gid in
          for _ = 1 to first * count do
            ignore (s ())
          done)
        streams;
      let next = ref first in
      fun () ->
        assert (!next < batches);
        incr next;
        Array.concat
          (List.init (p_global sh) (fun gid ->
               let _, count = slice_bounds sh gid in
               Array.init count (fun _ ->
                   Sim.tick sh.sim cfg.costs.Costs.txn_overhead;
                   let txn = streams.(gid) () in
                   txn.Txn.submit_time <- Sim.now sh.sim;
                   txn.Txn.attempts <- txn.Txn.attempts + 1;
                   Array.iter
                     (fun (_ : Fragment.t) ->
                       Sim.tick sh.sim cfg.costs.Costs.plan_fragment)
                     txn.Txn.frags;
                   txn)))
    in
    let rep =
      Replication.create ~sim ~costs:cfg.costs ~wl ~replicas:cfg.replicas
        ~spec_lag:cfg.spec_lag ~slices:(p_global sh) ~total_batches:batches
        ~metrics:sh.metrics
        ~halted:(fun () -> sh.halted)
        ~committed_batches:(fun () -> sh.batches_done)
        ~replan ()
    in
    sh.rep <- Some rep;
    Replication.spawn rep;
    (* The reaper: at the planned crash time, fail-stop the leader.
       [halted] is set first, then every synchronization point a leader
       thread could be parked on is poisoned (all fills are
       is-full-guarded, and [account] is yield-free, so the guarded
       re-checks in the planner/demux paths are race-free). *)
    List.iter
      (fun (c : Faults.crash) ->
        Sim.spawn ~at:c.Faults.at sim (fun () ->
            sh.halted <- true;
            sh.metrics.Metrics.crashes <- sh.metrics.Metrics.crashes + 1;
            for b = 0 to batches - 1 do
              for prio = 0 to p_global sh - 1 do
                for egid = 0 to e_global sh - 1 do
                  let iv = get_reg sh b prio egid in
                  if not (Sim.Ivar.is_full iv) then
                    Sim.Ivar.fill sim iv (Vec.create ())
                done
              done;
              let civ = get_commit sh b 0 in
              if not (Sim.Ivar.is_full civ) then Sim.Ivar.fill sim civ true
            done;
            Array.iter
              (fun slots ->
                Array.iter
                  (function
                    | None -> ()
                    | Some rt ->
                        Array.iter
                          (Array.iter (fun iv ->
                               if not (Sim.Ivar.is_full iv) then
                                 Sim.Ivar.fill sim iv 0))
                          rt.inputs;
                        Array.iter
                          (fun iv ->
                            if not (Sim.Ivar.is_full iv) then
                              Sim.Ivar.fill sim iv ())
                          rt.resolved)
                  slots)
              sh.rts;
            Net.send sh.net ~src:0 ~dst:0 ~bytes:8 Stop;
            Replication.kill_leader rep))
      faults.Faults.crashes
  end;
  for node = 0 to cfg.nodes - 1 do
    for p = 0 to cfg.planners - 1 do
      let stream =
        match clients with
        | Some _ -> fun () -> assert false (* arrivals come from clients *)
        | None -> wl.Workload.new_stream ((node * cfg.planners) + p)
      in
      Sim.spawn sim (fun () -> planner_thread sh node p stream batches)
    done;
    for e = 0 to cfg.executors - 1 do
      Sim.spawn sim (fun () -> executor_thread sh node e batches)
    done;
    Sim.spawn sim (fun () -> demux_thread sh node)
  done;
  let parked =
    match recorder with
    | None -> Sim.run sim
    | Some log ->
        Quill_analysis.Access_log.with_sim log sim (fun () -> Sim.run sim)
  in
  if parked <> 0 then
    failwith (Printf.sprintf "Dist_quecc.run: %d threads deadlocked" parked);
  let m = sh.metrics in
  Metrics.record_sim m sim
    ~threads:
      ((cfg.nodes * (cfg.planners + cfg.executors + 1))
      + match sh.rep with Some r -> Replication.threads r | None -> 0);
  if cfg.pipeline then begin
    (* fill stalls accumulate in executor threads, drain stalls in
       planner threads; recording the contributor counts makes the
       per-thread stall averages engine-comparable *)
    m.Metrics.pipe_fill_threads <- cfg.nodes * cfg.executors;
    m.Metrics.pipe_drain_threads <- cfg.nodes * cfg.planners
  end;
  m.Metrics.msgs <- Net.messages_sent sh.net;
  m.Metrics.msg_retries <- Net.messages_retried sh.net;
  m.Metrics.msg_dup_drops <- Net.duplicates_dropped sh.net;
  m.Metrics.msg_bytes <- Net.bytes_sent sh.net;
  m.Metrics.msg_dups_sent <- Net.duplicates_sent sh.net;
  (match sh.rep with
  | None -> ()
  | Some r ->
      (* folds the replication net's traffic on top of the main net's *)
      Replication.record r;
      if Replication.failed_over r then
        (* The harness database is the dead leader's; the surviving
           state of record is the elected backup's replica.  Syncing it
           back makes [Db.checksum] — and every state assertion built on
           it — observe the replicated outcome. *)
        Db.overwrite_from ~src:(Replication.winner_db r) db);
  m
