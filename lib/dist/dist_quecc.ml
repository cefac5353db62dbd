open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Faults = Quill_faults.Faults
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

(* One queue entry: a fragment and its transaction's cross-node
   runtime. *)
type entry = { rt : Dist_rt.rt; frag : Fragment.t }

(* The engine's own message: one planner's queues for one node's
   executors, shipped as one message per batch (the Q-Store batching). *)
type ship = { batch : int; prio : int; qs : entry Vec.t array }

type shared = {
  cfg : cfg;
  d : ship Dist_rt.t;
  reg : (int * int * int, entry Vec.t Sim.Ivar.iv) Hashtbl.t;
      (* (batch, prio, executor gid) -> queue *)
  exec_done_b : Sim.Barrier.b array;       (* per node: executor rendezvous *)
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

let frag_part ~db ~parts (f : Fragment.t) =
  Db.home db f.Fragment.table f.Fragment.key mod parts

let get_reg sh batch prio egid = Dist_rt.get_iv sh.reg (batch, prio, egid)

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* The contiguous slot range owned by a node (union of its planners'
   slices; used whole by planner 0 in client mode). *)
let node_slot_range sh node =
  let slice gid = Dist_rt.slice sh.d ~parts:(p_global sh) gid in
  let start = fst (slice (node * sh.cfg.planners)) in
  let last, n = slice (((node + 1) * sh.cfg.planners) - 1) in
  (start, last + n - start)

let planner_thread sh node p stream =
  let d = sh.d in
  let costs = sh.cfg.costs in
  let gid = (node * sh.cfg.planners) + p in
  let plan_txn out b slot ?centry txn =
    let rt = Dist_rt.admit d ?centry txn in
    Dist_rt.set_slot d ~batch:b slot rt;
    Array.iter
      (fun (f : Fragment.t) ->
        Sim.tick d.sim costs.Costs.plan_fragment;
        Vec.push out.(frag_part ~db:d.db ~parts:(e_global sh) f)
          { rt; frag = f })
      (Quill_quecc.Engine.plan_order txn.Txn.frags)
  in
  let start, count = Dist_rt.slice d ~parts:(p_global sh) gid in
  let fill =
    match d.clients with
    | None ->
        fun out b ->
          for j = 0 to count - 1 do
            plan_txn out b (start + j) (stream ())
          done
    | Some c ->
        (* Client mode: exactly one planner per node (p = 0) closes each
           batch against the admission queue, owning the node's whole
           slot range.  A second blocking drainer would deadlock:
           executors sit on its unshipped queue ivars, so completions —
           the only thing that can exhaust the client layer — could never
           happen.  The other planners ship empty queues to keep the
           priority structure (and message counts) intact. *)
        let start, capacity = node_slot_range sh node in
        fun out b ->
          if p = 0 then
            Array.iteri
              (fun j (e : Clients.entry) ->
                plan_txn out b (start + j) ~centry:e e.Clients.txn)
              (Clients.drain c ~node ~max:capacity)
  in
  (* HA: stream this planner's freshly planned slice to the backups —
     the queues double as the replication log. *)
  let replicate b =
    match sh.rep with
    | Some r when not sh.halted ->
        let txns =
          Array.init count (fun j ->
              match d.slots.(b land 1).(start + j) with
              | Some rt -> rt.Dist_rt.txn
              | None -> assert false)
        in
        Replication.ship r ~batch:b ~part:gid txns
    | _ -> ()
  in
  (* Plan one batch and deliver the queues.  The staging array (queues
     destined for every executor gid) is allocated fresh per batch:
     local executors receive their queues by reference and keep them as
     the crash-replay log until the batch commits, so a pipelined
     planner must not reuse (or clear) a previous batch's vectors. *)
  let plan_batch b =
    Sim.set_phase d.sim Sim.Ph_plan;
    let out = Array.init (e_global sh) (fun _ -> Vec.create ()) in
    fill out b;
    (* Deliver queues: local ones directly, remote ones as one shipped
       message per destination node (the Q-Store batching). *)
    for dst = 0 to sh.cfg.nodes - 1 do
      if dst = node then
        for e = 0 to sh.cfg.executors - 1 do
          let egid = (dst * sh.cfg.executors) + e in
          Sim.tick d.sim costs.Costs.queue_op;
          (* An HA leader kill poisons every queue ivar with an empty
             queue; a planner caught mid-batch must not double-fill. *)
          Dist_rt.fill d (get_reg sh b gid egid) out.(egid)
        done
      else begin
        let qs =
          Array.init sh.cfg.executors (fun e ->
              Vec.of_array (Vec.to_array out.((dst * sh.cfg.executors) + e)))
        in
        let entries = Array.fold_left (fun acc q -> acc + Vec.length q) 0 qs in
        Net.send d.net ~src:node ~dst ~bytes:(32 * max 1 entries)
          (Dist_rt.Own { batch = b; prio = gid; qs })
      end
    done;
    Sim.set_phase d.sim Sim.Ph_other;
    replicate b
  in
  Dist_rt.plan_loop d ~node ~live:(fun () -> not sh.halted) plan_batch

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let exec_entry sh st ctx e =
  let costs = sh.cfg.costs in
  Sim.tick sh.d.sim costs.Costs.queue_op;
  if not (Dist_rt.step sh.d st ctx e.rt e.frag) then
    Sim.tick sh.d.sim costs.Costs.abort_cleanup

let executor_thread sh node e =
  let d = sh.d in
  let egid = (node * sh.cfg.executors) + e in
  (* Normal execution and crash replay share the partition's touched
     rows; only the replay context is quiet on the network. *)
  let touched = Vec.create () in
  let executor replay =
    let st, ctx = Dist_rt.executor ~replay d ~node touched in
    match sh.recorder with
    | None -> (st, ctx)
    | Some log -> (st, Quill_analysis.Access_log.wrap_exec_ctx log ctx)
  in
  let st, ctx = executor false and replay_st, replay_ctx = executor true in
  let nprio = p_global sh in
  (* Volatile batch state for recovery: the queues delivered so far and
     how many entries of each were completed.  The planned queues double
     as the redo log — after a crash, replaying the completed prefixes
     in priority order rebuilds exactly the pre-crash partition state. *)
  let qs : entry Vec.t option array = Array.make nprio None in
  let done_ = Array.make nprio 0 in
  let crashes = ref 0 in
  let replay () =
    for prio = 0 to nprio - 1 do
      match qs.(prio) with
      | None -> ()
      | Some q ->
          for i = 0 to done_.(prio) - 1 do
            exec_entry sh replay_st replay_ctx (Vec.get q i);
            d.metrics.Metrics.redone <- d.metrics.Metrics.redone + 1
          done
    done;
    if e = 0 then d.metrics.Metrics.crashes <- d.metrics.Metrics.crashes + 1
  in
  (* Crashes materialize at entry boundaries, where the phase is always
     execute. *)
  let check_crash () =
    Dist_rt.consume_crashes d ~node crashes ~touched ~replay;
    Sim.set_phase d.sim Sim.Ph_execute
  in
  (* One batch; returns the commit's stop decision. *)
  let exec_batch b =
    Sim.set_phase d.sim Sim.Ph_execute;
    Array.fill qs 0 nprio None;
    Array.fill done_ 0 nprio 0;
    for prio = 0 to nprio - 1 do
      check_crash ();
      let q = Dist_rt.await_work d sh.reg (b, prio, egid) in
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
      done
    done;
    Sim.set_phase d.sim Sim.Ph_other;
    (* Node-local rendezvous; the last executor reports to node 0. *)
    Sim.Barrier.await d.sim sh.exec_done_b.(node);
    if e = 0 then Dist_rt.report_done d ~node;
    Dist_rt.publish d ~node b touched
  in
  Dist_rt.batch_loop d exec_batch

(* ------------------------------------------------------------------ *)
(* Demultiplexer (per node): network thread                            *)
(* ------------------------------------------------------------------ *)

(* Node 0's commit step, wrapped in the HA gate: a killed leader
   commits nothing, and a batch commits only after every backup has
   received and speculatively executed it — so a leader crash can never
   lose a committed transaction, and a lagging backup backpressures the
   leader. *)
let commit sh () =
  let d = sh.d in
  if sh.halted then false
  else begin
    Option.iter
      (fun r -> Replication.await_acks r ~batch:d.batches_done)
      sh.rep;
    if sh.halted then
      (* killed while waiting on the ack gate: the batch is not
         accounted here — the failover finalizes it *)
      false
    else begin
      let committed b =
        Option.iter (fun r -> Replication.committed r ~batch:b) sh.rep
      in
      let stop = Dist_rt.commit d ~committed in
      if stop then Option.iter Replication.stop sh.rep;
      stop
    end
  end

let demux_thread sh node =
  Dist_rt.demux sh.d ~node
    ~own:(fun { batch; prio; qs } ->
      Array.iteri
        (fun e q ->
          let egid = (node * sh.cfg.executors) + e in
          Sim.Ivar.fill sh.d.sim (get_reg sh batch prio egid) q)
        qs)
    ~commit:(commit sh) ()

(* ------------------------------------------------------------------ *)

let run ?sim ?(faults = Faults.none) ?clients ?recorder cfg wl ~batches =
  assert (cfg.nodes > 0 && cfg.planners > 0 && cfg.executors > 0);
  let db = wl.Workload.db in
  if Db.nparts db <> cfg.nodes * cfg.executors then
    invalid_arg "Dist_quecc.run: db nparts must equal nodes * executors";
  let ha = cfg.replicas > 0 in
  let parts = cfg.nodes * cfg.executors in
  let d =
    (* An HA leader crash is fail-stop, not the transient crash-and-replay
       of the executor path: the reaper below kills the leader for good
       and the backups take over. *)
    Dist_rt.create ~name:"Dist_quecc.run" ?sim ~faults ?clients ~fail_stop:ha
      ~costs:cfg.costs ~nodes:cfg.nodes ~pipeline:cfg.pipeline
      ~batch_size:cfg.batch_size ~batches
      ~node_of:(fun f -> frag_part ~db ~parts f / cfg.executors)
      wl
  in
  if ha then begin
    (* The HA deployment replicates a single-node leader: the cluster's
       redundancy comes from the backups, not from sharding the leader.
       (Dist_rt.create's node check then forces any planned crash onto
       node 0.) *)
    if cfg.nodes <> 1 then
      invalid_arg "Dist_quecc.run: --replicas wants a single-node leader";
    if cfg.spec_lag < 1 then
      invalid_arg "Dist_quecc.run: spec_lag must be >= 1";
    if clients <> None then
      invalid_arg
        "Dist_quecc.run: replication does not compose with open-loop clients";
    if recorder <> None then
      invalid_arg
        "Dist_quecc.run: replication does not compose with the conflict \
         recorder";
    if List.length faults.Faults.crashes > 1 then
      invalid_arg "Dist_quecc.run: replication supports one leader crash"
  end;
  let sim = d.sim in
  let sh =
    {
      cfg;
      d;
      reg = Hashtbl.create 1024;
      exec_done_b =
        Array.init cfg.nodes (fun _ -> Sim.Barrier.create cfg.executors);
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
      let count gid = snd (Dist_rt.slice d ~parts:(p_global sh) gid) in
      Array.iteri
        (fun gid s ->
          for _ = 1 to first * count gid do
            ignore (s ())
          done)
        streams;
      let next = ref first in
      fun () ->
        assert (!next < batches);
        incr next;
        Array.concat
          (List.init (p_global sh) (fun gid ->
               Array.init (count gid) (fun _ ->
                   let txn = Txn.admit sim cfg.costs streams.(gid) in
                   Array.iter
                     (fun (_ : Fragment.t) ->
                       Sim.tick sim cfg.costs.Costs.plan_fragment)
                     txn.Txn.frags;
                   txn)))
    in
    let rep =
      Replication.create ~sim ~costs:cfg.costs ~wl ~replicas:cfg.replicas
        ~spec_lag:cfg.spec_lag ~slices:(p_global sh) ~total_batches:batches
        ~metrics:d.metrics
        ~halted:(fun () -> sh.halted)
        ~committed_batches:(fun () -> d.batches_done)
        ~replan ()
    in
    sh.rep <- Some rep;
    Replication.spawn rep;
    (* The reaper: at the planned crash time, fail-stop the leader.
       [halted] is set first, then every synchronization point a leader
       thread could be parked on is poisoned (all fills are
       is-full-guarded, and accounting is yield-free, so the guarded
       re-checks in the planner/demux paths are race-free). *)
    List.iter
      (fun (c : Faults.crash) ->
        Sim.spawn ~at:c.Faults.at sim (fun () ->
            sh.halted <- true;
            d.metrics.Metrics.crashes <- d.metrics.Metrics.crashes + 1;
            for b = 0 to batches - 1 do
              for prio = 0 to p_global sh - 1 do
                for egid = 0 to e_global sh - 1 do
                  Dist_rt.fill d (get_reg sh b prio egid) (Vec.create ())
                done
              done;
              Dist_rt.fill d (Dist_rt.get_iv d.commits (b, 0)) true
            done;
            Array.iter
              (Array.iter (function
                | None -> ()
                | Some (rt : Dist_rt.rt) ->
                    Array.iter
                      (Array.iter (fun iv -> Dist_rt.fill d iv 0))
                      rt.inputs;
                    Array.iter (fun iv -> Dist_rt.fill d iv ()) rt.resolved))
              d.slots;
            Net.send d.net ~src:0 ~dst:0 ~bytes:8 Dist_rt.Stop;
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
      Sim.spawn sim (fun () -> planner_thread sh node p stream)
    done;
    for e = 0 to cfg.executors - 1 do
      Sim.spawn sim (fun () -> executor_thread sh node e)
    done;
    Sim.spawn sim (fun () -> demux_thread sh node)
  done;
  let m =
    Dist_rt.run ?recorder d
      ~threads:
        ((cfg.nodes * (cfg.planners + cfg.executors + 1))
        + match sh.rep with Some r -> Replication.threads r | None -> 0)
      (* fill stalls accumulate in executor threads, drain stalls in
         planner threads *)
      ~fill_threads:(cfg.nodes * cfg.executors)
      ~drain_threads:(cfg.nodes * cfg.planners)
  in
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
