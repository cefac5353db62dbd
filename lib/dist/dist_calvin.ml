open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Faults = Quill_faults.Faults
module Clients = Quill_clients.Clients
module Dlock = Quill_protocols.Dlock

type cfg = {
  nodes : int;
  workers : int;
  batch_size : int;
  costs : Costs.t;
  pipeline : bool;
}

let default_cfg =
  { nodes = 4; workers = 4; batch_size = 2048; costs = Costs.default;
    pipeline = false }

(* Node-local sub-transaction. *)
type sub = {
  rt : Dist_rt.rt;
  may_block : bool;
      (* waits on remote value fills or remote abort resolution *)
}

(* The engine's own messages: one node's sequenced slice of an epoch,
   and the read-broadcast cost carrier. *)
type own = Slice of { epoch : int; src : int; rts : Dist_rt.rt array } | Reads

type nstate = {
  locks : sub Dlock.t;
  work : sub Dlock.ticket option Sim.Chan.ch;
  mutable expected : int;   (* -1 until the scheduler finished the epoch *)
  mutable completed : int;
  touched : Touched.t;
  subs : sub Vec.t;
      (* this epoch's local sub-txns in sequencer-log order: Calvin's
         redo log for crash recovery *)
  crash_next : int ref;  (* next unconsumed crash in the fault plan *)
}

type shared = {
  cfg : cfg;
  d : own Dist_rt.t;
  ns : nstate array;
  slices : (int * int * int, Dist_rt.rt array Sim.Ivar.iv) Hashtbl.t;
      (* (epoch, src, receiving node) *)
}

let get_slice sh epoch src dst = Dist_rt.get_iv sh.slices (epoch, src, dst)

(* ------------------------------------------------------------------ *)
(* Sequencer                                                           *)
(* ------------------------------------------------------------------ *)

let sequencer_thread sh node stream =
  let d = sh.d in
  let start, count =
    Workload.slice ~total:d.Dist_rt.batch_size ~parts:sh.cfg.nodes node
  in
  (* Sequence one epoch's slice into its global slots and broadcast it
     (the plan loop decides how far ahead to run).  In client mode the
     sequencer closes the epoch against its node's admission queue (up
     to the node's epoch share), blocking until an arrival or local
     exhaustion — an empty slice once the node's clients are done. *)
  let seq_epoch e =
    Sim.set_phase d.sim Sim.Ph_plan;
    let rts =
      match d.clients with
      | None -> Array.init count (fun _ -> Dist_rt.admit d (stream ()))
      | Some c ->
          Array.map
            (fun (en : Clients.entry) ->
              Dist_rt.admit d ~centry:en en.Clients.txn)
            (Clients.drain c ~node ~max:count)
    in
    let bytes =
      40
      * Array.fold_left
          (fun acc (rt : Dist_rt.rt) -> acc + Array.length rt.txn.Txn.frags)
          1 rts
    in
    Array.iteri (fun j rt -> Dist_rt.set_slot d ~batch:e (start + j) rt) rts;
    for dst = 0 to sh.cfg.nodes - 1 do
      if dst = node then Sim.Ivar.fill d.sim (get_slice sh e node node) rts
      else
        Net.send d.net ~src:node ~dst ~bytes
          (Dist_rt.Own (Slice { epoch = e; src = node; rts }))
    done;
    Sim.set_phase d.sim Sim.Ph_other
  in
  Dist_rt.plan_loop d ~node seq_epoch

let has_remote_inputs sh node txn =
  let node_of = sh.d.node_of in
  Array.exists
    (fun (f : Fragment.t) ->
      node_of f = node
      && Array.exists
           (fun d -> node_of txn.Txn.frags.(d) <> node)
           f.Fragment.data_deps)
    txn.Txn.frags

let local_frags sh node (rt : Dist_rt.rt) f =
  Array.iter
    (fun frag -> if sh.d.node_of frag = node then f frag)
    (Quill_quecc.Engine.plan_order rt.txn.Txn.frags)

(* Crash recovery replays the sequencer log (this epoch's subs in
   sequence order) serially against the rolled-back partition.  That
   reproduces the pre-crash state, because deterministic locking made
   the concurrent original equivalent to exactly that serial order.
   Aborted txns left no persistent writes, so they are skipped. *)
let replay_log sh node () =
  let d = sh.d in
  let st, ctx = Dist_rt.executor ~replay:true d ~node sh.ns.(node).touched in
  Vec.iter
    (fun sub ->
      let rt = sub.rt in
      if not rt.aborted_local.(node) then begin
        local_frags sh node rt (fun f ->
            match Dist_rt.run_frag d st ctx rt f with
            | Exec.Ok | Exec.Abort -> ()
            | Exec.Blocked -> assert false);
        d.metrics.Metrics.redone <- d.metrics.Metrics.redone + 1
      end)
    sh.ns.(node).subs;
  d.metrics.Metrics.crashes <- d.metrics.Metrics.crashes + 1

(* Consume planned crashes once all of the node's sub-txns for the
   epoch finished, before the node reports done: epoch granularity,
   coarser than dist-quecc's per-queue-entry replay. *)
let check_node_done sh node =
  let ns = sh.ns.(node) in
  if ns.expected >= 0 && ns.completed = ns.expected then begin
    ns.expected <- -1;
    ns.completed <- 0;
    Dist_rt.consume_crashes sh.d ~node ns.crash_next ~touched:ns.touched
      ~replay:(replay_log sh node);
    Dist_rt.report_done sh.d ~node
  end

let scheduler_thread sh node =
  let d = sh.d in
  (* One epoch: request locks in sequencer order, wait for the epoch
     commit, publish; returns the commit's stop decision. *)
  let sched_epoch e =
    Sim.set_phase d.sim Sim.Ph_plan;
    let count = ref 0 in
    for src = 0 to sh.cfg.nodes - 1 do
      let rts = Dist_rt.await_work d sh.slices (e, src, node) in
      Array.iter
        (fun (rt : Dist_rt.rt) ->
          if List.mem node rt.participants then begin
            incr count;
            let sub =
              {
                rt;
                may_block =
                  has_remote_inputs sh node rt.txn
                  || (rt.txn.Txn.n_abortable > 0
                     && List.exists (fun n -> n <> node) rt.participants);
              }
            in
            Vec.push sh.ns.(node).subs sub;
            Dlock.acquire sh.ns.(node).locks sub
              (Dlock.lock_set ~keep:(fun f -> d.node_of f = node) rt.txn)
          end)
        rts
    done;
    sh.ns.(node).expected <- !count;
    check_node_done sh node;
    Sim.set_phase d.sim Sim.Ph_other;
    (* All local sub-transactions are done: publish committed state. *)
    let stop = Dist_rt.publish d ~node e sh.ns.(node).touched in
    Vec.clear sh.ns.(node).subs;
    stop
  in
  Dist_rt.batch_loop d sched_epoch;
  (* Poison the worker pool after the final epoch. *)
  for _ = 1 to sh.cfg.workers do
    Sim.Chan.send d.sim sh.ns.(node).work None
  done

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let exec_sub sh node tk =
  let d = sh.d in
  Sim.set_phase d.sim Sim.Ph_execute;
  let rt = (Dlock.owner tk).rt in
  (* Calvin read broadcast: one message per other participant. *)
  let nreads =
    Array.fold_left
      (fun acc (f : Fragment.t) ->
        if d.node_of f = node && not (Fragment.updates f) then acc + 1
        else acc)
      0 rt.txn.Txn.frags
  in
  List.iter
    (fun n ->
      if n <> node then
        Net.send d.net ~src:node ~dst:n ~bytes:(8 + (16 * nreads))
          (Dist_rt.Own Reads))
    rt.participants;
  let st, ctx = Dist_rt.executor d ~node sh.ns.(node).touched in
  (* Dependency-free abortable fragments first, so a commit-dependency
     wait can never sit ahead of its own abort decision. *)
  local_frags sh node rt (fun f -> ignore (Dist_rt.step d st ctx rt f));
  (* Release local locks; grants may dispatch further sub-txns. *)
  Dlock.release sh.ns.(node).locks tk;
  sh.ns.(node).completed <- sh.ns.(node).completed + 1;
  check_node_done sh node;
  Sim.set_phase d.sim Sim.Ph_other

let worker_thread sh node =
  let rec loop () =
    match Sim.Chan.recv sh.d.sim sh.ns.(node).work with
    | None -> ()
    | Some tk ->
        (* A sub-transaction that may block on remote inputs or remote
           abort resolution runs on a helper so the worker (and lock
           pipeline) keeps draining; see DESIGN.md on Calvin worker-pool
           deadlock avoidance. *)
        if (Dlock.owner tk).may_block then
          Sim.spawn ~at:(Sim.now sh.d.sim) sh.d.sim (fun () ->
              exec_sub sh node tk)
        else exec_sub sh node tk;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)

let demux_thread sh node =
  Dist_rt.demux sh.d ~node
    ~own:(function
      | Slice { epoch; src; rts } ->
          Sim.Ivar.fill sh.d.sim (get_slice sh epoch src node) rts
      | Reads -> ())
    ()

let run ?sim ?(faults = Faults.none) ?clients cfg wl ~batches =
  assert (cfg.nodes > 0 && cfg.workers > 0);
  let db = wl.Workload.db in
  if Db.nparts db mod cfg.nodes <> 0 then
    invalid_arg "Dist_calvin.run: nparts must be a multiple of nodes";
  let d =
    (* partition p is homed at node p * nodes / nparts *)
    Dist_rt.create ~name:"Dist_calvin.run" ?sim ~faults ?clients
      ~costs:cfg.costs ~nodes:cfg.nodes ~pipeline:cfg.pipeline
      ~batch_size:cfg.batch_size ~batches
      ~node_of:(fun (f : Fragment.t) ->
        Db.home db f.Fragment.table f.Fragment.key * cfg.nodes / Db.nparts db)
      wl
  in
  let sh =
    {
      cfg;
      d;
      ns =
        Array.init cfg.nodes (fun _ ->
            let work = Sim.Chan.create () in
            {
              locks =
                Dlock.create d.sim cfg.costs ~on_grant:(fun tk ->
                    Sim.Chan.send d.sim work (Some tk));
              work;
              expected = -1;
              completed = 0;
              touched = Touched.create ();
              subs = Vec.create ();
              crash_next = ref 0;
            });
      slices = Hashtbl.create 64;
    }
  in
  let sim = d.sim in
  for node = 0 to cfg.nodes - 1 do
    let stream =
      match clients with
      | Some _ -> fun () -> assert false (* arrivals come from clients *)
      | None -> wl.Workload.new_stream node
    in
    Sim.spawn sim (fun () -> sequencer_thread sh node stream);
    Sim.spawn sim (fun () -> scheduler_thread sh node);
    for _ = 1 to cfg.workers do
      Sim.spawn sim (fun () -> worker_thread sh node)
    done;
    Sim.spawn sim (fun () -> demux_thread sh node)
  done;
  (* one scheduler (fill stalls) and one sequencer (drain stalls) per
     node — far fewer contributors than dist-quecc's per-role pools,
     which is why raw stall sums were never engine-comparable *)
  Dist_rt.run d ~threads:(cfg.nodes * (cfg.workers + 3))
    ~fill_threads:cfg.nodes ~drain_threads:cfg.nodes
