open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Faults = Quill_faults.Faults
module Clients = Quill_clients.Clients

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
  locks : (int * int * bool) list;   (* (table, key, exclusive) local keys *)
  mutable pending : int;
  may_block : bool;
      (* waits on remote value fills or remote abort resolution *)
}

type lock_mode = S | X

type lockq = {
  mutable holders : (sub * lock_mode) list;
  waiting : (sub * lock_mode) Queue.t;
}

(* The engine's own messages: one node's sequenced slice of an epoch,
   and the read-broadcast cost carrier. *)
type own = Slice of { epoch : int; src : int; rts : Dist_rt.rt array } | Reads

type nstate = {
  locktab : (int * int, lockq) Hashtbl.t;
  work : sub option Sim.Chan.ch;
  mutable expected : int;   (* -1 until the scheduler finished the epoch *)
  mutable completed : int;
  touched : Row.t Vec.t;
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
  let start, count = Dist_rt.slice d ~parts:sh.cfg.nodes node in
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

(* ------------------------------------------------------------------ *)
(* Deterministic lock manager (per node)                               *)
(* ------------------------------------------------------------------ *)

let compatible holders m =
  match m with
  | X -> holders = []
  | S -> List.for_all (fun (_, hm) -> hm = S) holders

let dispatch sh node sub = Sim.Chan.send sh.d.sim sh.ns.(node).work (Some sub)

let grant sh node sub =
  sub.pending <- sub.pending - 1;
  if sub.pending = 0 then dispatch sh node sub

let get_q ns key =
  match Hashtbl.find_opt ns.locktab key with
  | Some q -> q
  | None ->
      let q = { holders = []; waiting = Queue.create () } in
      Hashtbl.replace ns.locktab key q;
      q

let request sh node sub key m =
  let q = get_q sh.ns.(node) key in
  if compatible q.holders m && Queue.is_empty q.waiting then begin
    q.holders <- (sub, m) :: q.holders;
    grant sh node sub
  end
  else Queue.push (sub, m) q.waiting

let release sh node sub key =
  let q = get_q sh.ns.(node) key in
  q.holders <- List.filter (fun (s, _) -> s != sub) q.holders;
  let rec drain () =
    match Queue.peek_opt q.waiting with
    | Some (s, m) when compatible q.holders m ->
        ignore (Queue.pop q.waiting);
        q.holders <- (s, m) :: q.holders;
        grant sh node s;
        drain ()
    | Some _ | None -> ()
  in
  drain ()

(* Local lock set: keys homed here; X when any access updates. *)
let local_lock_set sh node txn =
  let acc = ref [] in
  Array.iter
    (fun (f : Fragment.t) ->
      match f.Fragment.mode with
      | Fragment.Insert -> ()
      | Fragment.Read | Fragment.Write | Fragment.Rmw ->
          if sh.d.node_of f = node then begin
            let x = f.Fragment.mode <> Fragment.Read in
            let key = (f.Fragment.table, f.Fragment.key) in
            let rec merge = function
              | [] -> [ (key, x) ]
              | (k, x0) :: rest when k = key -> (k, x || x0) :: rest
              | e :: rest -> e :: merge rest
            in
            acc := merge !acc
          end)
    txn.Txn.frags;
  List.map (fun ((t, k), x) -> (t, k, x)) !acc

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
    (Quill_quecc.Engine.plan_order_for_dist rt.txn.Txn.frags)

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
  let costs = sh.cfg.costs in
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
            let locks = local_lock_set sh node rt.txn in
            let sub =
              {
                rt;
                locks;
                pending = List.length locks + 1;
                may_block =
                  has_remote_inputs sh node rt.txn
                  || (rt.txn.Txn.n_abortable > 0
                     && List.exists (fun n -> n <> node) rt.participants);
              }
            in
            Vec.push sh.ns.(node).subs sub;
            List.iter
              (fun (t, k, x) ->
                Sim.tick d.sim costs.Costs.lock_mgr_op;
                request sh node sub (t, k) (if x then X else S))
              locks;
            grant sh node sub
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

let exec_sub sh node sub =
  let d = sh.d in
  Sim.set_phase d.sim Sim.Ph_execute;
  let costs = sh.cfg.costs in
  let rt = sub.rt in
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
  List.iter
    (fun (t, k, _) ->
      Sim.tick d.sim costs.Costs.lock_release;
      release sh node sub (t, k))
    sub.locks;
  sh.ns.(node).completed <- sh.ns.(node).completed + 1;
  check_node_done sh node;
  Sim.set_phase d.sim Sim.Ph_other

let worker_thread sh node =
  let rec loop () =
    match Sim.Chan.recv sh.d.sim sh.ns.(node).work with
    | None -> ()
    | Some sub ->
        (* A sub-transaction that may block on remote inputs or remote
           abort resolution runs on a helper so the worker (and lock
           pipeline) keeps draining; see DESIGN.md on Calvin worker-pool
           deadlock avoidance. *)
        if sub.may_block then
          Sim.spawn ~at:(Sim.now sh.d.sim) sh.d.sim (fun () ->
              exec_sub sh node sub)
        else exec_sub sh node sub;
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
            {
              locktab = Hashtbl.create 4096;
              work = Sim.Chan.create ();
              expected = -1;
              completed = 0;
              touched = Vec.create ();
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
