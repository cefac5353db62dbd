open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Faults = Quill_faults.Faults
module Trace = Quill_trace.Trace
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

(* Shared (cross-node) transaction runtime, built by the sequencer. *)
type xrt = {
  txn : Txn.t;
  inputs : int Sim.Ivar.iv array array;
  producers : (int * int Sim.Ivar.iv) list array;
  participants : int list;
  resolved : unit Sim.Ivar.iv array;
  aborted_local : bool array;
  mutable pending_aborters : int;
  mutable aborted : bool;
  centry : Clients.entry option;     (* admission provenance *)
}

(* Node-local sub-transaction. *)
type sub = {
  rt : xrt;
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

type msg =
  | Slice of { epoch : int; src : int; rts : xrt array }
  | Fill of { iv : int Sim.Ivar.iv; v : int }
  | Reads                               (* read-broadcast cost carrier *)
  | Resolve of { rt : xrt; aborted : bool }
  | Node_done
  | Epoch_commit of { epoch : int; stop : bool }
      (* [stop] piggybacks the termination decision on the commit (see
         Dist_quecc): epoch quota reached, or client layer exhausted. *)
  | Stop

type nstate = {
  locktab : (int * int, lockq) Hashtbl.t;
  work : sub option Sim.Chan.ch;
  mutable expected : int;   (* -1 until the scheduler finished the epoch *)
  mutable completed : int;
  touched : Row.t Vec.t;
  subs : sub Vec.t;
      (* this epoch's local sub-txns in sequencer-log order: Calvin's
         redo log for crash recovery *)
  mutable crash_idx : int;  (* next unconsumed crash in the fault plan *)
}

type shared = {
  cfg : cfg;
  sim : Sim.t;
  wl : Workload.t;
  db : Db.t;
  net : msg Net.t;
  ns : nstate array;
  crash_plan : Faults.crash array array;   (* per node, sorted by time *)
  slices : (int * int * int, xrt array Sim.Ivar.iv) Hashtbl.t;
      (* (epoch, src, receiving node) *)
  epoch_rts : (int * int, xrt array) Hashtbl.t;          (* accounting *)
  commits : (int * int, bool Sim.Ivar.iv) Hashtbl.t;     (* epoch, node *)
  metrics : Metrics.t;
  mutable done_count : int;
  mutable epochs_done : int;
  total_epochs : int;
  clients : Clients.t option;
}

let node_of_part sh part = part * sh.cfg.nodes / Db.nparts sh.db

let frag_node sh (f : Fragment.t) =
  node_of_part sh (Db.home sh.db f.Fragment.table f.Fragment.key)

let get_iv tbl key =
  match Hashtbl.find_opt tbl key with
  | Some iv -> iv
  | None ->
      let iv = Sim.Ivar.create () in
      Hashtbl.replace tbl key iv;
      iv

let get_slice sh epoch src dst = get_iv sh.slices (epoch, src, dst)
let get_commit sh epoch node = get_iv sh.commits (epoch, node)

(* ------------------------------------------------------------------ *)
(* Sequencer                                                           *)
(* ------------------------------------------------------------------ *)

let make_xrt ?centry sh txn =
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
      let consumer_node = frag_node sh f in
      Array.iteri
        (fun i d ->
          producers.(d) <- (consumer_node, inputs.(fid).(i)) :: producers.(d))
        f.Fragment.data_deps)
    txn.Txn.frags;
  let participants =
    let seen = Array.make sh.cfg.nodes false in
    Array.iter (fun f -> seen.(frag_node sh f) <- true) txn.Txn.frags;
    let acc = ref [] in
    for i = sh.cfg.nodes - 1 downto 0 do
      if seen.(i) then acc := i :: !acc
    done;
    !acc
  in
  txn.Txn.status <- Txn.Active;
  {
    txn;
    inputs;
    producers;
    participants;
    resolved = Array.init sh.cfg.nodes (fun _ -> Sim.Ivar.create ());
    aborted_local = Array.make sh.cfg.nodes false;
    pending_aborters = txn.Txn.n_abortable;
    aborted = false;
    centry;
  }

let sequencer_thread sh node stream epochs =
  let costs = sh.cfg.costs in
  let base = sh.cfg.batch_size / sh.cfg.nodes in
  let count = base + if node < sh.cfg.batch_size mod sh.cfg.nodes then 1 else 0 in
  let seq_txn ?centry txn =
    Sim.tick sh.sim costs.Costs.txn_overhead;
    txn.Txn.submit_time <- Sim.now sh.sim;
    txn.Txn.attempts <- txn.Txn.attempts + 1;
    make_xrt ?centry sh txn
  in
  (* Sequence one epoch's slice and broadcast it (no commit await —
     the caller decides how far ahead to run). *)
  let seq_epoch e rts =
    let bytes =
      40 * Array.fold_left
             (fun acc rt -> acc + Array.length rt.txn.Txn.frags)
             1 rts
    in
    Hashtbl.replace sh.epoch_rts (e, node) rts;
    for dst = 0 to sh.cfg.nodes - 1 do
      if dst = node then Sim.Ivar.fill sh.sim (get_slice sh e node node) rts
      else Net.send sh.net ~src:node ~dst ~bytes (Slice { epoch = e; src = node; rts })
    done;
    Sim.set_phase sh.sim Sim.Ph_other
  in
  let await_commit e = Sim.Ivar.read sh.sim (get_commit sh e node) in
  match sh.clients with
  | None ->
      if sh.cfg.pipeline then
        (* Lag-1 pipelining: sequence epoch [e] once epoch [e-2] has
           committed, so sequencing (and the slice broadcast) of the
           next epoch overlaps scheduling and execution of the current
           one.  All cross-epoch state is epoch-keyed (slices,
           epoch_rts, commits), so no double-buffering is needed — the
           lag only bounds how many epochs are in flight. *)
        for e = 0 to epochs - 1 do
          if e >= 2 then begin
            let t0 = Sim.now sh.sim in
            ignore (await_commit (e - 2));
            sh.metrics.Metrics.pipe_drain_stall <-
              sh.metrics.Metrics.pipe_drain_stall + (Sim.now sh.sim - t0)
          end;
          Sim.set_phase sh.sim Sim.Ph_plan;
          seq_epoch e (Array.init count (fun _ -> seq_txn (stream ())))
        done
      else
        for e = 0 to epochs - 1 do
          Sim.set_phase sh.sim Sim.Ph_plan;
          seq_epoch e (Array.init count (fun _ -> seq_txn (stream ())));
          ignore (await_commit e)
        done
  | Some c ->
      (* Client mode: each node's sequencer closes the epoch against its
         local admission queue (up to the node's epoch share), blocking
         until an arrival or local exhaustion — an empty slice once the
         node's clients are done.  Stays sequential under [pipeline]:
         epoch contents depend on the previous epoch's completions, and
         the stop decision rides on its commit. *)
      let rec loop e =
        Sim.set_phase sh.sim Sim.Ph_plan;
        let entries = Clients.drain c ~node ~max:count in
        let rts =
          Array.map
            (fun (en : Clients.entry) -> seq_txn ~centry:en en.Clients.txn)
            entries
        in
        seq_epoch e rts;
        if not (await_commit e) then loop (e + 1)
      in
      loop 0

(* ------------------------------------------------------------------ *)
(* Deterministic lock manager (per node)                               *)
(* ------------------------------------------------------------------ *)

let compatible holders m =
  match m with
  | X -> holders = []
  | S -> List.for_all (fun (_, hm) -> hm = S) holders

let dispatch sh node sub = Sim.Chan.send sh.sim sh.ns.(node).work (Some sub)

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
          if frag_node sh f = node then begin
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
  Array.exists
    (fun (f : Fragment.t) ->
      frag_node sh f = node
      && Array.exists
           (fun d -> frag_node sh txn.Txn.frags.(d) <> node)
           f.Fragment.data_deps)
    txn.Txn.frags

(* The accessors of one local sub-transaction, reading and writing
   through [cur] and dirtying rows into the node's touched set.  On
   [replay] (crash recovery) cross-node traffic is suppressed — input
   values were computed and broadcast before the crash and their ivars
   are still full — and inserts published before the crash, which
   survive it, are skipped. *)
let sub_ctx sh node rt (cur : Direct.cursor) cur_frag ~replay =
  let costs = sh.cfg.costs in
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
        Vec.push sh.ns.(node).touched row
      end;
      row.Row.data.(field) <- v
    end
  in
  let add frag field d = write frag field (read frag field + d) in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick sh.sim costs.Costs.index_insert;
    let tbl = Db.table sh.db frag.Fragment.table in
    if not (replay && Table.find tbl key <> None) then begin
      let home = Db.home sh.db frag.Fragment.table frag.Fragment.key in
      ignore (Table.insert tbl ~home ~key payload)
    end
  in
  let input producer_fid =
    let frag = match !cur_frag with Some f -> f | None -> assert false in
    let deps = frag.Fragment.data_deps in
    let rec find i = if deps.(i) = producer_fid then i else find (i + 1) in
    Sim.Ivar.read sh.sim rt.inputs.(frag.Fragment.fid).(find 0)
  in
  let output fid v =
    if not replay then
      List.iter
        (fun (dst, iv) ->
          if dst = node then begin
            if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv v
          end
          else Net.send sh.net ~src:node ~dst ~bytes:16 (Fill { iv; v }))
        rt.producers.(fid)
  in
  let found _ = cur.found in
  { Exec.read; write; add; insert; input; output; found }

(* Re-execute one local sub-transaction during crash recovery.  The
   sequencer log (this epoch's subs in sequence order) is Calvin's redo
   log: replaying it serially against the rolled-back partition
   reproduces the pre-crash state, because deterministic locking made
   the concurrent original equivalent to exactly that serial order.
   The abort vote is not re-cast (the outcome is already decided).
   Returns whether the sub was replayed (aborted txns left no persistent
   writes, so they are skipped). *)
let replay_sub sh node sub =
  let rt = sub.rt in
  if rt.aborted_local.(node) then false
  else begin
    let txn = rt.txn in
    let cur = Direct.cursor () and cur_frag = ref None in
    let ctx = sub_ctx sh node rt cur cur_frag ~replay:true in
    Array.iter
      (fun (f : Fragment.t) ->
        if frag_node sh f = node then begin
          cur_frag := Some f;
          match
            Direct.step sh.sim sh.cfg.costs sh.wl ctx cur
              ~locate:(Direct.find sh.db) txn f
          with
          | Exec.Ok | Exec.Abort -> ()
          | Exec.Blocked -> assert false
        end)
      (Quill_quecc.Engine.plan_order_for_dist txn.Txn.frags);
    true
  end

(* Consume planned crashes once all of the node's sub-txns for the
   epoch finished, before the node reports Node_done.  A crash rolls
   the node's partitions back to the last committed epoch and replays
   the sequencer log — epoch granularity, coarser than dist-quecc's
   per-queue-entry replay. *)
let maybe_recover sh node =
  let ns = sh.ns.(node) in
  let crashes = sh.crash_plan.(node) in
  while
    ns.crash_idx < Array.length crashes
    && crashes.(ns.crash_idx).Faults.at <= Sim.now sh.sim
  do
    let c = crashes.(ns.crash_idx) in
    ns.crash_idx <- ns.crash_idx + 1;
    Sim.in_phase sh.sim Sim.Ph_recover (Sim.current_tid sh.sim) (fun () ->
        Vec.iter Row.revert ns.touched;
        Vec.clear ns.touched;
        let restart = c.Faults.at + c.Faults.down in
        if restart > Sim.now sh.sim then
          Sim.sleep sh.sim (restart - Sim.now sh.sim);
        Sim.tick sh.sim sh.cfg.costs.Costs.crash_reboot;
        Vec.iter
          (fun sub ->
            if replay_sub sh node sub then
              sh.metrics.Metrics.redone <- sh.metrics.Metrics.redone + 1)
          ns.subs;
        sh.metrics.Metrics.crashes <- sh.metrics.Metrics.crashes + 1)
  done

let check_node_done sh node =
  let ns = sh.ns.(node) in
  if ns.expected >= 0 && ns.completed = ns.expected then begin
    ns.expected <- -1;
    ns.completed <- 0;
    maybe_recover sh node;
    Net.send sh.net ~src:node ~dst:0 ~bytes:8 Node_done
  end

let scheduler_thread sh node epochs =
  let costs = sh.cfg.costs in
  (* One epoch: request locks in sequencer order, wait for the epoch
     commit, publish; returns the commit's stop decision. *)
  let sched_epoch e =
    Sim.set_phase sh.sim Sim.Ph_plan;
    let count = ref 0 in
    for src = 0 to sh.cfg.nodes - 1 do
      let t0 = Sim.now sh.sim in
      let rts = Sim.Ivar.read sh.sim (get_slice sh e src node) in
      (* In a pipelined run, waiting on a slice means the pipeline ran
         dry (sequencing/shipping slower than execution). *)
      if sh.cfg.pipeline then
        sh.metrics.Metrics.pipe_fill_stall <-
          sh.metrics.Metrics.pipe_fill_stall + (Sim.now sh.sim - t0);
      Array.iter
        (fun rt ->
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
                Sim.tick sh.sim costs.Costs.lock_mgr_op;
                request sh node sub (t, k) (if x then X else S))
              locks;
            grant sh node sub
          end)
        rts;
      Hashtbl.remove sh.slices (e, src, node)
    done;
    sh.ns.(node).expected <- !count;
    check_node_done sh node;
    Sim.set_phase sh.sim Sim.Ph_other;
    let stop = Sim.Ivar.read sh.sim (get_commit sh e node) in
    (* All local sub-transactions are done: publish committed state. *)
    Sim.set_phase sh.sim Sim.Ph_publish;
    Vec.iter Row.publish sh.ns.(node).touched;
    Vec.clear sh.ns.(node).touched;
    Vec.clear sh.ns.(node).subs;
    Sim.set_phase sh.sim Sim.Ph_other;
    stop
  in
  (match sh.clients with
  | None -> for e = 0 to epochs - 1 do ignore (sched_epoch e) done
  | Some _ ->
      let rec loop e = if not (sched_epoch e) then loop (e + 1) in
      loop 0);
  (* Poison the worker pool after the final epoch. *)
  for _ = 1 to sh.cfg.workers do
    Sim.Chan.send sh.sim sh.ns.(node).work None
  done

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
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

let exec_sub sh node sub =
  Sim.set_phase sh.sim Sim.Ph_execute;
  let costs = sh.cfg.costs in
  let rt = sub.rt in
  let txn = rt.txn in
  (* Calvin read broadcast: one message per other participant. *)
  let nreads =
    Array.fold_left
      (fun acc (f : Fragment.t) ->
        if frag_node sh f = node && not (Fragment.updates f) then acc + 1
        else acc)
      0 txn.Txn.frags
  in
  List.iter
    (fun n ->
      if n <> node then
        Net.send sh.net ~src:node ~dst:n ~bytes:(8 + (16 * nreads)) Reads)
    rt.participants;
  let cur = Direct.cursor () and cur_frag = ref None in
  let ctx = sub_ctx sh node rt cur cur_frag ~replay:false in
  (* Dependency-free abortable fragments first, so a commit-dependency
     wait can never sit ahead of its own abort decision. *)
  Array.iter
    (fun (f : Fragment.t) ->
      if frag_node sh f = node && not rt.aborted_local.(node) then begin
        if
          f.Fragment.commit_dep
          && not (Sim.Ivar.is_full rt.resolved.(node))
        then Sim.Ivar.read sh.sim rt.resolved.(node);
        if not rt.aborted_local.(node) then begin
          cur_frag := Some f;
          match
            Direct.step sh.sim costs sh.wl ctx cur ~locate:(Direct.find sh.db)
              txn f
          with
          | Exec.Ok ->
              if f.Fragment.abortable then begin
                rt.pending_aborters <- rt.pending_aborters - 1;
                if rt.pending_aborters = 0 && not rt.aborted then
                  broadcast_resolution sh ~self:node rt false
              end
          | Exec.Abort ->
              if not rt.aborted then begin
                rt.aborted <- true;
                txn.Txn.status <- Txn.Aborted;
                broadcast_resolution sh ~self:node rt true;
                Array.iter
                  (Array.iter (fun iv ->
                       if not (Sim.Ivar.is_full iv) then
                         Sim.Ivar.fill sh.sim iv 0))
                  rt.inputs
              end
          | Exec.Blocked -> assert false
        end
      end)
    (Quill_quecc.Engine.plan_order_for_dist txn.Txn.frags);
  (* Release local locks; grants may dispatch further sub-txns. *)
  List.iter
    (fun (t, k, _) ->
      Sim.tick sh.sim costs.Costs.lock_release;
      release sh node sub (t, k))
    sub.locks;
  sh.ns.(node).completed <- sh.ns.(node).completed + 1;
  check_node_done sh node;
  Sim.set_phase sh.sim Sim.Ph_other

let worker_thread sh node =
  let rec loop () =
    match Sim.Chan.recv sh.sim sh.ns.(node).work with
    | None -> ()
    | Some sub ->
        (* A sub-transaction that may block on remote inputs or remote
           abort resolution runs on a helper so the worker (and lock
           pipeline) keeps draining; see DESIGN.md on Calvin worker-pool
           deadlock avoidance. *)
        if sub.may_block then
          Sim.spawn ~at:(Sim.now sh.sim) sh.sim (fun () -> exec_sub sh node sub)
        else exec_sub sh node sub;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Demux / commit coordination                                         *)
(* ------------------------------------------------------------------ *)

let demux_thread sh node =
  let rec loop () =
    match Net.recv sh.net ~node with
    | Slice { epoch; src; rts } ->
        Sim.Ivar.fill sh.sim (get_slice sh epoch src node) rts;
        loop ()
    | Fill { iv; v } ->
        if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv v;
        loop ()
    | Reads -> loop ()
    | Resolve { rt; aborted } ->
        if aborted then rt.aborted_local.(node) <- true;
        if not (Sim.Ivar.is_full rt.resolved.(node)) then
          Sim.Ivar.fill sh.sim rt.resolved.(node) ();
        loop ()
    | Node_done ->
        assert (node = 0);
        sh.done_count <- sh.done_count + 1;
        if sh.done_count = sh.cfg.nodes then begin
          sh.done_count <- 0;
          let e = sh.epochs_done in
          sh.epochs_done <- e + 1;
          (* Account every transaction of the epoch. *)
          let now = Sim.now sh.sim in
          for src = 0 to sh.cfg.nodes - 1 do
            match Hashtbl.find_opt sh.epoch_rts (e, src) with
            | None -> ()
            | Some rts ->
                Array.iter
                  (fun rt ->
                    rt.txn.Txn.finish_time <- now;
                    (match rt.txn.Txn.status with
                    | Txn.Aborted ->
                        sh.metrics.Metrics.logic_aborted <-
                          sh.metrics.Metrics.logic_aborted + 1
                    | Txn.Active | Txn.Committed ->
                        rt.txn.Txn.status <- Txn.Committed;
                        sh.metrics.Metrics.committed <-
                          sh.metrics.Metrics.committed + 1
                    | Txn.Pending -> assert false);
                    Stats.Hist.add sh.metrics.Metrics.lat
                      (now - rt.txn.Txn.submit_time);
                    match (sh.clients, rt.centry) with
                    | Some c, Some ce ->
                        Clients.complete c ce
                          ~ok:(rt.txn.Txn.status = Txn.Committed)
                    | _ -> ())
                  rts;
                Hashtbl.remove sh.epoch_rts (e, src)
          done;
          sh.metrics.Metrics.batches <- sh.metrics.Metrics.batches + 1;
          (* Stop decision after accounting, where client exhaustion is
             monotone-stable (see Dist_quecc.demux_thread). *)
          let stop =
            match sh.clients with
            | None -> sh.epochs_done = sh.total_epochs
            | Some c -> Clients.exhausted c
          in
          for dst = 0 to sh.cfg.nodes - 1 do
            if dst = 0 then Sim.Ivar.fill sh.sim (get_commit sh e 0) stop
            else
              Net.send sh.net ~src:0 ~dst ~bytes:8
                (Epoch_commit { epoch = e; stop })
          done;
          if stop then
            for dst = 1 to sh.cfg.nodes - 1 do
              Net.send sh.net ~src:0 ~dst ~bytes:8 Stop
            done
          else loop ()
        end
        else loop ()
    | Epoch_commit { epoch = e; stop } ->
        Sim.Ivar.fill sh.sim (get_commit sh e node) stop;
        loop ()
    | Stop -> ()
  in
  loop ()

let run ?sim ?(faults = Faults.none) ?clients cfg wl ~batches =
  assert (cfg.nodes > 0 && cfg.workers > 0);
  let db = wl.Workload.db in
  if Db.nparts db mod cfg.nodes <> 0 then
    invalid_arg "Dist_calvin.run: nparts must be a multiple of nodes";
  Faults.check_nodes faults ~nodes:cfg.nodes ~name:"Dist_calvin.run";
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
      ns =
        Array.init cfg.nodes (fun _ ->
            {
              locktab = Hashtbl.create 4096;
              work = Sim.Chan.create ();
              expected = -1;
              completed = 0;
              touched = Vec.create ();
              subs = Vec.create ();
              crash_idx = 0;
            });
      crash_plan =
        Array.init cfg.nodes (fun n -> Faults.crashes_for faults ~node:n);
      slices = Hashtbl.create 64;
      epoch_rts = Hashtbl.create 64;
      commits = Hashtbl.create 64;
      metrics = Metrics.create ();
      done_count = 0;
      epochs_done = 0;
      total_epochs = batches;
      clients;
    }
  in
  for node = 0 to cfg.nodes - 1 do
    let stream =
      match clients with
      | Some _ -> fun () -> assert false (* arrivals come from clients *)
      | None -> wl.Workload.new_stream node
    in
    Sim.spawn sim (fun () -> sequencer_thread sh node stream batches);
    Sim.spawn sim (fun () -> scheduler_thread sh node batches);
    for _ = 1 to cfg.workers do
      Sim.spawn sim (fun () -> worker_thread sh node)
    done;
    Sim.spawn sim (fun () -> demux_thread sh node)
  done;
  let parked = Sim.run sim in
  if parked <> 0 then
    failwith (Printf.sprintf "Dist_calvin.run: %d threads deadlocked" parked);
  let m = sh.metrics in
  Metrics.record_sim m sim ~threads:(cfg.nodes * (cfg.workers + 3));
  if cfg.pipeline then begin
    (* one scheduler (fill stalls) and one sequencer (drain stalls) per
       node — far fewer contributors than dist-quecc's per-role pools,
       which is why raw stall sums were never engine-comparable *)
    m.Metrics.pipe_fill_threads <- cfg.nodes;
    m.Metrics.pipe_drain_threads <- cfg.nodes
  end;
  m.Metrics.msgs <- Net.messages_sent sh.net;
  m.Metrics.msg_retries <- Net.messages_retried sh.net;
  m.Metrics.msg_dup_drops <- Net.duplicates_dropped sh.net;
  m
