open Quill_sim
open Quill_storage
open Quill_txn
module Faults = Quill_faults.Faults
module Clients = Quill_clients.Clients

type rt = {
  txn : Txn.t;
  inputs : int Sim.Ivar.iv array array;          (* [fid].[dep_idx] *)
  producers : (int * int Sim.Ivar.iv) list array; (* [fid] -> (node, iv) *)
  resolved : unit Sim.Ivar.iv array;             (* per node *)
  aborted_local : bool array;                    (* per node view *)
  participants : int list;
  mutable pending_aborters : int;
  mutable aborted : bool;                        (* authoritative *)
  centry : Clients.entry option;                 (* admission provenance *)
}

type 'p msg =
  | Own of 'p
  | Fill of { iv : int Sim.Ivar.iv; v : int }
  | Resolve of { rt : rt; aborted : bool }
  | Done
  | Commit of { batch : int; stop : bool }
  | Stop

type 'p t = {
  name : string;
  sim : Sim.t;
  costs : Costs.t;
  wl : Workload.t;
  db : Db.t;
  nodes : int;
  node_of : Fragment.t -> int;
  net : 'p msg Net.t;
  metrics : Metrics.t;
  clients : Clients.t option;
  pipeline : bool;
  batch_size : int;
  total_batches : int;
  crash_plan : Faults.crash array array;
  commits : (int * int, bool Sim.Ivar.iv) Hashtbl.t;
  slots : rt option array array;
      (* Two buffers of global batch slots: with [pipeline], the planner
         side fills batch [b+1]'s slots while node 0 still owns batch
         [b]'s for accounting; the parity index keeps them apart.
         Planning of [b] is gated on the commit of [b-2], so at most two
         batches of runtimes are ever live. *)
  mutable done_count : int;
  mutable batches_done : int;
}

let create ~name ?sim ?(faults = Faults.none) ?clients ?(fail_stop = false)
    ~costs ~nodes ~pipeline ~batch_size ~batches ~node_of wl =
  Faults.check_nodes faults ~nodes ~name;
  if pipeline && clients <> None then
    invalid_arg (name ^ ": pipeline does not compose with open-loop clients");
  let sim = Sim.of_costs ?sim costs in
  let frt = if Faults.active faults then Some (Faults.make faults) else None in
  {
    name;
    sim;
    costs;
    wl;
    db = wl.Workload.db;
    nodes;
    node_of;
    net = Net.create ?faults:frt sim costs ~nodes;
    metrics = Metrics.create ();
    clients;
    pipeline;
    batch_size;
    total_batches = batches;
    crash_plan =
      Array.init nodes (fun n ->
          if fail_stop then [||] else Faults.crashes_for faults ~node:n);
    commits = Hashtbl.create 64;
    slots = Array.init 2 (fun _ -> Array.make batch_size None);
    done_count = 0;
    batches_done = 0;
  }

let get_iv tbl key =
  match Hashtbl.find_opt tbl key with
  | Some iv -> iv
  | None ->
      let iv = Sim.Ivar.create () in
      Hashtbl.replace tbl key iv;
      iv

let fill t iv v = if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill t.sim iv v

(* ------------------------------------------------------------------ *)
(* Transaction runtimes                                                *)
(* ------------------------------------------------------------------ *)

let admit t ?centry txn =
  let txn = Txn.admit t.sim t.costs (fun () -> txn) in
  let inputs =
    Array.map
      (fun (f : Fragment.t) ->
        Array.map (fun _ -> Sim.Ivar.create ()) f.Fragment.data_deps)
      txn.Txn.frags
  in
  let producers = Array.make (Array.length txn.Txn.frags) [] in
  Array.iteri
    (fun fid (f : Fragment.t) ->
      let consumer_node = t.node_of f in
      Array.iteri
        (fun i d ->
          producers.(d) <- (consumer_node, inputs.(fid).(i)) :: producers.(d))
        f.Fragment.data_deps)
    txn.Txn.frags;
  let seen = Array.make t.nodes false in
  Array.iter (fun f -> seen.(t.node_of f) <- true) txn.Txn.frags;
  let participants =
    List.filter (fun n -> seen.(n)) (List.init t.nodes Fun.id)
  in
  {
    txn;
    inputs;
    producers;
    resolved = Array.init t.nodes (fun _ -> Sim.Ivar.create ());
    aborted_local = Array.make t.nodes false;
    participants;
    pending_aborters = txn.Txn.n_abortable;
    aborted = false;
    centry;
  }

let set_slot t ~batch slot rt = t.slots.(batch land 1).(slot) <- Some rt

(* ------------------------------------------------------------------ *)
(* Abort / resolution coordination                                     *)
(* ------------------------------------------------------------------ *)

let resolve_at t ~node rt aborted =
  if aborted then rt.aborted_local.(node) <- true;
  fill t rt.resolved.(node) ()

let broadcast_resolution t ~self rt aborted =
  List.iter
    (fun n ->
      if n = self then resolve_at t ~node:n rt aborted
      else Net.send t.net ~src:self ~dst:n ~bytes:16 (Resolve { rt; aborted }))
    rt.participants

let vote t ~self rt =
  rt.pending_aborters <- rt.pending_aborters - 1;
  if rt.pending_aborters = 0 && not rt.aborted then
    broadcast_resolution t ~self rt false

let abort t ~self rt =
  if not rt.aborted then begin
    rt.aborted <- true;
    rt.txn.Txn.status <- Txn.Aborted;
    broadcast_resolution t ~self rt true;
    (* Unblock same-txn consumers; conservative gating keeps garbage out
       of the database. *)
    Array.iter (Array.iter (fun iv -> fill t iv 0)) rt.inputs
  end

(* ------------------------------------------------------------------ *)
(* Fragment execution                                                  *)
(* ------------------------------------------------------------------ *)

type exec = {
  node : int;
  cur : Direct.cursor;
  touched : Touched.t;
  mutable rt : rt option;
  mutable frag : Fragment.t option;
  replay : bool;
}

let make_ctx t st =
  let costs = t.costs in
  let cur = st.cur in
  let the_rt () = match st.rt with Some rt -> rt | None -> assert false in
  let read (frag : Fragment.t) field =
    Sim.tick t.sim costs.Costs.row_read;
    if cur.found then
      Table.get (Db.table t.db frag.Fragment.table) cur.slot field
    else 0
  in
  let write (frag : Fragment.t) field v =
    Sim.tick t.sim costs.Costs.row_write;
    if cur.found then begin
      let table = frag.Fragment.table in
      Touched.add t.db st.touched ~table cur.slot;
      Table.set (Db.table t.db table) cur.slot field v
    end
  in
  let add frag field d = write frag field (read frag field + d) in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick t.sim costs.Costs.index_insert;
    let tbl = Db.table t.db frag.Fragment.table in
    (* Inserts publish immediately and survive a crash; replaying one
       verbatim would raise on the duplicate key. *)
    if not (st.replay && Table.find tbl key >= 0) then begin
      let home = Db.home t.db frag.Fragment.table frag.Fragment.key in
      ignore (Table.insert tbl ~home ~key payload)
    end
  in
  let input producer_fid =
    let rt = the_rt () in
    let frag = match st.frag with Some f -> f | None -> assert false in
    (* Find which of this fragment's dependencies points at the producer;
       its input ivar carries the value (locally or via a Fill message). *)
    let deps = frag.Fragment.data_deps in
    let rec find i =
      if i >= Array.length deps then assert false
      else if deps.(i) = producer_fid then i
      else find (i + 1)
    in
    Sim.Ivar.read t.sim rt.inputs.(frag.Fragment.fid).(find 0)
  in
  (* On replay the inputs this fragment feeds are already full: they
     were computed and sent before the crash. *)
  let output fid v =
    if not st.replay then begin
      (* [fill]'s full check and [Net.send]'s link sequence numbers are
         shared with other threads. *)
      Sim.sync t.sim;
      List.iter
        (fun (dst, iv) ->
          if dst = st.node then fill t iv v
          else Net.send t.net ~src:st.node ~dst ~bytes:16 (Fill { iv; v }))
        (the_rt ()).producers.(fid)
    end
  in
  let found _ = cur.found in
  { Exec.read; write; add; insert; input; output; found }

let executor ?(replay = false) t ~node touched =
  let st =
    { node; cur = Direct.cursor (); touched; rt = None; frag = None; replay }
  in
  (st, make_ctx t st)

let run_frag t st ctx rt frag =
  st.rt <- Some rt;
  st.frag <- Some frag;
  Direct.step t.sim t.costs t.wl ctx st.cur ~locate:(Direct.find t.db) rt.txn
    frag

let step t st ctx rt (frag : Fragment.t) =
  let node = st.node in
  if rt.aborted_local.(node) then false
  else begin
    if frag.Fragment.commit_dep && not (Sim.Ivar.is_full rt.resolved.(node))
    then Sim.Ivar.read t.sim rt.resolved.(node);
    if rt.aborted_local.(node) then false
    else begin
      (match run_frag t st ctx rt frag with
      | Exec.Ok ->
          (* A replayed fragment's vote already reached the coordinator;
             a second one would corrupt the pending-aborters count. *)
          if frag.Fragment.abortable && not st.replay then vote t ~self:node rt
      | Exec.Abort -> abort t ~self:node rt
      | Exec.Blocked -> assert false);
      true
    end
  end

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

let consume_crashes t ~node next ~touched ~replay =
  let plan = t.crash_plan.(node) in
  while !next < Array.length plan && plan.(!next).Faults.at <= Sim.now t.sim do
    let c = plan.(!next) in
    incr next;
    Sim.in_phase t.sim Sim.Ph_recover (Sim.current_tid t.sim) (fun () ->
        Touched.revert t.db touched;
        let restart = c.Faults.at + c.Faults.down in
        if restart > Sim.now t.sim then
          Sim.sleep t.sim (restart - Sim.now t.sim);
        Sim.tick t.sim t.costs.Costs.crash_reboot;
        replay ())
  done

(* ------------------------------------------------------------------ *)
(* Batch loops                                                         *)
(* ------------------------------------------------------------------ *)

let await_commit t ~node b = Sim.Ivar.read t.sim (get_iv t.commits (b, node))

let batch_loop t f =
  match t.clients with
  | None ->
      for b = 0 to t.total_batches - 1 do
        ignore (f b)
      done
  | Some _ ->
      let rec loop b = if not (f b) then loop (b + 1) in
      loop 0

let plan_loop t ~node ?(live = fun () -> true) plan =
  if t.pipeline then
    for b = 0 to t.total_batches - 1 do
      if live () then begin
        (* Lag-1 pipelining: plan batch [b] as soon as batch [b-2]
           committed, overlapping planning of [b] with execution of
           [b-1].  The time spent blocked on that lagged commit is the
           pipeline backing up (execution slower than planning). *)
        if b >= 2 then begin
          let t0 = Sim.now t.sim in
          ignore (await_commit t ~node (b - 2));
          t.metrics.Metrics.pipe_drain_stall <-
            t.metrics.Metrics.pipe_drain_stall + (Sim.now t.sim - t0)
        end;
        if live () then plan b
      end
    done
  else
    batch_loop t (fun b ->
        (not (live ()))
        || begin
             plan b;
             await_commit t ~node b
           end)

let await_work t tbl key =
  let t0 = Sim.now t.sim in
  let v = Sim.Ivar.read t.sim (get_iv tbl key) in
  Hashtbl.remove tbl key;
  (* In a pipelined run, waiting for a batch's work means the pipeline
     ran dry (planning/shipping slower than execution). *)
  if t.pipeline then
    t.metrics.Metrics.pipe_fill_stall <-
      t.metrics.Metrics.pipe_fill_stall + (Sim.now t.sim - t0);
  v

let report_done t ~node = Net.send t.net ~src:node ~dst:0 ~bytes:8 Done

let publish t ~node b touched =
  let stop = await_commit t ~node b in
  Sim.set_phase t.sim Sim.Ph_publish;
  Touched.publish t.db touched;
  Sim.set_phase t.sim Sim.Ph_other;
  stop

(* ------------------------------------------------------------------ *)
(* Commit coordination (node 0)                                        *)
(* ------------------------------------------------------------------ *)

let commit ?(committed = ignore) t =
  let b = t.batches_done in
  let now = Sim.now t.sim in
  let m = t.metrics in
  let slots = t.slots.(b land 1) in
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some rt ->
          let ok =
            match rt.txn.Txn.status with
            | Txn.Active | Txn.Committed -> true
            | Txn.Aborted -> false
            | Txn.Pending -> assert false
          in
          Metrics.retire m rt.txn ~ok ~now;
          (match (t.clients, rt.centry) with
          | Some c, Some ce -> Clients.complete c ce ~ok
          | _ -> ());
          slots.(i) <- None)
    slots;
  m.Metrics.batches <- m.Metrics.batches + 1;
  t.batches_done <- b + 1;
  committed b;
  (* The stop decision is made here, after accounting, where it is
     monotone-stable: client exhaustion means every offered transaction
     is finally resolved (retries are scheduled before [complete]
     returns), so no further batch can form. *)
  let stop =
    match t.clients with
    | None -> t.batches_done = t.total_batches
    | Some c -> Clients.exhausted c
  in
  for dst = 0 to t.nodes - 1 do
    if dst = 0 then fill t (get_iv t.commits (b, 0)) stop
    else Net.send t.net ~src:0 ~dst ~bytes:8 (Commit { batch = b; stop })
  done;
  if stop then
    for dst = 1 to t.nodes - 1 do
      Net.send t.net ~src:0 ~dst ~bytes:8 Stop
    done;
  stop

let demux t ~node ~own ?(commit = fun () -> commit t) () =
  let rec loop () =
    match Net.recv t.net ~node with
    | Own p ->
        own p;
        loop ()
    | Fill { iv; v } ->
        fill t iv v;
        loop ()
    | Resolve { rt; aborted } ->
        resolve_at t ~node rt aborted;
        loop ()
    | Done ->
        assert (node = 0);
        t.done_count <- t.done_count + 1;
        if t.done_count < t.nodes then loop ()
        else begin
          t.done_count <- 0;
          if not (commit ()) then loop ()
        end
    | Commit { batch; stop } ->
        Sim.Ivar.fill t.sim (get_iv t.commits (batch, node)) stop;
        loop ()
    | Stop -> ()
  in
  loop ()

let run ?recorder t ~threads ~fill_threads ~drain_threads =
  let parked =
    match recorder with
    | None -> Sim.run t.sim
    | Some log ->
        Quill_analysis.Access_log.with_sim log t.sim (fun () -> Sim.run t.sim)
  in
  if parked <> 0 then
    failwith (Printf.sprintf "%s: %d threads deadlocked" t.name parked);
  let m = t.metrics in
  Metrics.record_sim m t.sim ~threads;
  if t.pipeline then begin
    (* recording the stall contributor counts makes the per-thread
       stall averages engine-comparable *)
    m.Metrics.pipe_fill_threads <- fill_threads;
    m.Metrics.pipe_drain_threads <- drain_threads
  end;
  Net.record t.net m;
  m
