open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn

type cfg = { workers : int; batch_size : int; costs : Costs.t }

type mode = S | X

type crt = {
  txn : Txn.t;
  locks : (int * int * mode) list;   (* deduped (table, key, mode) *)
  mutable pending : int;
  entry : Quill_clients.Clients.entry option;
}

type lockq = {
  mutable holders : (crt * mode) list;
  waiting : (crt * mode) Queue.t;
}

type state = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  locktab : (int * int, lockq) Hashtbl.t;
  work : crt option Sim.Chan.ch;
  metrics : Metrics.t;
  mutable completed : int;
  mutable total : int;
  nworkers : int;
  clients : Quill_clients.Clients.t option;
}

(* Deduplicate the lock set: one request per key, X if any access
   updates.  Insert fragments lock nothing themselves — their key is
   computed at run time; the serializing row (e.g. the TPC-C district)
   is already X-locked, which prevents duplicate keys (DESIGN.md). *)
let lock_set txn =
  let acc = ref [] in
  Array.iter
    (fun (f : Fragment.t) ->
      match f.Fragment.mode with
      | Fragment.Insert -> ()
      | Fragment.Read | Fragment.Write | Fragment.Rmw ->
          let m =
            match f.Fragment.mode with Fragment.Read -> S | _ -> X
          in
          let key = (f.Fragment.table, f.Fragment.key) in
          let rec merge = function
            | [] -> [ (key, m) ]
            | (k, m0) :: rest when k = key ->
                (k, if m = X || m0 = X then X else S) :: rest
            | e :: rest -> e :: merge rest
          in
          acc := merge !acc)
    txn.Txn.frags;
  List.map (fun ((t, k), m) -> (t, k, m)) !acc

let get_q st key =
  match Hashtbl.find_opt st.locktab key with
  | Some q -> q
  | None ->
      let q = { holders = []; waiting = Queue.create () } in
      Hashtbl.replace st.locktab key q;
      q

let compatible holders m =
  match m with
  | X -> holders = []
  | S -> List.for_all (fun (_, hm) -> hm = S) holders

let dispatch st crt = Sim.Chan.send st.sim st.work (Some crt)

let grant st crt =
  crt.pending <- crt.pending - 1;
  if crt.pending = 0 then dispatch st crt

(* Request in batch order; FIFO per key (no barging past waiters). *)
let request st crt key m =
  let q = get_q st key in
  if compatible q.holders m && Queue.is_empty q.waiting then begin
    q.holders <- (crt, m) :: q.holders;
    grant st crt
  end
  else Queue.push (crt, m) q.waiting

let release st crt key =
  let q = get_q st key in
  q.holders <- List.filter (fun (c, _) -> c != crt) q.holders;
  let rec drain () =
    match Queue.peek_opt q.waiting with
    | Some (c, m) when compatible q.holders m ->
        ignore (Queue.pop q.waiting);
        q.holders <- (c, m) :: q.holders;
        grant st c;
        drain ()
    | Some _ | None -> ()
  in
  drain ()

let sequence st txn entry =
  Sim.tick st.sim st.costs.Costs.txn_overhead;
  txn.Txn.submit_time <- Sim.now st.sim;
  txn.Txn.status <- Txn.Active;
  txn.Txn.attempts <- txn.Txn.attempts + 1;
  let locks = lock_set txn in
  let crt = { txn; locks; pending = List.length locks + 1; entry } in
  (* The +1 guards against dispatching before all requests are issued. *)
  List.iter
    (fun (t, k, m) ->
      Sim.tick st.sim st.costs.Costs.lock_mgr_op;
      request st crt (t, k) m)
    locks;
  grant st crt

let poison st =
  for _ = 1 to st.nworkers do
    Sim.Chan.send st.sim st.work None
  done

let scheduler st (wl : Workload.t) ~txns =
  Sim.in_phase st.sim Sim.Ph_plan (Sim.current_tid st.sim) @@ fun () ->
  match st.clients with
  | None ->
      let stream = wl.Workload.new_stream 0 in
      for _ = 1 to txns do
        sequence st (stream ()) None
      done;
      if txns = 0 then poison st
  | Some c ->
      (* Open loop: sequence admitted transactions in arrival order until
         the client layer is exhausted, then poison the worker pool.
         Lock-waiting and in-flight transactions keep the client layer
         live, so exhaustion here really is the end. *)
      let rec loop () =
        match Quill_clients.Clients.take c ~node:0 with
        | None -> poison st
        | Some e ->
            sequence st e.Quill_clients.Clients.txn (Some e);
            loop ()
      in
      loop ()

let worker st (wl : Workload.t) =
  let tid = Sim.current_tid st.sim in
  let direct = Direct.create ~charge:Direct.Per_row st.sim st.costs wl in
  let rec loop () =
    match Sim.Chan.recv st.sim st.work with
    | None -> ()
    | Some crt ->
        let txn = crt.txn in
        let outcome =
          Sim.in_phase st.sim Sim.Ph_execute tid (fun () ->
              Pcommon.run_locked direct txn)
        in
        List.iter
          (fun (t, k, _) ->
            Sim.tick st.sim st.costs.Costs.lock_release;
            release st crt (t, k))
          crt.locks;
        (match outcome with
        | Exec.Ok ->
            txn.Txn.status <- Txn.Committed;
            st.metrics.Metrics.committed <- st.metrics.Metrics.committed + 1
        | Exec.Abort ->
            txn.Txn.status <- Txn.Aborted;
            st.metrics.Metrics.logic_aborted <-
              st.metrics.Metrics.logic_aborted + 1
        | Exec.Blocked -> assert false);
        txn.Txn.finish_time <- Sim.now st.sim;
        Stats.Hist.add st.metrics.Metrics.lat
          (txn.Txn.finish_time - txn.Txn.submit_time);
        (match (st.clients, crt.entry) with
        | Some c, Some e ->
            Quill_clients.Clients.complete c e ~ok:(outcome = Exec.Ok)
        | _ -> ());
        st.completed <- st.completed + 1;
        if st.completed = st.total then
          (* Poison the pool: everyone still blocked can exit.  (Client
             mode poisons from the scheduler instead: total is max_int.) *)
          poison st;
        loop ()
  in
  loop ()

let run ?sim ?clients cfg wl ~txns =
  assert (cfg.workers > 0);
  let sim =
    match sim with
    | Some s -> s
    | None -> Sim.create ~wake_cost:cfg.costs.Costs.wakeup ()
  in
  let st =
    {
      sim;
      costs = cfg.costs;
      db = wl.Workload.db;
      locktab = Hashtbl.create 4096;
      work = Sim.Chan.create ();
      metrics = Metrics.create ();
      completed = 0;
      total = (match clients with None -> txns | Some _ -> max_int);
      nworkers = cfg.workers;
      clients;
    }
  in
  Sim.spawn sim (fun () -> scheduler st wl ~txns);
  for _ = 1 to cfg.workers do
    Sim.spawn sim (fun () -> worker st wl)
  done;
  let parked = Sim.run sim in
  if parked <> 0 && txns > 0 then
    failwith (Printf.sprintf "Calvin.run: %d threads deadlocked" parked);
  Metrics.record_sim st.metrics sim ~threads:(cfg.workers + 1);
  st.metrics.Metrics.batches <- (txns + cfg.batch_size - 1) / cfg.batch_size;
  st.metrics
