open Quill_sim
open Quill_txn

type cfg = { workers : int; batch_size : int; costs : Costs.t }

type crt = { txn : Txn.t; entry : Quill_clients.Clients.entry option }

type state = {
  sim : Sim.t;
  costs : Costs.t;
  locks : crt Dlock.t;
  work : crt Dlock.ticket option Sim.Chan.ch;
  metrics : Metrics.t;
  mutable completed : int;
  mutable total : int;
  nworkers : int;
  clients : Quill_clients.Clients.t option;
}

(* Admit in sequence order and request the transaction's locks; the
   lock table dispatches it to the worker pool once it holds them all. *)
let sequence st txn entry =
  let txn = Txn.admit st.sim st.costs (fun () -> txn) in
  Dlock.acquire st.locks { txn; entry } (Dlock.lock_set txn)

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
    | Some tk ->
        let crt = Dlock.owner tk in
        let outcome =
          Sim.in_phase st.sim Sim.Ph_execute tid (fun () ->
              Pcommon.run_locked direct crt.txn)
        in
        Dlock.release st.locks tk;
        assert (outcome <> Exec.Blocked);
        let ok = outcome = Exec.Ok in
        Metrics.retire st.metrics crt.txn ~ok ~now:(Sim.now st.sim);
        (match (st.clients, crt.entry) with
        | Some c, Some e -> Quill_clients.Clients.complete c e ~ok
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
  let sim = Sim.of_costs ?sim cfg.costs in
  let work = Sim.Chan.create () in
  let st =
    {
      sim;
      costs = cfg.costs;
      locks =
        Dlock.create sim cfg.costs ~on_grant:(fun tk ->
            Sim.Chan.send sim work (Some tk));
      work;
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
