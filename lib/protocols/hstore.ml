open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn

type cfg = { workers : int; costs : Costs.t }

type state = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  plocks : Plock.t array;
  metrics : Metrics.t;
}

(* Partition of a fragment, folded onto the worker count. *)
let fpart st workers (f : Fragment.t) =
  Db.home st.db f.Fragment.table f.Fragment.key mod workers

let txn_parts st workers txn =
  let seen = Array.make workers false in
  Array.iter
    (fun f -> seen.(fpart st workers f) <- true)
    txn.Txn.frags;
  let acc = ref [] in
  for p = workers - 1 downto 0 do
    if seen.(p) then acc := p :: !acc
  done;
  !acc

let coordination_round st k =
  (* Coordinator exchanges one message with each other participant. *)
  if k > 1 then begin
    Sim.tick st.sim (st.costs.Costs.msg_fixed * (k - 1));
    Sim.sleep st.sim (2 * st.costs.Costs.ipc_latency);
    st.metrics.Metrics.msgs <- st.metrics.Metrics.msgs + (2 * (k - 1))
  end

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
      plocks = Array.init cfg.workers (fun _ -> Plock.create ());
      metrics = Metrics.create ();
    }
  in
  for w = 0 to cfg.workers - 1 do
    let quota =
      (txns / cfg.workers) + if w < txns mod cfg.workers then 1 else 0
    in
    Sim.spawn sim (fun () ->
        let direct = Direct.create ~charge:Direct.Per_row sim cfg.costs wl in
        (* One admitted transaction: partition locks, two coordination
           rounds, execute; true = committed. *)
        let do_txn txn =
          Sim.tick sim cfg.costs.Costs.txn_overhead;
          txn.Txn.submit_time <- Sim.now sim;
          txn.Txn.status <- Txn.Active;
          txn.Txn.attempts <- txn.Txn.attempts + 1;
          let parts = txn_parts st cfg.workers txn in
          let k = List.length parts in
          (* Deterministic deadlock-free acquisition: ascending order. *)
          List.iter
            (fun p ->
              Sim.tick sim cfg.costs.Costs.lock_acquire;
              Plock.acquire sim st.plocks.(p))
            parts;
          coordination_round st k;
          let outcome =
            Sim.in_phase sim Sim.Ph_execute (Sim.current_tid sim)
              (fun () -> Pcommon.run_locked direct txn)
          in
          coordination_round st k;
          List.iter
            (fun p ->
              Sim.tick sim cfg.costs.Costs.lock_release;
              Plock.release sim st.plocks.(p))
            parts;
          (match outcome with
          | Exec.Ok ->
              txn.Txn.status <- Txn.Committed;
              st.metrics.Metrics.committed <- st.metrics.Metrics.committed + 1
          | Exec.Abort ->
              txn.Txn.status <- Txn.Aborted;
              st.metrics.Metrics.logic_aborted <-
                st.metrics.Metrics.logic_aborted + 1
          | Exec.Blocked -> assert false);
          txn.Txn.finish_time <- Sim.now sim;
          Stats.Hist.add st.metrics.Metrics.lat
            (txn.Txn.finish_time - txn.Txn.submit_time);
          outcome = Exec.Ok
        in
        match clients with
        | None ->
            let stream = wl.Workload.new_stream w in
            for _ = 1 to quota do
              ignore (do_txn (stream ()))
            done
        | Some c ->
            let rec loop () =
              match Quill_clients.Clients.take c ~node:0 with
              | None -> ()
              | Some e ->
                  let ok = do_txn e.Quill_clients.Clients.txn in
                  Quill_clients.Clients.complete c e ~ok;
                  loop ()
            in
            loop ())
  done;
  let parked = Sim.run sim in
  if parked <> 0 then
    failwith (Printf.sprintf "Hstore.run: %d workers deadlocked" parked);
  Metrics.record_sim st.metrics sim ~threads:cfg.workers;
  st.metrics
