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
  let sim = Sim.of_costs ?sim cfg.costs in
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
    Sim.spawn sim (fun () ->
        let direct = Direct.create ~charge:Direct.Per_row sim cfg.costs wl in
        (* One transaction: partition locks, two coordination rounds,
           execute. *)
        Quill_clients.Clients.serve ?clients wl ~workers:cfg.workers ~worker:w
          ~txns (fun draw ->
            let txn = Txn.admit sim cfg.costs draw in
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
              Sim.in_phase sim Sim.Ph_execute (Sim.current_tid sim) (fun () ->
                  Pcommon.run_locked direct txn)
            in
            coordination_round st k;
            List.iter
              (fun p ->
                Sim.tick sim cfg.costs.Costs.lock_release;
                Plock.release sim st.plocks.(p))
              parts;
            assert (outcome <> Exec.Blocked);
            let ok = outcome = Exec.Ok in
            Metrics.retire st.metrics txn ~ok ~now:(Sim.now sim);
            ok))
  done;
  let parked = Sim.run sim in
  if parked <> 0 then
    failwith (Printf.sprintf "Hstore.run: %d workers deadlocked" parked);
  Metrics.record_sim st.metrics sim ~threads:cfg.workers;
  st.metrics
