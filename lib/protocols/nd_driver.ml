open Quill_common
open Quill_sim
open Quill_txn

(* Backoff needs per-worker jitter: in a deterministic simulation two
   conflicting workers with identical backoff schedules would collide in
   lockstep forever. *)

module type CC = sig
  val name : string

  type t

  val create : Sim.t -> Costs.t -> Quill_storage.Db.t -> t

  val run_txn :
    t -> wid:int -> Workload.t -> Txn.t -> Exec.outcome
end

type cfg = { workers : int; costs : Costs.t }

let default_cfg = { workers = 4; costs = Costs.default }

(* Retry backoff in virtual ns: the base, doubled per retry up to the cap. *)
let backoff = 500
let max_backoff = 200_000

let run ?sim ?clients (module P : CC) cfg wl ~txns =
  assert (cfg.workers > 0 && txns >= 0);
  let sim =
    match sim with
    | Some s -> s
    | None -> Sim.create ~wake_cost:cfg.costs.Costs.wakeup ()
  in
  let state = P.create sim cfg.costs wl.Workload.db in
  let metrics = Metrics.create () in
  for w = 0 to cfg.workers - 1 do
    let quota = (txns / cfg.workers) + if w < txns mod cfg.workers then 1 else 0 in
    Sim.spawn sim (fun () ->
        let tid = Sim.current_tid sim in
        let jitter = Rng.create ((w * 2654435761) + 17) in
        (* One admitted transaction: attempt with internal CC backoff
           until it commits or its own logic aborts; true = committed. *)
        let exec_txn txn =
          let committed = ref false in
          Sim.in_phase sim Sim.Ph_execute tid (fun () ->
              let rec attempt backoff =
                txn.Txn.attempts <- txn.Txn.attempts + 1;
                txn.Txn.status <- Txn.Active;
                match P.run_txn state ~wid:w wl txn with
                | Exec.Ok ->
                    txn.Txn.status <- Txn.Committed;
                    metrics.Metrics.committed <- metrics.Metrics.committed + 1;
                    committed := true
                | Exec.Abort ->
                    txn.Txn.status <- Txn.Aborted;
                    metrics.Metrics.logic_aborted <-
                      metrics.Metrics.logic_aborted + 1
                | Exec.Blocked ->
                    metrics.Metrics.cc_aborts <- metrics.Metrics.cc_aborts + 1;
                    Sim.sleep sim (backoff + Rng.int jitter (backoff + 1));
                    attempt (min (backoff * 2) max_backoff)
              in
              attempt backoff);
          txn.Txn.finish_time <- Sim.now sim;
          Stats.Hist.add metrics.Metrics.lat
            (txn.Txn.finish_time - txn.Txn.submit_time);
          !committed
        in
        match clients with
        | None ->
            let stream = wl.Workload.new_stream w in
            for _ = 1 to quota do
              let txn =
                Sim.in_phase sim Sim.Ph_plan tid (fun () ->
                    Sim.tick sim cfg.costs.Costs.txn_overhead;
                    let txn = stream () in
                    txn.Txn.submit_time <- Sim.now sim;
                    txn)
              in
              ignore (exec_txn txn)
            done
        | Some c ->
            (* Open loop: each worker pulls from the shared admission
               queue until the client layer is exhausted; client-level
               abort->retry goes back through the queue. *)
            let rec loop () =
              match Quill_clients.Clients.take c ~node:0 with
              | None -> ()
              | Some e ->
                  let txn = e.Quill_clients.Clients.txn in
                  Sim.in_phase sim Sim.Ph_plan tid (fun () ->
                      Sim.tick sim cfg.costs.Costs.txn_overhead;
                      txn.Txn.submit_time <- Sim.now sim);
                  let ok = exec_txn txn in
                  Quill_clients.Clients.complete c e ~ok;
                  loop ()
            in
            loop ())
  done;
  let parked = Sim.run sim in
  if parked <> 0 then
    failwith (Printf.sprintf "Nd_driver(%s): %d workers deadlocked" P.name parked);
  Metrics.record_sim metrics sim ~threads:cfg.workers;
  metrics
