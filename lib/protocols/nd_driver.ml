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
  let sim = Sim.of_costs ?sim cfg.costs in
  let state = P.create sim cfg.costs wl.Workload.db in
  let metrics = Metrics.create () in
  for w = 0 to cfg.workers - 1 do
    Sim.spawn sim (fun () ->
        let tid = Sim.current_tid sim in
        let jitter = Rng.create ((w * 2654435761) + 17) in
        (* One transaction: admit it, then attempt with internal CC
           backoff until it commits or its own logic aborts. *)
        Quill_clients.Clients.serve ?clients wl ~workers:cfg.workers ~worker:w
          ~txns (fun draw ->
            let txn =
              Sim.in_phase sim Sim.Ph_plan tid (fun () ->
                  Txn.admit sim cfg.costs draw)
            in
            let ok =
              Sim.in_phase sim Sim.Ph_execute tid (fun () ->
                  let rec attempt backoff =
                    match P.run_txn state ~wid:w wl txn with
                    | Exec.Ok -> true
                    | Exec.Abort -> false
                    | Exec.Blocked ->
                        metrics.Metrics.cc_aborts <-
                          metrics.Metrics.cc_aborts + 1;
                        Sim.sleep sim (backoff + Rng.int jitter (backoff + 1));
                        txn.Txn.attempts <- txn.Txn.attempts + 1;
                        attempt (min (backoff * 2) max_backoff)
                  in
                  attempt backoff)
            in
            Metrics.retire metrics txn ~ok ~now:(Sim.now sim);
            ok))
  done;
  let parked = Sim.run sim in
  if parked <> 0 then
    failwith (Printf.sprintf "Nd_driver(%s): %d workers deadlocked" P.name parked);
  Metrics.record_sim metrics sim ~threads:cfg.workers;
  metrics
