open Quill_common
open Quill_sim
open Quill_txn
module Commit_point = Quill_commit.Commit_point

let exec_one sim (costs : Costs.t) metrics direct txn =
  Sim.tick sim costs.Costs.txn_overhead;
  txn.Txn.submit_time <- Sim.now sim;
  txn.Txn.status <- Txn.Active;
  txn.Txn.attempts <- txn.Txn.attempts + 1;
  (match Direct.run direct txn with
  | Exec.Ok ->
      txn.Txn.status <- Txn.Committed;
      metrics.Metrics.committed <- metrics.Metrics.committed + 1
  | Exec.Abort | Exec.Blocked ->
      txn.Txn.status <- Txn.Aborted;
      metrics.Metrics.logic_aborted <- metrics.Metrics.logic_aborted + 1);
  txn.Txn.finish_time <- Sim.now sim;
  Stats.Hist.add metrics.Metrics.lat (txn.Txn.finish_time - txn.Txn.submit_time)

let run_list ?wal ?cdc ?crash_at ~batch_size sim costs wl next =
  let cp =
    Commit_point.create ?wal ?cdc ?crash_at ~slots:1 sim wl.Workload.db
  in
  let metrics = Metrics.create () in
  let group = ref 0 (* commit-group number *)
  and in_group = ref 0 (* transactions run in the open group *) in
  let direct =
    Direct.create ~touch:(Commit_point.touch cp 0)
      ~inserted:(fun ~table row ->
        Commit_point.touch_insert cp 0 ~table row ~batch:!group ~by:!in_group)
      sim costs wl
  in
  Sim.spawn sim (fun () ->
      let tid = Sim.current_tid sim in
      (* Group commit: [batch_size] transactions share one commit point
         (one stage, publish, WAL flush and feed seal), the serial
         analogue of a QueCC batch. *)
      let group_committed = ref 0 in
      let close_group () =
        Commit_point.stage cp ~batch_no:!group ~txns:!group_committed;
        Commit_point.publish cp 0;
        Commit_point.seal cp metrics ~tid;
        incr group;
        in_group := 0;
        group_committed := 0
      in
      let rec loop () =
        (* The crash lands between transactions: the open group was
           never flushed and is lost with the process. *)
        if Commit_point.crash_due cp then Commit_point.seal cp metrics ~tid
        else
          match next () with
          | None -> if !in_group > 0 then close_group ()
          | Some txn ->
              let c0 = metrics.Metrics.committed in
              Sim.in_phase sim Sim.Ph_execute tid (fun () ->
                  exec_one sim costs metrics direct txn);
              if metrics.Metrics.committed > c0 then incr group_committed;
              incr in_group;
              if !in_group >= batch_size then close_group ();
              loop ()
      in
      loop ());
  let parked = Sim.run sim in
  assert (parked = 0);
  Metrics.record_sim metrics sim ~threads:1;
  Commit_point.record cp metrics;
  metrics

let run ?sim ?(costs = Costs.default) ?wal ?cdc ?crash_at
    ?(batch_size = 1024) wl ~txns =
  let sim =
    match sim with
    | Some s -> s
    | None -> Sim.create ~wake_cost:costs.Costs.wakeup ()
  in
  let stream = wl.Workload.new_stream 0 in
  let remaining = ref txns in
  let next () =
    if !remaining <= 0 then None
    else begin
      decr remaining;
      Some (stream ())
    end
  in
  run_list ?wal ?cdc ?crash_at ~batch_size sim costs wl next

let run_txns ?sim ?(costs = Costs.default) ?wal ?cdc ?crash_at
    ?(batch_size = 1024) wl txns =
  let sim =
    match sim with
    | Some s -> s
    | None -> Sim.create ~wake_cost:costs.Costs.wakeup ()
  in
  let remaining = ref txns in
  let next () =
    match !remaining with
    | [] -> None
    | t :: rest ->
        remaining := rest;
        Some t
  in
  run_list ?wal ?cdc ?crash_at ~batch_size sim costs wl next
