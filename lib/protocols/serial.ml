open Quill_sim
open Quill_txn
module Commit_point = Quill_commit.Commit_point

let exec_one sim costs metrics direct txn =
  let txn = Txn.admit sim costs (fun () -> txn) in
  let ok = Direct.run direct txn = Exec.Ok in
  Metrics.retire metrics txn ~ok ~now:(Sim.now sim);
  ok

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
        Commit_point.touch_insert cp 0 ~table row ~by:!in_group)
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
              if
                Sim.in_phase sim Sim.Ph_execute tid (fun () ->
                    exec_one sim costs metrics direct txn)
              then incr group_committed;
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
  let sim = Sim.of_costs ?sim costs in
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
  let sim = Sim.of_costs ?sim costs in
  let remaining = ref txns in
  let next () =
    match !remaining with
    | [] -> None
    | t :: rest ->
        remaining := rest;
        Some t
  in
  run_list ?wal ?cdc ?crash_at ~batch_size sim costs wl next
