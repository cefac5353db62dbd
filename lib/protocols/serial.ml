open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Commit_point = Quill_commit.Commit_point

let dummy_row = Row.make ~key:(-1) ~nfields:1

type state = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  wl : Workload.t;
  cp : Commit_point.t;
  metrics : Metrics.t;
  mutable cur_row : Row.t;
  mutable cur_found : bool;
  mutable undo : (Row.t * int array) list;
  mutable inserts : (int * int) list;
  mutable slots : int array;
  mutable group : int;  (* commit-group number *)
  mutable in_group : int;  (* transactions run in the open group *)
}

let make_ctx st =
  let read (frag : Fragment.t) field =
    ignore frag;
    Sim.tick st.sim st.costs.Costs.row_read;
    if st.cur_found then st.cur_row.Row.data.(field) else 0
  in
  let write (frag : Fragment.t) field v =
    Sim.tick st.sim st.costs.Costs.row_write;
    if st.cur_found then begin
      let row = st.cur_row in
      st.undo <- (row, Array.copy row.Row.data) :: st.undo;
      Commit_point.touch st.cp 0 ~table:frag.Fragment.table row;
      row.Row.data.(field) <- v
    end
  in
  let add frag field d = write frag field (read frag field + d) in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick st.sim st.costs.Costs.index_insert;
    let tbl = Db.table st.db frag.Fragment.table in
    let home = Db.home st.db frag.Fragment.table frag.Fragment.key in
    let row = Table.insert tbl ~home ~key payload in
    Commit_point.touch_insert st.cp 0 ~table:frag.Fragment.table row
      ~batch:st.group ~by:st.in_group;
    st.inserts <- (frag.Fragment.table, key) :: st.inserts
  in
  let input fid = st.slots.(fid) in
  let output fid v = if fid < Array.length st.slots then st.slots.(fid) <- v in
  let found _ = st.cur_found in
  { Exec.read; write; add; insert; input; output; found }

let exec_one st ctx txn =
  let costs = st.costs in
  Sim.tick st.sim costs.Costs.txn_overhead;
  txn.Txn.submit_time <- Sim.now st.sim;
  txn.Txn.status <- Txn.Active;
  txn.Txn.attempts <- txn.Txn.attempts + 1;
  st.undo <- [];
  st.inserts <- [];
  st.slots <- Array.make (Array.length txn.Txn.frags) 0;
  let frags = txn.Txn.frags in
  let rec go i =
    if i >= Array.length frags then Exec.Ok
    else begin
      let frag = frags.(i) in
      (match frag.Fragment.mode with
      | Fragment.Insert ->
          st.cur_row <- dummy_row;
          st.cur_found <- true
      | Fragment.Read | Fragment.Write | Fragment.Rmw -> (
          Sim.tick st.sim costs.Costs.index_probe;
          match Table.find (Db.table st.db frag.Fragment.table)
                  frag.Fragment.key
          with
          | Some row ->
              st.cur_row <- row;
              st.cur_found <- true
          | None ->
              st.cur_row <- dummy_row;
              st.cur_found <- false));
      Sim.tick st.sim costs.Costs.logic;
      match st.wl.Workload.exec ctx txn frag with
      | Exec.Ok -> go (i + 1)
      | (Exec.Abort | Exec.Blocked) as r -> r
    end
  in
  (match go 0 with
  | Exec.Ok ->
      txn.Txn.status <- Txn.Committed;
      st.metrics.Metrics.committed <- st.metrics.Metrics.committed + 1
  | Exec.Abort | Exec.Blocked ->
      List.iter
        (fun (row, saved) ->
          Sim.tick st.sim costs.Costs.abort_cleanup;
          Row.restore row saved)
        st.undo;
      List.iter
        (fun (tid, key) -> Table.remove (Db.table st.db tid) key)
        st.inserts;
      txn.Txn.status <- Txn.Aborted;
      st.metrics.Metrics.logic_aborted <- st.metrics.Metrics.logic_aborted + 1);
  txn.Txn.finish_time <- Sim.now st.sim;
  Stats.Hist.add st.metrics.Metrics.lat
    (txn.Txn.finish_time - txn.Txn.submit_time)

let run_list ?wal ?cdc ?crash_at ~batch_size sim costs wl next =
  let db = wl.Workload.db in
  let cp = Commit_point.create ?wal ?cdc ?crash_at ~slots:1 sim db in
  let st =
    {
      sim;
      costs;
      db;
      wl;
      cp;
      metrics = Metrics.create ();
      cur_row = dummy_row;
      cur_found = false;
      undo = [];
      inserts = [];
      slots = [||];
      group = 0;
      in_group = 0;
    }
  in
  let ctx = make_ctx st in
  Sim.spawn sim (fun () ->
      let tid = Sim.current_tid sim in
      (* Group commit: [batch_size] transactions share one commit point
         (one stage, publish, WAL flush and feed seal), the serial
         analogue of a QueCC batch. *)
      let group_committed = ref 0 in
      let close_group () =
        Commit_point.stage cp ~batch_no:st.group ~txns:!group_committed;
        Commit_point.publish cp 0;
        Commit_point.seal cp st.metrics ~tid;
        st.group <- st.group + 1;
        st.in_group <- 0;
        group_committed := 0
      in
      let rec loop () =
        (* The crash lands between transactions: the open group was
           never flushed and is lost with the process. *)
        if Commit_point.crash_due cp then Commit_point.seal cp st.metrics ~tid
        else
          match next () with
          | None -> if st.in_group > 0 then close_group ()
          | Some txn ->
              let c0 = st.metrics.Metrics.committed in
              Sim.in_phase sim Sim.Ph_execute tid (fun () ->
                  exec_one st ctx txn);
              if st.metrics.Metrics.committed > c0 then incr group_committed;
              st.in_group <- st.in_group + 1;
              if st.in_group >= batch_size then close_group ();
              loop ()
      in
      loop ());
  let parked = Sim.run sim in
  assert (parked = 0);
  let m = st.metrics in
  Metrics.record_sim m sim ~threads:1;
  Commit_point.record cp m;
  m

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
