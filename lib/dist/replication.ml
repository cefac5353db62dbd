(* Speculative queue replication and leader failover (HA-QueCC).

   The dist-quecc leader streams every planned batch — the same queues
   that already serve as the schedule and the crash-redo log — to [r]
   backup nodes over a dedicated replication network.  Backups execute
   each batch speculatively, in global batch-slot order, against a
   deep-cloned replica database as soon as (a) the batch is fully
   received and (b) it is within [spec_lag] batches of the last
   commit marker; effects stay in the replica's live versions and are
   only made visible (published to the committed versions) when the
   leader's commit marker for that batch arrives.  Each backup
   acknowledges a batch once it is received AND speculatively executed;
   the leader does not commit a batch before every backup acked it, so
   the ack path doubles as backpressure: a lagging backup stalls the
   leader rather than falling unboundedly behind.

   Failover: backups detect leader silence with [Net.recv_timeout]
   (the leader heartbeats between batches), broadcast deterministic
   election votes carrying the highest fully-replicated batch each has
   seen, and agree on (w, f) = (lowest live backup id, min of the
   votes).  Every accounted batch was acked by every backup, so
   f is never behind the leader's commit cursor: no committed
   transaction can be lost.  All backups then finalize batches <= f
   (speculative execution made them instantly committable) and undo
   speculative work > f; the new leader re-plans the in-flight batches
   from the workload's deterministic streams and resumes the protocol
   with the remaining backups. *)

open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn

(* Heartbeat period and the silence window that declares the leader
   dead.  Sized from the network latency so fault-plan jitter (bounded
   retransmission delays) cannot trigger a spurious election. *)
let heartbeat_every (c : Costs.t) = max 20_000 (5 * c.Costs.net_latency)
let detect_timeout c = 8 * heartbeat_every c

type rmsg =
  | Rep_batch of { batch : int; part : int; txns : Txn.t array }
      (* one planner's slice of a batch (the whole batch, in [part] 0,
         after a failover re-plan); txns arrive in batch-slot order *)
  | Rep_commit of { batch : int }
  | Rep_ack of { batch : int; backup : int }
  | Rep_hb
  | Rep_elect of { backup : int; full : int }
  | Rep_stop

(* Per-transaction speculative record: outcome plus enough undo state
   to erase the transaction if its batch never commits. *)
type trec = {
  t_txn : Txn.t;
  mutable t_ok : bool;
  mutable t_undo : (Row.t * int array) list;
  mutable t_inserts : (int * int) list;
}

(* Per-batch record on a backup. *)
type brec = {
  b_slices : Txn.t array option array;
  mutable b_have : int;
  mutable b_trecs : trec array;          (* [||] until spec-executed *)
  mutable b_publish : (Row.t * int array) list;
      (* end-of-batch snapshots of every row the batch wrote; publishing
         blits these (not the current live data, which later speculative
         batches may have overwritten) into the committed versions *)
  mutable b_specced : bool;
  mutable b_published : bool;
}

type backup = {
  k_id : int;                            (* replication-net node id *)
  k_db : Db.t;                           (* deep clone of the leader db *)
  k_recs : brec array;                   (* per batch *)
  mutable k_full : int;      (* largest F with batches 0..F fully received *)
  mutable k_commit : int;                (* last published batch *)
  mutable k_spec : int;                  (* last spec-executed batch *)
  mutable k_required : int;  (* slices per batch: p_global, 1 after failover *)
  mutable k_leader : int;
  k_written : Row.t Vec.t;               (* current batch's written rows *)
}

type t = {
  sim : Sim.t;
  costs : Costs.t;
  wl : Workload.t;
  net : rmsg Net.t;
  replicas : int;
  spec_lag : int;
  slices : int;                          (* planner slices per batch *)
  total_batches : int;
  metrics : Metrics.t;
  backups : backup array;
  acks : (int, unit Sim.Ivar.iv) Hashtbl.t;  (* leader: all-acked per batch *)
  ack_counts : (int, int ref) Hashtbl.t;
  hb_stop : unit Sim.Chan.ch;
  halted : unit -> bool;                 (* leader killed by the fault plan *)
  committed_batches : unit -> int;       (* leader accounting cursor *)
  replan : first:int -> unit -> Txn.t array;
      (* re-draw the workload streams and yield successive re-planned
         batches starting at [first] (deterministic: same seed, same
         transactions the dead leader would have planned) *)
  mutable failed_over : bool;
  mutable winner : int;
}

(* The replication network carries no fault plan: it models a reliable
   ordered transport (the leader->backup stream of the HA design), so a
   delayed heartbeat cannot fake a leader death and a dead leader's
   stragglers cannot arrive after the election settled.  The engine's
   main interconnect still carries the full fault plan — the leader
   crash itself is injected there. *)
let create ~sim ~costs ~wl ~replicas ~spec_lag ~slices ~total_batches
    ~metrics ~halted ~committed_batches ~replan () =
  let db = wl.Workload.db in
  {
    sim;
    costs;
    wl;
    net = Net.create sim costs ~nodes:(1 + replicas);
    replicas;
    spec_lag;
    slices;
    total_batches;
    metrics;
    backups =
      Array.init replicas (fun i ->
          {
            k_id = i + 1;
            k_db = Db.clone db;
            k_recs =
              Array.init total_batches (fun _ ->
                  {
                    b_slices = Array.make slices None;
                    b_have = 0;
                    b_trecs = [||];
                    b_publish = [];
                    b_specced = false;
                    b_published = false;
                  });
            k_full = -1;
            k_commit = -1;
            k_spec = -1;
            k_required = slices;
            k_leader = 0;
            k_written = Vec.create ();
          });
    acks = Hashtbl.create 64;
    ack_counts = Hashtbl.create 64;
    hb_stop = Sim.Chan.create ();
    halted;
    committed_batches;
    replan;
    failed_over = false;
    winner = 0;
  }

let replica_db t i = t.backups.(i).k_db
let failed_over t = t.failed_over
let winner_db t = t.backups.(t.winner - 1).k_db

(* ------------------------------------------------------------------ *)
(* Leader side                                                         *)
(* ------------------------------------------------------------------ *)

let ack_iv t batch = Dist_rt.get_iv t.acks batch

let bytes_of_txns txns =
  32 * max 1 (Array.fold_left (fun a (x : Txn.t) ->
                  a + Array.length x.Txn.frags) 0 txns)

(* Planner hook: stream one planned slice to every backup. *)
let ship t ~batch ~part txns =
  let bytes = bytes_of_txns txns in
  for j = 1 to t.replicas do
    Net.send t.net ~src:0 ~dst:j ~bytes (Rep_batch { batch; part; txns })
  done

(* Commit gate: the leader's coordinator blocks here before accounting
   a batch — every backup must have received and spec-executed it. *)
let await_acks t ~batch = Sim.Ivar.read t.sim (ack_iv t batch)

let committed t ~batch =
  for j = 1 to t.replicas do
    Net.send t.net ~src:0 ~dst:j ~bytes:8 (Rep_commit { batch })
  done

let stop t =
  for j = 1 to t.replicas do
    Net.send t.net ~src:0 ~dst:j ~bytes:8 Rep_stop
  done;
  (* loopback: releases the ack listener *)
  Net.send t.net ~src:0 ~dst:0 ~bytes:8 Rep_stop;
  Sim.Chan.send t.sim t.hb_stop ()

(* Fault-plan kill: poison every ack gate the coordinator could be
   blocked on and release the leader-local replication threads.  The
   backups are NOT notified — they must detect the silence. *)
let kill_leader t =
  for b = 0 to t.total_batches - 1 do
    let iv = ack_iv t b in
    if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill t.sim iv ()
  done;
  Net.send t.net ~src:0 ~dst:0 ~bytes:8 Rep_stop;
  Sim.Chan.send t.sim t.hb_stop ()

let ack_listener t =
  let rec loop () =
    match Net.recv t.net ~node:0 with
    | Rep_ack { batch; _ } ->
        let c =
          match Hashtbl.find_opt t.ack_counts batch with
          | Some r -> r
          | None ->
              let r = ref 0 in
              Hashtbl.replace t.ack_counts batch r;
              r
        in
        incr c;
        if !c = t.replicas then begin
          let iv = ack_iv t batch in
          if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill t.sim iv ()
        end;
        loop ()
    | Rep_stop -> ()
    | _ -> loop ()
  in
  loop ()

let heartbeat t =
  let every = heartbeat_every t.costs in
  let rec loop () =
    match Sim.Chan.recv_timeout t.sim t.hb_stop ~timeout:every with
    | Some () -> ()
    | None ->
        if not (t.halted ()) then begin
          for j = 1 to t.replicas do
            Net.send t.net ~src:0 ~dst:j ~bytes:8 Rep_hb
          done;
          loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Backup side: speculative execution                                  *)
(* ------------------------------------------------------------------ *)

(* A backup's runner executes against the replica database, writing the
   live versions only: each transaction keeps its undo log and each batch
   a written-row set ([k_written]), so a batch is both publishable
   (commit marker) and erasable (failover) after the fact. *)
let backup_runner t bk =
  Direct.create ~db:bk.k_db ~charge:Direct.Per_txn
    ~touch:(fun ~table:_ row ->
      if not row.Row.dirty then begin
        row.Row.dirty <- true;
        Vec.push bk.k_written row
      end)
    t.sim t.costs t.wl

let undo_trec db tr =
  Direct.revert db tr.t_undo tr.t_inserts;
  tr.t_undo <- [];
  tr.t_inserts <- []

(* Speculatively execute one transaction; commit-or-restore against the
   replica's live versions only. *)
let spec_txn t direct txn =
  Sim.tick t.sim t.costs.Costs.txn_overhead;
  let ok = Direct.run direct txn = Exec.Ok in
  {
    t_txn = txn;
    t_ok = ok;
    t_undo = (if ok then Direct.undo direct else []);
    t_inserts = (if ok then Direct.inserts direct else []);
  }

(* All slices of a fully-received batch, concatenated in planner order
   (= global batch-slot order: planner slices are contiguous ascending). *)
let batch_txns bk b =
  let r = bk.k_recs.(b) in
  Array.concat (List.filter_map Fun.id (Array.to_list r.b_slices))

let spec_batch t bk st b =
  Sim.set_phase t.sim Sim.Ph_execute;
  let r = bk.k_recs.(b) in
  let txns = batch_txns bk b in
  Vec.clear bk.k_written;
  r.b_trecs <- Array.map (spec_txn t st) txns;
  (* Snapshot each written row's end-of-batch live value: that — not
     whatever later speculative batches leave in [data] — is what the
     commit marker publishes. *)
  let pub = ref [] in
  Vec.iter
    (fun row ->
      row.Row.dirty <- false;
      pub := (row, Array.copy row.Row.data) :: !pub)
    bk.k_written;
  r.b_publish <- !pub;
  r.b_specced <- true;
  bk.k_spec <- b;
  let m = t.metrics in
  m.Metrics.spec_executed <- m.Metrics.spec_executed + Array.length txns;
  let lag = b - bk.k_commit in
  if lag > m.Metrics.rep_lag_max then m.Metrics.rep_lag_max <- lag;
  Sim.set_phase t.sim Sim.Ph_other

let spec_ready t bk st =
  (* speculate ahead while fully received and within the lag bound *)
  while
    bk.k_spec + 1 <= bk.k_full
    && bk.k_spec + 1 <= bk.k_commit + t.spec_lag
  do
    let b = bk.k_spec + 1 in
    spec_batch t bk st b;
    Net.send t.net ~src:bk.k_id ~dst:bk.k_leader ~bytes:8
      (Rep_ack { batch = b; backup = bk.k_id })
  done

let publish_to t bk f =
  for b = bk.k_commit + 1 to f do
    let r = bk.k_recs.(b) in
    assert (r.b_specced && not r.b_published);
    Sim.set_phase t.sim Sim.Ph_publish;
    List.iter
      (fun (row, snap) ->
        Sim.tick t.sim t.costs.Costs.row_write;
        Array.blit snap 0 row.Row.committed 0 (Array.length snap))
      r.b_publish;
    r.b_published <- true;
    Sim.set_phase t.sim Sim.Ph_other
  done;
  if f > bk.k_commit then bk.k_commit <- f

let store_slice bk ~batch ~part txns =
  let r = bk.k_recs.(batch) in
  if r.b_slices.(part) = None then begin
    r.b_slices.(part) <- Some txns;
    r.b_have <- r.b_have + 1;
    while
      bk.k_full + 1 < Array.length bk.k_recs
      && bk.k_recs.(bk.k_full + 1).b_have >= bk.k_required
    do
      bk.k_full <- bk.k_full + 1
    done
  end

(* ------------------------------------------------------------------ *)
(* Failover                                                            *)
(* ------------------------------------------------------------------ *)

(* Finalize a batch's accounting from the speculative records: the new
   leader owns the metrics the dead leader can no longer produce. *)
let account_batch t bk b =
  let now = Sim.now t.sim in
  let m = t.metrics in
  Array.iter
    (fun tr -> Metrics.retire m tr.t_txn ~ok:tr.t_ok ~now)
    bk.k_recs.(b).b_trecs;
  m.Metrics.batches <- m.Metrics.batches + 1

(* The new leader's protocol loop: re-plan each in-flight batch from the
   deterministic workload streams, stream it to the surviving backups,
   execute it locally, gate the commit on their acks, publish, account,
   and broadcast the commit marker. *)
let leader_loop t bk st ~first =
  let gen = t.replan ~first in
  for b = first to t.total_batches - 1 do
    Sim.set_phase t.sim Sim.Ph_plan;
    let txns = gen () in
    Sim.set_phase t.sim Sim.Ph_other;
    let bytes = bytes_of_txns txns in
    for j = 1 to t.replicas do
      if j <> bk.k_id then
        Net.send t.net ~src:bk.k_id ~dst:j ~bytes
          (Rep_batch { batch = b; part = 0; txns })
    done;
    store_slice bk ~batch:b ~part:0 txns;
    spec_batch t bk st b;
    let got = ref 0 in
    while !got < t.replicas - 1 do
      match Net.recv t.net ~node:bk.k_id with
      | Rep_ack { batch; _ } when batch = b -> incr got
      | _ -> ()
    done;
    publish_to t bk b;
    account_batch t bk b;
    for j = 1 to t.replicas do
      if j <> bk.k_id then
        Net.send t.net ~src:bk.k_id ~dst:j ~bytes:8 (Rep_commit { batch = b })
    done
  done;
  for j = 1 to t.replicas do
    if j <> bk.k_id then
      Net.send t.net ~src:bk.k_id ~dst:j ~bytes:8 Rep_stop
  done

exception Run_over

(* Leader presumed dead: elect, agree on the finalization point, roll
   speculation back to it, and either take over or follow the winner. *)
let failover t bk st ~pre =
  let t0 = Sim.now t.sim in
  Sim.set_phase t.sim Sim.Ph_recover;
  for j = 1 to t.replicas do
    if j <> bk.k_id then
      Net.send t.net ~src:bk.k_id ~dst:j ~bytes:16
        (Rep_elect { backup = bk.k_id; full = bk.k_full })
  done;
  let fmin = ref bk.k_full and wmin = ref bk.k_id and got = ref 0 in
  let vote ~backup ~full =
    if full < !fmin then fmin := full;
    if backup < !wmin then wmin := backup;
    incr got
  in
  (match pre with Some (backup, full) -> vote ~backup ~full | None -> ());
  while !got < t.replicas - 1 do
    match Net.recv t.net ~node:bk.k_id with
    | Rep_elect { backup; full } -> vote ~backup ~full
    | Rep_stop ->
        (* the run actually finished; the "silence" was the tail *)
        raise Run_over
    | Rep_batch _ | Rep_commit _ | Rep_hb | Rep_ack _ ->
        (* stragglers from the dead leader: anything beyond [k_full] is
           re-planned by the new leader, so they are safely ignored *)
        ()
  done;
  let f = !fmin and w = !wmin in
  (* Finalize: batches <= f are fully replicated everywhere and at most
     [spec_lag] ahead of our speculation point — execute any remainder,
     then make everything up to f visible. *)
  while bk.k_spec < f do
    spec_batch t bk st (bk.k_spec + 1)
  done;
  publish_to t bk f;
  (* Roll speculative batches beyond f back out of the live versions,
     newest first. *)
  let m = t.metrics in
  for b = bk.k_spec downto f + 1 do
    let r = bk.k_recs.(b) in
    let n = Array.length r.b_trecs in
    for i = n - 1 downto 0 do
      undo_trec bk.k_db r.b_trecs.(i)
    done;
    m.Metrics.spec_wasted <- m.Metrics.spec_wasted + n;
    r.b_trecs <- [||];
    r.b_publish <- [];
    r.b_specced <- false
  done;
  bk.k_spec <- f;
  (* Forget partially received batches: the new leader re-streams them
     as single whole-batch slices. *)
  for b = f + 1 to t.total_batches - 1 do
    let r = bk.k_recs.(b) in
    Array.fill r.b_slices 0 (Array.length r.b_slices) None;
    r.b_have <- 0
  done;
  bk.k_full <- f;
  bk.k_required <- 1;
  bk.k_leader <- w;
  Sim.set_phase t.sim Sim.Ph_other;
  t.failed_over <- true;
  t.winner <- w;
  if bk.k_id = w then begin
    m.Metrics.failovers <- m.Metrics.failovers + 1;
    (* Account the batches the dead leader never got to: they were
       acked by every backup, so they commit — zero lost transactions. *)
    for b = t.committed_batches () to f do
      account_batch t bk b
    done;
    m.Metrics.failover_time <- Sim.now t.sim - t0;
    leader_loop t bk st ~first:(f + 1)
  end

(* ------------------------------------------------------------------ *)
(* Backup thread                                                       *)
(* ------------------------------------------------------------------ *)

let backup_thread t bk =
  let st = backup_runner t bk in
  let detect = detect_timeout t.costs in
  let rec loop () =
    (* After a failover the protocol runs against the elected leader
       with no further failover support (the fault plan is limited to
       one leader crash), so the timeout is retired. *)
    let msg =
      if t.failed_over then Some (Net.recv t.net ~node:bk.k_id)
      else Net.recv_timeout t.net ~node:bk.k_id ~timeout:detect
    in
    match msg with
    | None ->
        failover t bk st ~pre:None;
        (* the winner ran [leader_loop] to the end of the run inside
           [failover]; followers go back to serving the new leader *)
        if bk.k_id <> t.winner then loop ()
    | Some Rep_hb -> loop ()
    | Some (Rep_batch { batch; part; txns }) ->
        store_slice bk ~batch ~part txns;
        spec_ready t bk st;
        loop ()
    | Some (Rep_commit { batch }) ->
        publish_to t bk batch;
        spec_ready t bk st;
        loop ()
    | Some (Rep_elect { backup; full }) ->
        (* another backup detected the silence first *)
        failover t bk st ~pre:(Some (backup, full));
        if bk.k_id <> t.winner then loop ()
    | Some (Rep_ack _) -> loop ()
    | Some Rep_stop -> ()
  in
  try loop () with Run_over -> ()

let spawn t =
  Sim.spawn t.sim (fun () -> ack_listener t);
  Sim.spawn t.sim (fun () -> heartbeat t);
  Array.iter (fun bk -> Sim.spawn t.sim (fun () -> backup_thread t bk)) t.backups

(* Extra virtual cores an HA run occupies: the backups plus the
   leader's ack listener and heartbeat threads. *)
let threads t = t.replicas + 2

let record t =
  t.metrics.Metrics.replicas <- t.replicas;
  Net.record t.net t.metrics
