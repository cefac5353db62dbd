(* The verification rep: one untimed run of the same experiment with
   every generated transaction recorded, checked against an oracle.

   It resolves the engine through the registry and calls [M.run]
   itself, building the sim, client layer, WAL and CDC hub in the same
   order as [Experiment.run], so its virtual results equal the timed
   reps' (the caller checks that).  Recording costs no virtual time.
   The recorded transactions also give exact virtual latencies, which
   the timed reps' bucketed histograms cannot. *)

open Quill_common
open Quill_txn
module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Row = Quill_storage.Row
module E = Quill_harness.Experiment
module RC = Quill_harness.Engine_intf.Run_cfg
module Clients = Quill_clients.Clients
module Wal = Quill_wal.Wal
module Cdc = Quill_cdc.Cdc
module Replica = Quill_cdc.Replica
module Serial = Quill_protocols.Serial
module Ycsb = Quill_workloads.Ycsb

let build_workload = function
  | E.Ycsb c -> Ycsb.make c
  | E.Tpcc c -> Quill_workloads.Tpcc.make c

(* Wrap [wl] so every generated transaction is logged per stream with
   its arrival: the virtual time it left the generator (a client's
   offer in open loop, the engine's pull in closed loop). *)
let record sim (wl : Workload.t) =
  let logs : (int, (Txn.t * int) Vec.t) Hashtbl.t = Hashtbl.create 8 in
  let new_stream i =
    let s = wl.Workload.new_stream i in
    let v =
      match Hashtbl.find_opt logs i with
      | Some v -> v
      | None ->
          let v = Vec.create () in
          Hashtbl.replace logs i v;
          v
    in
    fun () ->
      let t = s () in
      Vec.push v (t, if Sim.in_thread sim then Sim.now sim else 0);
      t
  in
  ({ wl with Workload.new_stream }, logs)

(* Planner-major batch order: batch b is the b-th slice of every stream
   in stream order, the remainder of [batch_size / streams] going to
   the first streams (the engines' slice bounds). *)
let batch_order logs ~streams ~batch_size ~batches =
  let base = batch_size / streams and rem = batch_size mod streams in
  let count p = base + if p < rem then 1 else 0 in
  let acc = ref [] in
  for b = 0 to batches - 1 do
    for p = 0 to streams - 1 do
      let v = Hashtbl.find logs p in
      for j = 0 to count p - 1 do
        acc := fst (Vec.get v ((b * count p) + j)) :: !acc
      done
    done
  done;
  List.rev !acc

let sum_field0 db =
  let acc = ref 0 in
  Table.iter_dense (fun row -> acc := !acc + row.Row.committed.(0)) (Db.table db 0);
  !acc

(* Sum of the committed YCSB RMW deltas: each [op_rmw] fragment adds
   [args.(0)] to field 0. *)
let committed_delta txns =
  List.fold_left
    (fun acc (t : Txn.t) ->
      if t.Txn.status <> Txn.Committed then acc
      else
        Array.fold_left
          (fun acc (f : Fragment.t) ->
            if f.Fragment.op = Ycsb.op_rmw && f.Fragment.mode = Fragment.Rmw then
              acc + f.Fragment.args.(0)
            else acc)
          acc t.Txn.frags)
    0 txns

let largest_table db =
  let best = ref 0 in
  for t = 1 to Db.ntables db - 1 do
    if Table.capacity (Db.table db t) > Table.capacity (Db.table db !best) then
      best := t
  done;
  !best

type t = {
  metrics : Metrics.t;
  checksum : int;
  lat : int array;  (** sorted engine latencies (submit -> finish), virtual ns *)
  client_lat : int array;
      (** sorted arrival -> commit latencies of committed txns, virtual ns *)
  probes : int;  (** row lookups during the engine run *)
  inserts : int;
  durable_txns : int;  (** 0 without a WAL *)
  frags_per_txn : float;
  hot_table : int;  (** the workload's largest table *)
  hot_keys : int array;  (** keys the run's fragments routed to [hot_table] *)
  replayed : int;
  replay_ns : int;  (** wall time of the serial replay *)
  checks : (string * bool) list;
}

let run (w : Suite.t) (exp : E.t) =
  let (module M : Quill_harness.Engine_intf.S) =
    Quill_harness.Engine_registry.resolve exp.E.engine
  in
  let batches = E.batches exp and txns = E.effective_txns exp in
  let rcfg =
    {
      RC.threads = exp.E.threads;
      txns;
      batches;
      batch_size = exp.E.batch_size;
      costs = exp.E.costs;
      exec = { RC.pipeline = exp.E.pipeline; steal = exp.E.steal };
      adaptive =
        {
          RC.split = exp.E.split;
          repart = exp.E.adapt_repart;
          auto_batch = exp.E.adapt_batch;
        };
      replication = { RC.replicas = exp.E.replicas; spec_lag = exp.E.spec_lag };
      recorder = None;
    }
  in
  let base = Wall.span "verify: workload build" (fun () -> build_workload exp.E.workload) in
  let db = base.Workload.db in
  let initial_sum = if w.Suite.oracle = Suite.Additive then sum_field0 db else 0 in
  let sim = Sim.create ~wake_cost:exp.E.costs.Costs.wakeup () in
  let wl, logs = record sim base in
  let clients =
    Option.map
      (fun c -> Clients.create ~sim ~nodes:M.nodes wl { c with Clients.total = txns })
      exp.E.clients
  in
  let wal =
    if exp.E.wal then
      Some (Wal.create ~sim ~costs:exp.E.costs ~snapshot_every:exp.E.snapshot_every db)
    else None
  in
  let cdc = if exp.E.cdc then Some (Cdc.create ~sim ~costs:exp.E.costs db) else None in
  let replica =
    Option.map
      (fun hub ->
        let r = Replica.create db in
        ignore (Cdc.subscribe hub ~name:"replica" ~apply_every:4 (Replica.consumer r));
        r)
      cdc
  in
  let probes = ref 0 and inserts = ref 0 in
  Table.set_probe_hook
    (Some (fun ~table:_ ~key:_ ~insert -> if insert then incr inserts else incr probes));
  let m =
    Fun.protect
      ~finally:(fun () -> Table.set_probe_hook None)
      (fun () ->
        Wall.span "verify: engine run" (fun () ->
            M.run ~sim ?clients ~faults:exp.E.faults ?wal ?cdc ~cfg:rcfg wl))
  in
  Option.iter (fun c -> Clients.record c m) clients;
  Option.iter
    (fun hub ->
      Cdc.finish hub;
      Cdc.record hub m)
    cdc;
  m.Metrics.effective_txns <- txns;
  let replica_ok =
    match replica with Some r -> Replica.consistent_with r db | None -> true
  in
  let checksum = Wall.span "Db.checksum" (fun () -> Db.checksum db) in
  let recorded =
    (* lint: order-insensitive — streams are sorted by id below *)
    Hashtbl.fold (fun i v acc -> (i, Vec.to_list v) :: acc) logs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.concat_map snd
  in
  let executed =
    List.filter
      (fun ((t : Txn.t), _) -> t.Txn.status = Txn.Committed || t.Txn.status = Txn.Aborted)
      recorded
  in
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  let lat =
    sorted (List.map (fun ((t : Txn.t), _) -> t.Txn.finish_time - t.Txn.submit_time) executed)
  in
  let client_lat =
    sorted
      (List.filter_map
         (fun ((t : Txn.t), arrival) ->
           if t.Txn.status = Txn.Committed then Some (t.Txn.finish_time - arrival) else None)
         executed)
  in
  let txn_list = List.map fst recorded in
  let nfrags = List.fold_left (fun a (t : Txn.t) -> a + Array.length t.Txn.frags) 0 txn_list in
  let hot_table = largest_table db in
  let hot_keys =
    List.concat_map
      (fun (t : Txn.t) ->
        Array.to_list t.Txn.frags
        |> List.filter_map (fun (f : Fragment.t) ->
               if f.Fragment.table = hot_table then Some f.Fragment.key else None))
      txn_list
    |> Array.of_list
  in
  let durable_txns = match wal with Some w -> Wal.durable_txns w | None -> 0 in
  let additive_ok =
    w.Suite.oracle = Suite.Additive && sum_field0 db = initial_sum + committed_delta txn_list
  in
  let order =
    match w.Suite.oracle with
    | Suite.Batch_order ->
        batch_order logs ~streams:exp.E.threads ~batch_size:exp.E.batch_size ~batches
    | Suite.Additive ->
        List.filter (fun (t : Txn.t) -> t.Txn.status = Txn.Committed) txn_list
        |> List.sort (fun (a : Txn.t) b -> compare a.Txn.tid b.Txn.tid)
  in
  (* Drop the engine's database before building the replay's. *)
  let committed = m.Metrics.committed and logic_aborted = m.Metrics.logic_aborted in
  Gc.full_major ();
  let fresh = Wall.span "verify: replay build" (fun () -> build_workload exp.E.workload) in
  let t0 = Wall.now () in
  let m2 = Wall.span "oracle replay" (fun () -> Serial.run_txns fresh order) in
  let replay_ns = Wall.now () - t0 in
  let replay_sum = Db.checksum fresh.Workload.db in
  let checks =
    ("replay reproduces the checksum", replay_sum = checksum)
    :: (match w.Suite.oracle with
       | Suite.Batch_order ->
           [
             ("replay reproduces commits", m2.Metrics.committed = committed);
             ("replay reproduces logic aborts", m2.Metrics.logic_aborted = logic_aborted);
           ]
       | Suite.Additive -> [ ("additive invariant", additive_ok) ])
    @ (if exp.E.wal then [ ("durable txns = committed", durable_txns = committed) ] else [])
    @ if exp.E.cdc then [ ("cdc replica consistent", replica_ok) ] else []
  in
  {
    metrics = m;
    checksum;
    lat;
    client_lat;
    probes = !probes;
    inserts = !inserts;
    durable_txns;
    frags_per_txn = float_of_int nfrags /. float_of_int (max 1 (List.length txn_list));
    hot_table;
    hot_keys;
    replayed = List.length order;
    replay_ns;
    checks;
  }
