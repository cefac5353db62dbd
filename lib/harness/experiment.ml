open Quill_sim
open Quill_workloads
module Trace = Quill_trace.Trace
module Metrics = Quill_txn.Metrics
module Faults = Quill_faults.Faults
module Clients = Quill_clients.Clients
module Cdc = Quill_cdc.Cdc
module View = Quill_cdc.View
module Replica = Quill_cdc.Replica
module RC = Engine_intf.Run_cfg

(* The engine variant and its name maps live in Engine_registry; the
   historical API is re-exported here for callers. *)
type engine = Engine_registry.engine =
  | Serial
  | Quecc of Quill_quecc.Engine.exec_mode * Quill_quecc.Engine.isolation
  | Twopl_nowait
  | Twopl_waitdie
  | Silo
  | Tictoc
  | Mvto
  | Hstore
  | Calvin
  | Dist_quecc of int
  | Dist_calvin of int

let engine_name = Engine_registry.engine_name
let engine_of_string = Engine_registry.engine_of_string
let all_centralized = Engine_registry.all_centralized

type workload_spec = Ycsb of Ycsb.cfg | Tpcc of Tpcc.cfg

type t = {
  name : string;
  engine : engine;
  workload : workload_spec;
  threads : int;
  txns : int;
  batch_size : int;
  costs : Costs.t;
  faults : Faults.spec;
  clients : Clients.cfg option;
  pipeline : bool;
  steal : bool;
  split : int option;
  adapt_repart : bool;
  adapt_batch : bool;
  replicas : int;
  spec_lag : int;
  wal : bool;
  snapshot_every : int;
  cdc : bool;
  views : bool;
}

let make ?name ?(threads = 8) ?(txns = 20_000) ?(batch_size = 1024)
    ?(costs = Costs.default) ?(faults = Faults.none) ?clients
    ?(pipeline = false) ?split ?(adapt_repart = false) ?(replicas = 0)
    ?(spec_lag = 1) ?(wal = false)
    ?(snapshot_every = 8) ?(cdc = false) ?(views = false) engine workload =
  let name =
    match name with Some n -> n | None -> engine_name engine
  in
  {
    name;
    engine;
    workload;
    threads;
    txns;
    batch_size;
    costs;
    faults;
    clients;
    pipeline;
    steal = false;
    split;
    adapt_repart;
    adapt_batch = false;
    replicas;
    spec_lag;
    wal;
    snapshot_every;
    cdc;
    views;
  }

let build_workload = function
  | Ycsb cfg -> Quill_workloads.Ycsb.make cfg
  | Tpcc cfg -> Quill_workloads.Tpcc.make cfg

(* Distributed engines need nparts tied to the cluster shape; rebuild the
   workload spec with the right partitioning. *)
let respec_parts spec nparts =
  match spec with
  | Ycsb cfg -> Ycsb { cfg with Quill_workloads.Ycsb.nparts }
  | Tpcc cfg -> Tpcc { cfg with Quill_workloads.Tpcc_defs.nparts }

(* Round the requested transaction count to a whole number of batches
   (nearest, at least one batch).  The batch engines can only process
   whole batches; giving the per-transaction engines the same effective
   count keeps throughput comparisons apples-to-apples (previously Quecc
   at the 20_000/1024 defaults silently ran 19_456 transactions while
   Serial ran 20_000). *)
let batches t = max 1 ((t.txns + (t.batch_size / 2)) / t.batch_size)
let effective_txns t = batches t * t.batch_size

(* Range checks, each naming its flag: a bad value is rejected here,
   before [batches] divides by the batch size or a workload asserts. *)
let check_ranges t =
  let need ok flag want =
    if not ok then invalid_arg ("Experiment.run: " ^ flag ^ " must be " ^ want)
  in
  need (t.threads >= 1) "--threads" ">= 1";
  need (t.batch_size >= 1) "--batch" ">= 1";
  need (Option.fold ~none:true ~some:(fun n -> n >= 1) t.split) "--split" ">= 1";
  need (t.replicas >= 0) "--replicas" ">= 0";
  need (t.spec_lag >= 1) "--spec-lag" ">= 1";
  need (t.snapshot_every >= 1) "--snapshot-every" ">= 1";
  let prob p = p >= 0.0 && p <= 1.0 in
  match t.workload with
  | Ycsb c ->
      need
        (c.Ycsb.table_size >= c.Ycsb.ops_per_txn)
        "--table-size"
        (Printf.sprintf ">= the %d operations per transaction" c.Ycsb.ops_per_txn);
      need (c.Ycsb.theta >= 0.0 && c.Ycsb.theta < 1.0) "--theta" "in [0, 1)";
      need (prob c.Ycsb.mp_ratio) "--mp" "in [0, 1]";
      need (prob c.Ycsb.abort_ratio) "--abort-ratio" "in [0, 1]"
  | Tpcc c -> need (c.Tpcc_defs.warehouses >= 1) "--warehouses" ">= 1"

let run ?(tracer = Trace.null) ?recorder ?on_workload ?on_cdc t =
  (* The benchmark still names these fields; setting one is an error,
     not a no-op. *)
  List.iter
    (fun (set, removed) ->
      if set then invalid_arg ("Experiment.run: " ^ removed ^ " was removed"))
    [
      (t.steal, "work stealing (steal = true)");
      (t.adapt_batch, "batch auto-tuning (adapt_batch = true)");
    ];
  check_ranges t;
  Trace.begin_process tracer t.name;
  let batches = batches t in
  let txns = batches * t.batch_size in
  let (module M : Engine_intf.S) = Engine_registry.resolve t.engine in
  let cdc_on = t.cdc || t.views in
  (* THE capability chokepoint: every requested optional feature is
     checked against the engine's capability set here, and nowhere
     else.  An engine's [run] never receives an argument outside its
     set, so no feature flag is ever silently ignored; the CLI maps the
     [Invalid_argument] to exit code 2. *)
  Capability.require ~engine:M.name ~have:M.caps
    (List.concat
       [
         (if Faults.active t.faults then
            [ (Capability.Faults, "a fault plan (--faults)") ]
          else []);
         (if Faults.net_active t.faults then
            [
              ( Capability.Dist,
                "network faults (drop/dup/delay/partition)" );
            ]
          else []);
         (if t.clients <> None then
            [ (Capability.Clients, "the open-loop client layer (--arrival)") ]
          else []);
         (if t.wal then [ (Capability.Wal, "--wal") ] else []);
         (if cdc_on then [ (Capability.Cdc, "--cdc/--views") ] else []);
         (if t.replicas > 0 then
            [ (Capability.Replication, "--replicas") ]
          else []);
         (if t.pipeline then [ (Capability.Pipeline, "--pipeline") ] else []);
         (if t.split <> None then [ (Capability.Adaptive, "--split") ]
          else []);
         (if t.adapt_repart then
            [ (Capability.Adaptive, "--adapt") ]
          else []);
       ]);
  (* Cross-feature constraints (combinations of features the engine
     individually supports). *)
  let dist = Capability.mem Capability.Dist M.caps in
  (* Crash and disk faults on a centralized engine are only survivable
     through the WAL. *)
  if
    (Faults.disk_active t.faults || t.faults.Faults.crashes <> [])
    && (not dist) && not t.wal
  then
    invalid_arg
      (Printf.sprintf
         "Experiment.run: crash/disk faults on %s need --wal (nothing \
          durable to recover from otherwise)"
         M.name);
  if Faults.active t.faults then
    Faults.check_nodes t.faults ~nodes:M.nodes ~name:M.name;
  if t.faults.Faults.crashes <> [] && (not dist) && t.clients <> None then
    invalid_arg
      "Experiment.run: crash faults and open-loop clients cannot be \
       combined on a centralized engine (a crashed node strands the \
       admission queue)";
  if
    cdc_on
    && (Faults.disk_active t.faults || t.faults.Faults.crashes <> [])
  then
    invalid_arg
      "Experiment.run: --cdc cannot be combined with crash/disk faults \
       (the feed is a commit stream; a crash-truncated run would feed \
       subscribers retracted commits)";
  let rcfg =
    {
      RC.threads = t.threads;
      txns;
      batches;
      batch_size = t.batch_size;
      costs = t.costs;
      exec = { RC.default.RC.exec with RC.pipeline = t.pipeline };
      adaptive =
        {
          RC.default.RC.adaptive with
          RC.split = t.split;
          repart = t.adapt_repart;
        };
      replication = { RC.replicas = t.replicas; spec_lag = t.spec_lag };
      recorder;
    }
  in
  (* Engines that pin nparts to the cluster shape get the workload
     rebuilt; everything shares one workload instance so the open-loop
     client generators draw from the same streams the engine would. *)
  let spec =
    match M.nparts rcfg with
    | Some nparts -> respec_parts t.workload nparts
    | None -> t.workload
  in
  (* YCSB draws a transaction's distinct keys inside one partition, and
     the partition count is only final here. *)
  (match spec with
  | Ycsb c
    when (not c.Ycsb.global_zipf)
         && Ycsb.min_part_rows c < c.Ycsb.ops_per_txn ->
      invalid_arg
        (Printf.sprintf
           "Experiment.run: --table-size %d leaves the last of %d \
            partitions %d rows, fewer than the %d distinct keys a \
            transaction draws from one partition (try a multiple of %d \
            >= %d)"
           c.Ycsb.table_size c.Ycsb.nparts (Ycsb.min_part_rows c)
           c.Ycsb.ops_per_txn c.Ycsb.nparts
           (c.Ycsb.nparts * c.Ycsb.ops_per_txn))
  | _ -> ());
  let wl = build_workload spec in
  let sim = Sim.create ~wake_cost:t.costs.Costs.wakeup ~tracer () in
  Option.iter (fun f -> f wl) on_workload;
  (* The client layer owns the offered-transaction count: the experiment's
     batch-rounded [txns] target overrides whatever the cfg carried so
     that --txns means the same thing open- and closed-loop. *)
  let clients =
    Option.map
      (fun ccfg ->
        Clients.create ~sim ~nodes:M.nodes wl
          { ccfg with Clients.total = txns })
      t.clients
  in
  (* The WAL is built over the same workload database the engine runs
     on; disk faults from the plan are armed here so both the engine's
     flushes and the recovery scan see them. *)
  let wal =
    if not t.wal then None
    else
      Some
        (Quill_wal.Wal.create
           ~disk:
             {
               Quill_wal.Wal.torn_rec = t.faults.Faults.torn_rec;
               fsync_fail_at = t.faults.Faults.fsync_fail_at;
               corrupt_off = t.faults.Faults.corrupt_off;
             }
           ~sim ~costs:t.costs ~snapshot_every:t.snapshot_every
           wl.Quill_txn.Workload.db)
  in
  (* The CDC hub hangs off the same commit seam as the WAL.  Two
     in-repo consumers exercise it end-to-end: a bounded-staleness
     read-replica cache (always, when CDC is on) and an incrementally
     maintained per-partition aggregate view (--views), verified
     against a full recompute at every caught-up point. *)
  let cdc_hub =
    if not cdc_on then None
    else Some (Cdc.create ~sim ~costs:t.costs wl.Quill_txn.Workload.db)
  in
  let replica =
    Option.map
      (fun hub ->
        let r = Replica.create wl.Quill_txn.Workload.db in
        ignore
          (Cdc.subscribe hub ~name:"replica" ~apply_every:4
             (Replica.consumer r));
        r)
      cdc_hub
  in
  let view =
    if not t.views then None
    else
      Option.map
        (fun hub ->
          let v = View.create ~table:0 ~field:0 wl.Quill_txn.Workload.db in
          ignore (Cdc.subscribe hub ~name:"view" (View.consumer v));
          v)
        cdc_hub
  in
  let m = M.run ~sim ?clients ~faults:t.faults ?wal ?cdc:cdc_hub ~cfg:rcfg wl in
  Option.iter (fun c -> Clients.record c m) clients;
  (match cdc_hub with
  | Some hub ->
      Cdc.finish hub;
      Cdc.record hub m;
      Option.iter (fun v -> View.record v m) view;
      Option.iter
        (fun r ->
          if not (Replica.consistent_with r wl.Quill_txn.Workload.db) then
            failwith
              (Printf.sprintf
                 "Experiment.run: CDC replica diverged from committed \
                  state on %s"
                 M.name))
        replica;
      Option.iter (fun f -> f hub) on_cdc
  | None -> ());
  m.Metrics.effective_txns <- txns;
  m
