(* The one place engines are named and dispatched: one static name ↔
   engine table, the [dist-*-<n>n] suffix parse, and one [resolve] match
   from an engine to its first-class {!Engine_intf.S} module.  Everything
   else (Experiment, the CLI, bench/main.exe) goes through this API and
   never matches on engine constructors. *)

module Qe = Quill_quecc.Engine
module RC = Engine_intf.Run_cfg
module C = Capability
module F = Quill_faults.Faults
module P = Quill_protocols

type engine =
  | Serial
  | Quecc of Qe.exec_mode * Qe.isolation
  | Twopl_nowait
  | Twopl_waitdie
  | Silo
  | Tictoc
  | Mvto
  | Hstore
  | Calvin
  | Dist_quecc of int
  | Dist_calvin of int

(* Every advertised name and the engine it denotes, in advertised order
   (QueCC variants after serial, the distributed families last).  A
   [dist-*-<n>n] row stands for its family at any node count and denotes
   the default 4-node member, as the bare family name does. *)
let table =
  [
    ("serial", Serial);
    ("quecc", Quecc (Qe.Speculative, Qe.Serializable));
    ("quecc-cons", Quecc (Qe.Conservative, Qe.Serializable));
    ("quecc-rc", Quecc (Qe.Speculative, Qe.Read_committed));
    ("quecc-cons-rc", Quecc (Qe.Conservative, Qe.Read_committed));
    ("2pl-nowait", Twopl_nowait);
    ("2pl-waitdie", Twopl_waitdie);
    ("silo", Silo);
    ("tictoc", Tictoc);
    ("mvto", Mvto);
    ("hstore", Hstore);
    ("calvin", Calvin);
    ("dist-quecc", Dist_quecc 4);
    ("dist-quecc-<n>n", Dist_quecc 4);
    ("dist-calvin", Dist_calvin 4);
    ("dist-calvin-<n>n", Dist_calvin 4);
  ]

let names () = List.map fst table

(* QueCC first, matching the historical comparison-table ordering. *)
let all_centralized =
  [
    Quecc (Qe.Speculative, Qe.Serializable);
    Twopl_nowait;
    Twopl_waitdie;
    Silo;
    Tictoc;
    Mvto;
    Hstore;
    Calvin;
  ]

let engine_name = function
  | Dist_quecc n -> Printf.sprintf "dist-quecc-%dn" n
  | Dist_calvin n -> Printf.sprintf "dist-calvin-%dn" n
  | e -> fst (List.find (fun (_, e') -> e' = e) table)

(* "dist-quecc-8n" -> Dist_quecc 8: the node-count suffix [engine_name]
   prints, accepted back on parse.  A name with a family's prefix is that
   family's or nothing, so the "<n>" help rows never parse. *)
let engine_of_string s =
  match
    List.find_opt
      (fun (prefix, _) -> String.starts_with ~prefix s)
      [ ("dist-quecc-", fun n -> Dist_quecc n); ("dist-calvin-", fun n -> Dist_calvin n) ]
  with
  | None -> List.assoc_opt s table
  | Some (prefix, mk) -> (
      let lp = String.length prefix and ls = String.length s in
      if s.[ls - 1] <> 'n' then None
      else
        match int_of_string_opt (String.sub s lp (ls - lp - 1)) with
        | Some n when n > 0 -> Some (mk n)
        | Some _ | None -> None)

(* Centralized engines consume a fault plan as a single node-0 crash
   time; the WAL turns it into a recoverable mid-batch kill. *)
let crash_at_of = function
  | None -> None
  | Some f -> (
      match F.crashes_for f ~node:0 with
      | [||] -> None
      | cs -> Some cs.(0).F.at)

(* A single-node engine: one node, the workload run as given. *)
let centralized name caps run : Engine_intf.t =
  (module struct
    let name = name
    let caps = caps
    let nodes = 1
    let nparts _ = None
    let run = run
  end)

let quecc name mode isolation =
  centralized name [ C.Faults; C.Clients; C.Wal; C.Cdc; C.Pipeline; C.Adaptive ]
    (fun ?sim ?clients ?faults ?wal ?cdc ~cfg wl ->
      Qe.run ?sim ?clients ?recorder:cfg.RC.recorder ?wal ?cdc
        ?crash_at:(crash_at_of faults)
        {
          Qe.planners = cfg.RC.threads;
          executors = cfg.RC.threads;
          batch_size = cfg.RC.batch_size;
          mode;
          isolation;
          costs = cfg.RC.costs;
          pipeline = cfg.RC.exec.RC.pipeline;
          steal = cfg.RC.exec.RC.steal;
          split =
            (match cfg.RC.adaptive.RC.split with
            | Some t -> Some { Qe.default_split with Qe.hot_threshold = t }
            | None -> None);
          adapt =
            (if cfg.RC.adaptive.RC.repart || cfg.RC.adaptive.RC.auto_batch
             then
               Some
                 {
                   Qe.default_adapt with
                   Qe.repartition = cfg.RC.adaptive.RC.repart;
                   auto_batch = cfg.RC.adaptive.RC.auto_batch;
                 }
             else None);
        }
        wl ~batches:cfg.RC.batches)

let nd name (cc : (module P.Nd_driver.CC)) =
  centralized name [ C.Clients ]
    (fun ?sim ?clients ?faults:_ ?wal:_ ?cdc:_ ~cfg wl ->
      P.Nd_driver.run ?sim ?clients cc
        { P.Nd_driver.workers = cfg.RC.threads; costs = cfg.RC.costs }
        wl ~txns:cfg.RC.txns)

let dist_quecc name n : Engine_intf.t =
  (module struct
    let name = name
    let caps = [ C.Faults; C.Clients; C.Dist; C.Replication; C.Pipeline ]
    let nodes = n
    let nparts cfg = Some (n * max 1 (cfg.RC.threads / 2))

    let run ?sim ?clients ?faults ?wal:_ ?cdc:_ ~cfg wl =
      let per_role = max 1 (cfg.RC.threads / 2) in
      Quill_dist.Dist_quecc.run ?sim ?faults ?clients
        ?recorder:cfg.RC.recorder
        {
          Quill_dist.Dist_quecc.nodes = n;
          planners = per_role;
          executors = per_role;
          batch_size = cfg.RC.batch_size;
          costs = cfg.RC.costs;
          pipeline = cfg.RC.exec.RC.pipeline;
          replicas = cfg.RC.replication.RC.replicas;
          spec_lag = cfg.RC.replication.RC.spec_lag;
        }
        wl ~batches:cfg.RC.batches
  end)

let dist_calvin name n : Engine_intf.t =
  (module struct
    let name = name
    let caps = [ C.Faults; C.Clients; C.Dist; C.Pipeline ]
    let nodes = n
    let nparts _ = Some (n * 4)

    let run ?sim ?clients ?faults ?wal:_ ?cdc:_ ~cfg wl =
      Quill_dist.Dist_calvin.run ?sim ?faults ?clients
        {
          Quill_dist.Dist_calvin.nodes = n;
          workers = cfg.RC.threads;
          batch_size = cfg.RC.batch_size;
          costs = cfg.RC.costs;
          pipeline = cfg.RC.exec.RC.pipeline;
        }
        wl ~batches:cfg.RC.batches
  end)

let resolve e =
  let name = engine_name e in
  match e with
  | Serial ->
      centralized name [ C.Faults; C.Wal; C.Cdc ]
        (fun ?sim ?clients:_ ?faults ?wal ?cdc ~cfg wl ->
          P.Serial.run ?sim ~costs:cfg.RC.costs ?wal ?cdc
            ?crash_at:(crash_at_of faults)
            ~batch_size:cfg.RC.batch_size wl ~txns:cfg.RC.txns)
  | Quecc (mode, isolation) -> quecc name mode isolation
  | Twopl_nowait -> nd name (module P.Twopl.No_wait_cc)
  | Twopl_waitdie -> nd name (module P.Twopl.Wait_die_cc)
  | Silo -> nd name (module P.Silo)
  | Tictoc -> nd name (module P.Tictoc)
  | Mvto -> nd name (module P.Mvto)
  | Hstore ->
      centralized name [ C.Clients ]
        (fun ?sim ?clients ?faults:_ ?wal:_ ?cdc:_ ~cfg wl ->
          P.Hstore.run ?sim ?clients
            { P.Hstore.workers = cfg.RC.threads; costs = cfg.RC.costs }
            wl ~txns:cfg.RC.txns)
  | Calvin ->
      centralized name [ C.Clients ]
        (fun ?sim ?clients ?faults:_ ?wal:_ ?cdc:_ ~cfg wl ->
          P.Calvin.run ?sim ?clients
            {
              P.Calvin.workers = max 1 (cfg.RC.threads - 1);
              batch_size = cfg.RC.batch_size;
              costs = cfg.RC.costs;
            }
            wl ~txns:cfg.RC.txns)
  | Dist_quecc n -> dist_quecc name n
  | Dist_calvin n -> dist_calvin name n
