(* The one place engines are named and dispatched.  Each engine family
   registers a [family] record mapping names to [engine] values and
   [engine] values to first-class {!Engine_intf.S} modules; everything
   else (Experiment, the CLI, the bench driver) goes through the
   registry API and never matches on engine constructors. *)

module Qe = Quill_quecc.Engine
module I = Engine_intf
module RC = Engine_intf.Run_cfg
module C = Capability
module F = Quill_faults.Faults

(* Centralized engines consume a fault plan as a single node-0 crash
   time; the WAL turns it into a recoverable mid-batch kill. *)
let crash_at_of = function
  | None -> None
  | Some f -> (
      match F.crashes_for f ~node:0 with
      | [||] -> None
      | cs -> Some cs.(0).F.at)

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

type family = {
  family_names : string list;
      (* names advertised in --help / error messages, registration order *)
  parse : string -> engine option;
  name_of : engine -> string option;
  resolve : engine -> Engine_intf.t option;
  centralized : engine list;
}

let families : family list ref = ref []
let register_family f = families := !families @ [ f ]

let engine_name e =
  match List.find_map (fun f -> f.name_of e) !families with
  | Some s -> s
  | None -> invalid_arg "Engine_registry.engine_name: unregistered engine"

let engine_of_string s = List.find_map (fun f -> f.parse s) !families

let resolve e =
  match List.find_map (fun f -> f.resolve e) !families with
  | Some m -> m
  | None -> invalid_arg "Engine_registry.resolve: unregistered engine"

let names () = List.concat_map (fun f -> f.family_names) !families

(* ------------------------------------------------------------------ *)
(* Family registrations                                                *)
(* ------------------------------------------------------------------ *)

let () =
  register_family
    {
      family_names = [ "serial" ];
      parse = (function "serial" -> Some Serial | _ -> None);
      name_of = (function Serial -> Some "serial" | _ -> None);
      resolve =
        (function
        | Serial ->
            Some
              (module struct
                let name = "serial"
                let caps = [ C.Faults; C.Wal; C.Cdc ]
                let nodes = 1
                let nparts _ = None

                let run ?sim ?clients:_ ?faults ?wal ?cdc ~cfg wl =
                  Quill_protocols.Serial.run ?sim ~costs:cfg.RC.costs ?wal
                    ?cdc
                    ?crash_at:(crash_at_of faults)
                    ~batch_size:cfg.RC.batch_size wl ~txns:cfg.RC.txns
              end : Engine_intf.S)
        | _ -> None);
      centralized = [];
    }

let quecc_module name mode isolation : Engine_intf.t =
  (module struct
    let name = name
    let caps = [ C.Faults; C.Clients; C.Wal; C.Cdc; C.Pipeline; C.Adaptive ]
    let nodes = 1
    let nparts _ = None

    let run ?sim ?clients ?faults ?wal ?cdc ~cfg wl =
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
        wl ~batches:cfg.RC.batches
  end)

let () =
  let variants =
    [
      ("quecc", Qe.Speculative, Qe.Serializable);
      ("quecc-cons", Qe.Conservative, Qe.Serializable);
      ("quecc-rc", Qe.Speculative, Qe.Read_committed);
      ("quecc-cons-rc", Qe.Conservative, Qe.Read_committed);
    ]
  in
  register_family
    {
      family_names = List.map (fun (n, _, _) -> n) variants;
      parse =
        (fun s ->
          List.find_map
            (fun (n, m, i) -> if s = n then Some (Quecc (m, i)) else None)
            variants);
      name_of =
        (function
        | Quecc (m, i) ->
            List.find_map
              (fun (n, m', i') -> if m = m' && i = i' then Some n else None)
              variants
        | _ -> None);
      resolve =
        (function
        | Quecc (m, i) ->
            List.find_map
              (fun (n, m', i') ->
                if m = m' && i = i' then Some (quecc_module n m i) else None)
              variants
        | _ -> None);
      centralized = [ Quecc (Qe.Speculative, Qe.Serializable) ];
    }

let nd_module name (cc : (module Quill_protocols.Nd_driver.CC)) :
    Engine_intf.t =
  (module struct
    let name = name
    let caps = [ C.Clients ]
    let nodes = 1
    let nparts _ = None

    let run ?sim ?clients ?faults:_ ?wal:_ ?cdc:_ ~cfg wl =
      Quill_protocols.Nd_driver.run ?sim ?clients cc
        {
          Quill_protocols.Nd_driver.workers = cfg.RC.threads;
          costs = cfg.RC.costs;
        }
        wl ~txns:cfg.RC.txns
  end)

let () =
  let variants : (string * engine * (module Quill_protocols.Nd_driver.CC)) list
      =
    [
      ("2pl-nowait", Twopl_nowait, (module Quill_protocols.Twopl.No_wait_cc));
      ("2pl-waitdie", Twopl_waitdie, (module Quill_protocols.Twopl.Wait_die_cc));
      ("silo", Silo, (module Quill_protocols.Silo));
      ("tictoc", Tictoc, (module Quill_protocols.Tictoc));
      ("mvto", Mvto, (module Quill_protocols.Mvto));
    ]
  in
  register_family
    {
      family_names = List.map (fun (n, _, _) -> n) variants;
      parse =
        (fun s ->
          List.find_map
            (fun (n, e, _) -> if s = n then Some e else None)
            variants);
      name_of =
        (fun e ->
          List.find_map
            (fun (n, e', _) -> if e = e' then Some n else None)
            variants);
      resolve =
        (fun e ->
          List.find_map
            (fun (n, e', cc) -> if e = e' then Some (nd_module n cc) else None)
            variants);
      centralized = List.map (fun (_, e, _) -> e) variants;
    }

let () =
  register_family
    {
      family_names = [ "hstore" ];
      parse = (function "hstore" -> Some Hstore | _ -> None);
      name_of = (function Hstore -> Some "hstore" | _ -> None);
      resolve =
        (function
        | Hstore ->
            Some
              (module struct
                let name = "hstore"
                let caps = [ C.Clients ]
                let nodes = 1
                let nparts _ = None

                let run ?sim ?clients ?faults:_ ?wal:_ ?cdc:_ ~cfg wl =
                  Quill_protocols.Hstore.run ?sim ?clients
                    {
                      Quill_protocols.Hstore.workers = cfg.RC.threads;
                      costs = cfg.RC.costs;
                    }
                    wl ~txns:cfg.RC.txns
              end : Engine_intf.S)
        | _ -> None);
      centralized = [ Hstore ];
    }

let () =
  register_family
    {
      family_names = [ "calvin" ];
      parse = (function "calvin" -> Some Calvin | _ -> None);
      name_of = (function Calvin -> Some "calvin" | _ -> None);
      resolve =
        (function
        | Calvin ->
            Some
              (module struct
                let name = "calvin"
                let caps = [ C.Clients ]
                let nodes = 1
                let nparts _ = None

                let run ?sim ?clients ?faults:_ ?wal:_ ?cdc:_ ~cfg wl =
                  Quill_protocols.Calvin.run ?sim ?clients
                    {
                      Quill_protocols.Calvin.workers =
                        max 1 (cfg.RC.threads - 1);
                      batch_size = cfg.RC.batch_size;
                      costs = cfg.RC.costs;
                    }
                    wl ~txns:cfg.RC.txns
              end : Engine_intf.S)
        | _ -> None);
      centralized = [ Calvin ];
    }

(* "dist-quecc-8n" -> Some 8: the node-count suffix [engine_name] prints
   for distributed engines, accepted back on parse for round-tripping. *)
let nodes_suffix ~prefix s =
  let lp = String.length prefix and ls = String.length s in
  if ls > lp && String.sub s 0 lp = prefix && s.[ls - 1] = 'n' then
    int_of_string_opt (String.sub s lp (ls - lp - 1))
  else None

let dist_quecc_module n : Engine_intf.t =
  (module struct
    let name = Printf.sprintf "dist-quecc-%dn" n
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

let dist_calvin_module n : Engine_intf.t =
  (module struct
    let name = Printf.sprintf "dist-calvin-%dn" n
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

let () =
  register_family
    {
      family_names = [ "dist-quecc"; "dist-quecc-<n>n" ];
      parse =
        (function
        | "dist-quecc" -> Some (Dist_quecc 4)
        | s -> (
            match nodes_suffix ~prefix:"dist-quecc-" s with
            | Some n when n > 0 -> Some (Dist_quecc n)
            | Some _ | None -> None));
      name_of =
        (function
        | Dist_quecc n -> Some (Printf.sprintf "dist-quecc-%dn" n)
        | _ -> None);
      resolve =
        (function Dist_quecc n -> Some (dist_quecc_module n) | _ -> None);
      centralized = [];
    }

let () =
  register_family
    {
      family_names = [ "dist-calvin"; "dist-calvin-<n>n" ];
      parse =
        (function
        | "dist-calvin" -> Some (Dist_calvin 4)
        | s -> (
            match nodes_suffix ~prefix:"dist-calvin-" s with
            | Some n when n > 0 -> Some (Dist_calvin n)
            | Some _ | None -> None));
      name_of =
        (function
        | Dist_calvin n -> Some (Printf.sprintf "dist-calvin-%dn" n)
        | _ -> None);
      resolve =
        (function Dist_calvin n -> Some (dist_calvin_module n) | _ -> None);
      centralized = [];
    }

(* Registration order puts QueCC first, matching the historical
   comparison-table ordering. *)
let all_centralized = List.concat_map (fun f -> f.centralized) !families
