(* The benchmark's four workloads.  Each isolates one structural effect
   (the CCBench method): a workload that exercises a layer is paired
   with one that bypasses it, so a change to that layer should move the
   first and leave the second alone. *)

open Quill_workloads
module E = Quill_harness.Experiment
module C = Quill_clients.Clients
module Qe = Quill_quecc.Engine

(* How the verification rep checks the engine's committed state. *)
type oracle =
  | Batch_order
      (** replay the recorded transactions serially in planner-major
          batch order; state, commits and logic aborts must match *)
  | Additive
      (** YCSB field-0 sum = initial sum + committed RMW deltas (the
          order-free check for engines without a fixed serial order) *)

type t = {
  name : string;
  oracle : oracle;
  ladder : float list;
      (** extra offered rates (txn/s, all clients together) run once,
          untimed, to find the highest rate that meets the latency limit;
          empty for closed-loop workloads *)
  make : seed:int -> div:int -> E.t;
      (** the experiment at full size ([div] = 1) or shrunk by [div] *)
}

let quecc = E.Quecc (Qe.Speculative, Qe.Serializable)

let ycsb ~seed ~rows ~theta =
  E.Ycsb { Ycsb.default with Ycsb.table_size = rows; nparts = 8; theta; seed }

(* The open-loop workload's offered rate, all clients together. *)
let open_rate = 2.2e6

let at_rate (exp : E.t) rate =
  {
    exp with
    E.clients =
      Option.map
        (fun c -> { c with C.arrival = C.Poisson (rate /. float_of_int c.C.clients) })
        exp.E.clients;
  }

let all =
  [
    (* The paper's headline engine on its headline workload, with a heap
       (~565 MB) above this host's 300 MiB L3: planning, queue execution,
       the pipeline hand-off and dense-row storage.  Bypasses the WAL, CDC,
       clients, CC aborts and inserts. *)
    {
      name = "ycsb-pipe";
      oracle = Batch_order;
      ladder = [];
      make =
        (fun ~seed ~div ->
          E.make ~name:"ycsb-pipe" ~threads:8 ~txns:(65_536 / div)
            ~batch_size:1024 ~pipeline:true quecc
            (ycsb ~seed ~rows:(1_000_000 / div) ~theta:0.6));
    };
    (* The paper's TPC-C contention point, write- and insert-heavy: the
       lockstep batch epilogue, dynamic-region inserts and the index, the
       hot warehouse row, 1% logic aborts (speculative recovery), WAL
       encode/fsync/snapshot and CDC canonicalization. *)
    {
      name = "tpcc-durable";
      oracle = Batch_order;
      ladder = [];
      make =
        (fun ~seed ~div ->
          E.make ~name:"tpcc-durable" ~threads:8 ~txns:(24_576 / div)
            ~batch_size:1024 ~wal:true ~snapshot_every:8 ~cdc:true quecc
            (E.Tpcc
               (Tpcc.payment_mix
                  {
                    Tpcc.default with
                    Tpcc_defs.warehouses = 1;
                    nparts = 8;
                    items = Tpcc.default.Tpcc_defs.items / div;
                    customers_per_district =
                      Tpcc.default.Tpcc_defs.customers_per_district / div;
                    seed;
                  })));
    };
    (* The ND baseline the paper compares against: it shares storage, sim,
       txn and workload code with QueCC but bypasses its planning, and its
       hot set fits in cache.  A shared-layer change that helps QueCC but
       costs everyone else shows up here. *)
    {
      name = "ycsb-hot-nd";
      oracle = Additive;
      ladder = [];
      make =
        (fun ~seed ~div ->
          E.make ~name:"ycsb-hot-nd" ~threads:8 ~txns:(98_304 / div)
            ~batch_size:1024 E.Silo
            (ycsb ~seed ~rows:(100_000 / div) ~theta:0.9));
    };
    (* Latency at a fixed arrival rate, where the cost batching adds to
       latency shows: 2.2M txn/s offered is ~0.89 of this configuration's
       closed-loop saturation.  Admission queues, variable batch
       formation and chan/sleep wake-ups. *)
    {
      name = "ycsb-open";
      oracle = Additive;
      ladder = [ 2.0e6; 2.4e6; 2.6e6 ];
      make =
        (fun ~seed ~div ->
          let clients =
            {
              C.default with
              C.clients = 4;
              depth = 4096;
              policy = C.Deadline;
              deadline = 5_000_000;
              seed;
            }
          in
          at_rate
            (E.make ~name:"ycsb-open" ~threads:8 ~txns:(65_536 / div)
               ~batch_size:1024 ~pipeline:true ~clients quecc
               (ycsb ~seed ~rows:(100_000 / div) ~theta:0.6))
            open_rate);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all
