(* The paper's high-contention motivation (section 2.1): on 1-warehouse
   TPC-C every transaction fights over the same warehouse and district
   rows.  Non-deterministic protocols pay for that with aborts and
   retries; the queue-oriented engine plans the conflicts away.

     dune exec examples/tpcc_contention.exe *)

open Quill_workloads
module E = Quill_harness.Experiment
module Qe = Quill_quecc.Engine

let () =
  let spec w =
    E.Tpcc
      (Tpcc.payment_mix { Tpcc.default with Tpcc_defs.warehouses = w; nparts = 8 })
  in
  List.iter
    (fun w ->
      let rows =
        List.map
          (fun engine ->
            let exp =
              E.make ~threads:8 ~txns:8192 ~batch_size:1024 engine (spec w)
            in
            {
              Quill_harness.Report.label = E.engine_name engine;
              metrics = E.run exp;
            })
          [
            E.Quecc (Qe.Conservative, Qe.Serializable);
            E.Twopl_nowait;
            E.Silo;
            E.Tictoc;
            E.Mvto;
          ]
      in
      Quill_harness.Report.print_table ~phase_table:false
        ~title:
          (Printf.sprintf
             "TPC-C NewOrder/Payment, %d warehouse(s), 8 cores (aborts = \
              wasted work)"
             w)
        rows)
    [ 1; 8 ]
