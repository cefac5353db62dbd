(* Command-line front end: run any engine x workload x parameters and
   print metrics.  The paper's experiment suite runs through
   bench/main.exe; both parse through Quill_harness.Cli.

     quill_cli run --engine quecc --workload ycsb --theta 0.9 --threads 8
     quill_cli run --engine tictoc --workload tpcc --warehouses 1
     quill_cli list-engines *)

open Cmdliner
module E = Quill_harness.Experiment
module R = Quill_harness.Engine_registry
module Cli = Quill_harness.Cli

let run (exp : E.t) trace_file phase_table check_conflicts () =
  let label = exp.E.name in
  let tracer =
    match trace_file with
    | Some _ -> Quill_trace.Trace.create ()
    | None -> Quill_trace.Trace.null
  in
  let recorder =
    if check_conflicts then Some (Quill_analysis.Access_log.create ())
    else None
  in
  let m = E.run ~tracer ?recorder exp in
  Format.printf "%s on %s:@.  %a@." label (Cli.workload_name exp.E.workload)
    Quill_txn.Metrics.pp m;
  Quill_harness.Report.print_table ~phase_table ~title:"result"
    [ { Quill_harness.Report.label; metrics = m } ];
  (match trace_file with
  | Some path ->
      Quill_trace.Trace.write_file tracer path;
      Printf.printf "trace: %d events written to %s\n"
        (Quill_trace.Trace.num_events tracer) path
  | None -> ());
  match recorder with
  | None -> ()
  | Some log ->
      let module CC = Quill_analysis.Conflict_check in
      let r = CC.check_log log in
      Format.printf "[conflict-check] %s: %a@." label CC.pp_report r;
      if r.CC.r_rows = 0 && r.CC.r_probes = 0 then
        Format.printf
          "[conflict-check] note: %s does not record accesses (only \
           the QueCC family does)@."
          label;
      if not (CC.ok r) then exit 1

(* Each engine name with the capability set its module advertises, so
   the listing answers "which flags does this engine honor" directly. *)
let list_engines () =
  List.iter
    (fun (name, e) ->
      let (module M : Quill_harness.Engine_intf.S) = R.resolve e in
      Printf.printf "%-16s %s\n" name
        (Quill_harness.Capability.set_to_string M.caps))
    R.table

let () =
  Cli.eval
    (Cmd.group
       (Cmd.info "quill_cli" ~version:"1.0"
          ~doc:"Queue-oriented deterministic transaction processing testbed")
       [
         Cmd.v
           (Cmd.info "run" ~doc:"Run one engine on one workload.")
           Term.(
             const run $ Cli.experiment $ Cli.trace $ Cli.phase_table
             $ Cli.check_conflicts);
         Cmd.v
           (Cmd.info "list-engines" ~doc:"List available engines.")
           (Term.const list_engines);
       ])
