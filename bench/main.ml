(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index).  The targets and their
   flags are Quill_harness.Cli.bench; options follow the target name.

   Usage:
     bench/main.exe                 -- everything at the default scale
     bench/main.exe table2-row1     -- one experiment
     bench/main.exe all 0.25        -- everything at quarter scale
     bench/main.exe --help          -- the targets; TARGET --help: its flags *)

let () = Quill_harness.Cli.eval Quill_harness.Cli.bench
