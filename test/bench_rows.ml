(* Every bench experiment target run as scripts/bench_diff.sh runs it,
   with its rows checked.  The targets are split between two test
   executables (test_harness and test_bench_rows) so that dune runs the
   halves side by side. *)

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) ignore

let eval cmd argv =
  Cmdliner.Cmd.eval_value ~catch:false ~help:null_fmt ~err:null_fmt
    ~argv:(Array.of_list argv) cmd

let targets =
  [
    "table2-row1"; "table2-row2"; "table2-row3"; "fig-contention";
    "fig-scalability"; "fig-modes"; "fig-latency"; "fig-batch"; "pipeline";
    "skew"; "fault-tolerance"; "failover"; "durability"; "cdc"; "overload";
  ]

(* Run by test_harness, next to its other cases; test_bench_rows runs
   the rest.  The two executables take about the same time. *)
let first_half =
  [
    "fig-contention"; "fig-scalability"; "fig-latency"; "pipeline"; "skew";
    "overload";
  ]

let second_half = List.filter (fun t -> not (List.mem t first_half)) targets

(* scripts/bench_diff.sh's command line for [target]. *)
let bench_diff_line target =
  let json = Filename.concat (Filename.get_temp_dir_name ()) target in
  [ target; "0.25"; "--phase-table"; "--json"; json ^ ".json" ]

(* Runs [f] with stdout sent to a file; returns what it printed. *)
let capture_stdout f =
  let path = Filename.temp_file "quill-bench" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let out = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  out

(* The labels of the printed core-table rows, in order. *)
let printed_labels out =
  let cell l = String.trim (List.nth (String.split_on_char '|' l) 1) in
  let rec scan in_core acc = function
    | [] -> List.rev acc
    | l :: rest when String.starts_with ~prefix:"| engine " l ->
        (* past the header's closing separator *)
        scan (Tutil.contains l "tput (txn/s)") acc (List.tl rest)
    | l :: rest when in_core && String.starts_with ~prefix:"|" l ->
        scan true (cell l :: acc) rest
    | _ :: rest -> scan false acc rest
  in
  scan false [] (String.split_on_char '\n' out)

(* Each of [targets], run as bench_diff.sh runs it: its claims
   hold (the run raises on a false one), and the BENCH file it writes
   parses, has one row per printed row label, in print order, and
   carries a checksum on every row.  The targets with QueCC-family rows
   under a WAL, a feed, a pipeline or faults also replay those rows
   through the conflict checker. *)
let conflict_checked_targets =
  [ "pipeline"; "fault-tolerance"; "durability"; "cdc"; "failover" ]

let check targets =
  List.iter
    (fun target ->
      let args =
        bench_diff_line target
        @
        if List.mem target conflict_checked_targets then
          [ "--check-conflicts" ]
        else []
      in
      let path = List.nth args 4 in
      let out =
        match eval Quill_harness.Cli.bench ("main.exe" :: args) with
        | Ok (`Ok run) -> capture_stdout run
        | _ -> Alcotest.failf "%s: does not parse" target
      in
      let json = In_channel.with_open_text path In_channel.input_all in
      Sys.remove path;
      (match Tutil.json_error json with
      | None -> ()
      | Some err -> Alcotest.failf "%s: BENCH JSON malformed: %s" target err);
      let rows =
        List.filter
          (String.starts_with ~prefix:"    {")
          (String.split_on_char '\n' json)
      in
      let label row =
        let from = String.length "    {\"label\": \"" in
        String.sub row from (String.index_from row from '"' - from)
      in
      Tutil.check_bool (target ^ " wrote rows") true (rows <> []);
      Alcotest.(check (list string))
        (target ^ ": one row per printed row")
        (printed_labels out) (List.map label rows);
      List.iter
        (fun row ->
          Tutil.check_bool (target ^ " row has a checksum") true
            (Tutil.contains row "\"checksum\": "))
        rows)
    targets
