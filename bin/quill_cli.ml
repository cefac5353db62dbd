(* Command-line front end: run any engine x workload x parameters and
   print metrics.  The paper's experiment suite runs through
   bench/main.exe.

     quill_cli run --engine quecc --workload ycsb --theta 0.9 --threads 8
     quill_cli run --engine tictoc --workload tpcc --warehouses 1
     quill_cli list-engines *)

open Cmdliner
open Quill_workloads
module E = Quill_harness.Experiment
module R = Quill_harness.Engine_registry

module C = Quill_clients.Clients

(* Any of the four client flags switches the run into open-loop mode:
   seeded generators feed the engine through a bounded admission queue
   instead of the engine pulling from the workload directly. *)
let clients_cfg ~seed arrival admission deadline retries =
  if arrival = None && admission = None && deadline = None && retries = None
  then None
  else begin
    let get name parse = function
      | None -> None
      | Some s -> (
          match parse s with
          | Ok v -> Some v
          | Error msg ->
              Printf.eprintf "quill_cli: bad --%s: %s\n" name msg;
              exit 2)
    in
    let cfg = { C.default with C.seed } in
    let cfg =
      match get "arrival" C.parse_arrival arrival with
      | Some a -> { cfg with C.arrival = a }
      | None -> cfg
    in
    let cfg =
      match get "admission" C.parse_admission admission with
      | Some (policy, depth) -> { cfg with C.policy; depth }
      | None -> cfg
    in
    let cfg =
      match get "deadline" Quill_faults.Faults.parse_time deadline with
      | Some d -> { cfg with C.deadline = d }
      | None -> cfg
    in
    let cfg =
      match get "retries" C.parse_retries retries with
      | Some (max_retries, backoff) -> { cfg with C.max_retries; backoff }
      | None -> cfg
    in
    Some cfg
  end

let run_cmd engine workload threads txns batch theta mp abort_ratio warehouses
    table_size seed faults_spec arrival admission deadline retries pipeline
    steal split_spec adapt_spec replicas spec_lag wal snapshot_every cdc views
    global_zipf check_conflicts trace_file phase_table =
  if replicas < 0 then begin
    Printf.eprintf
      "quill_cli: bad --replicas %d (want a non-negative backup count)\n"
      replicas;
    exit 2
  end;
  if spec_lag < 1 then begin
    Printf.eprintf
      "quill_cli: bad --spec-lag %d (want a speculation window of at least 1 \
       batch)\n"
      spec_lag;
    exit 2
  end;
  if snapshot_every < 1 then begin
    Printf.eprintf
      "quill_cli: bad --snapshot-every %d (want a period of at least 1 \
       batch)\n"
      snapshot_every;
    exit 2
  end;
  (* --split N: hot-key split threshold, a positive integer. *)
  let split =
    match split_spec with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> Some n
        | Some _ | None ->
            Printf.eprintf
              "quill_cli: bad --split %S (want a positive integer threshold)\n"
              s;
            exit 2)
  in
  let adapt_repart, adapt_batch =
    match adapt_spec with
    | None -> (false, false)
    | Some "repart" -> (true, false)
    | Some "batch" -> (false, true)
    | Some "all" -> (true, true)
    | Some s ->
        Printf.eprintf "quill_cli: bad --adapt %S (want repart|batch|all)\n"
          s;
        exit 2
  in
  let faults =
    match faults_spec with
    | None -> Quill_faults.Faults.none
    | Some s -> (
        match Quill_faults.Faults.parse s with
        | Ok f -> f
        | Error msg ->
            Printf.eprintf "quill_cli: bad --faults spec: %s\n" msg;
            exit 2)
  in
  match E.engine_of_string engine with
  | None ->
      Printf.eprintf "unknown engine %s; known engines: %s\n" engine
        (String.concat ", " (R.names ()));
      exit 2
  | Some e ->
      (* Capability validation happens in Experiment.run's single
         chokepoint; Invalid_argument is mapped to exit 2 below. *)
      let clients = clients_cfg ~seed arrival admission deadline retries in
      let spec =
        match workload with
        | "ycsb" ->
            E.Ycsb
              {
                Ycsb.default with
                Ycsb.table_size;
                nparts = threads;
                theta;
                mp_ratio = mp;
                abort_ratio;
                abort_threshold = 128;
                global_zipf;
                seed;
              }
        | "tpcc" ->
            E.Tpcc
              (Tpcc.payment_mix
                 {
                   Tpcc.default with
                   Tpcc_defs.warehouses;
                   nparts = threads;
                   seed;
                 })
        | "tpcc-full" ->
            E.Tpcc
              { Tpcc.default with Tpcc_defs.warehouses; nparts = threads; seed }
        | w ->
            Printf.eprintf "unknown workload %s (ycsb|tpcc|tpcc-full)\n" w;
            exit 2
      in
      let exp =
        E.make ~threads ~txns ~batch_size:batch ~faults ?clients ~pipeline
          ~steal ?split ~adapt_repart ~adapt_batch ~replicas ~spec_lag ~wal
          ~snapshot_every ~cdc ~views e spec
      in
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
      Format.printf "%s on %s:@.  %a@." engine workload
        Quill_txn.Metrics.pp m;
      Quill_harness.Report.phase_tables := phase_table;
      Quill_harness.Report.print_table ~title:"result"
        [ { Quill_harness.Report.label = engine; metrics = m } ];
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
          Format.printf "[conflict-check] %s: %a@." engine CC.pp_report r;
          if r.CC.r_rows = 0 && r.CC.r_probes = 0 then
            Format.printf
              "[conflict-check] note: %s does not record accesses (only \
               the QueCC family does)@."
              engine;
          if not (CC.ok r) then exit 1

(* Each engine name with the capability set its module advertises, so
   the listing answers "which flags does this engine honor" directly. *)
let list_engines_cmd () =
  List.iter
    (fun name ->
      let probe =
        match R.engine_of_string name with
        | Some _ as e -> e
        | None -> (
            (* the dist-*-<n>n placeholder rows parse once <n> is a number *)
            match String.index_opt name '<' with
            | Some i when String.length name > i + 2 ->
                R.engine_of_string
                  (String.sub name 0 i ^ "2"
                  ^ String.sub name (i + 3) (String.length name - i - 3))
            | _ -> None)
      in
      match probe with
      | None -> print_endline name
      | Some e ->
          let (module M : Quill_harness.Engine_intf.S) = R.resolve e in
          Printf.printf "%-16s %s\n" name
            (Quill_harness.Capability.set_to_string M.caps))
    (R.names ())

(* -- cmdliner wiring -- *)

(* --help sections, one per engine capability (plus workload shape and
   observability), so the flag groups mirror the Capability sets the
   chokepoint validates against. *)
let s_workload = "WORKLOAD AND SCALE"
let s_exec = "EXECUTION (pipeline and adaptive capabilities)"
let s_faults = "FAULT INJECTION (faults capability)"
let s_clients = "OPEN-LOOP CLIENTS (clients capability)"
let s_wal = "DURABILITY (wal capability)"
let s_cdc = "CHANGE DATA CAPTURE (cdc capability)"
let s_repl = "REPLICATION (replication capability)"
let s_obs = "OBSERVABILITY"

let engine_t =
  Arg.(
    (* lint: engine-name-ok — CLI default, parsed back through the registry *)
    value & opt string "quecc"
    & info [ "engine"; "e" ]
        ~doc:
          (Printf.sprintf "Engine name: %s."
             (String.concat ", " (R.names ()))))

let workload_t =
  Arg.(
    value & opt string "ycsb"
    & info [ "workload"; "w" ] ~docs:s_workload ~doc:"ycsb | tpcc | tpcc-full.")

let threads_t =
  Arg.(value & opt int 8 & info [ "threads"; "t" ] ~docs:s_workload ~doc:"Virtual cores.")

let txns_t =
  Arg.(value & opt int 20_000 & info [ "txns"; "n" ] ~docs:s_workload ~doc:"Transactions.")

let batch_t =
  Arg.(value & opt int 1024 & info [ "batch" ] ~docs:s_workload ~doc:"Batch size.")

let theta_t =
  Arg.(value & opt float 0.0 & info [ "theta" ] ~docs:s_workload ~doc:"YCSB zipfian skew.")

let mp_t =
  Arg.(
    value & opt float 0.0
    & info [ "mp" ] ~docs:s_workload ~doc:"YCSB multi-partition transaction fraction.")

let abort_t =
  Arg.(
    value & opt float 0.0
    & info [ "abort-ratio" ] ~docs:s_workload ~doc:"YCSB abortable-fragment fraction.")

let warehouses_t =
  Arg.(value & opt int 1 & info [ "warehouses" ] ~docs:s_workload ~doc:"TPC-C warehouses.")

let table_size_t =
  Arg.(value & opt int 100_000 & info [ "table-size" ] ~docs:s_workload ~doc:"YCSB rows.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docs:s_workload ~doc:"Random seed.")

let faults_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docs:s_faults ~docv:"SPEC"
        ~doc:
          "Deterministic fault plan for the distributed engines, e.g. \
           'crash@t=5ms:node=1,drop=0.01,seed=7'.  Clauses: \
           crash@t=TIME[:node=N][:down=TIME], \
           part@t=TIME:a=N:b=N:until=TIME, drop=P, dup=P, \
           delay=P[:by=TIME], seed=N, retries=N, rto=TIME.")

let arrival_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "arrival" ] ~docs:s_clients ~docv:"RATE"
        ~doc:
          "Open-loop client arrivals: a Poisson rate in txn/s (e.g. \
           '250000') or 'burst:RATE:ON:OFF' for an on/off source (ON/OFF \
           in NUM[ns|us|ms|s]).  Any client flag switches the run from \
           closed-loop to open-loop.")

let admission_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "admission" ] ~docs:s_clients ~docv:"POLICY[:DEPTH]"
        ~doc:
          "Admission-queue policy when full: 'block' (backpressure), \
           'shed' (drop oldest), 'shed-newest' (drop incoming), \
           'deadline' (drop expired, else incoming).  DEPTH bounds the \
           per-node queue (default 1024).")

let deadline_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "deadline" ] ~docs:s_clients ~docv:"TIME"
        ~doc:
          "Per-transaction deadline from first offer, NUM[ns|us|ms|s]; \
           expired transactions are dropped and counted as misses.")

let retries_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "retries" ] ~docs:s_clients ~docv:"N[:BACKOFF]"
        ~doc:
          "Abort-retry budget per transaction with seeded exponential \
           backoff starting at BACKOFF (NUM[ns|us|ms|s], default 2us).")

let pipeline_t =
  Arg.(
    value & flag
    & info [ "pipeline" ] ~docs:s_exec
        ~doc:
          "QueCC and the distributed engines: overlap planning of batch \
           N+1 with execution of batch N (committed state stays \
           bit-identical per seed).  Other engines reject it (exit 2).")

let steal_t =
  Arg.(
    value & flag
    & info [ "steal" ] ~docs:s_exec
        ~doc:
          "QueCC: let drained executors steal whole queues whose key \
           signatures are disjoint from every unfinished queue of the \
           victim (deterministic outcome preserved).")

let split_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "split" ] ~docs:s_exec ~docv:"N"
        ~doc:
          "QueCC: split any key planned N+ times in one batch slice into ordered sub-queues executed chain-serially across executors (committed state stays bit-identical per seed; see DESIGN.md section 12).  N is a positive integer op-count threshold.")

let adapt_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "adapt" ] ~docs:s_exec ~docv:"repart|batch|all"
        ~doc:
          "QueCC adaptive planning: 'repart' rebalances key-to-executor routing between batches from queue-depth counters (state-identical); 'batch' auto-tunes the batch size from pipeline stall counters (pipelined closed-loop runs only, exit 2 otherwise; alters the schedule); 'all' enables both.")

let replicas_t =
  Arg.(
    value & opt int 0
    & info [ "replicas" ] ~docs:s_repl ~docv:"R"
        ~doc:
          "HA replication (single-node dist-quecc only): stream each \
           planned batch and its commit marker to R backup nodes that \
           speculatively execute ahead of visibility; on a leader crash \
           (--faults crash@...) the lowest-id live backup takes over with \
           zero lost committed transactions.  0 disables replication.")

let spec_lag_t =
  Arg.(
    value & opt int 1
    & info [ "spec-lag" ] ~docs:s_repl ~docv:"N"
        ~doc:
          "HA replication: how many batches past the newest commit marker \
           a backup may speculatively execute before waiting (>= 1).  \
           Larger windows hide replication latency at the cost of more \
           rollback work on failover.")

let wal_t =
  Arg.(
    value & flag
    & info [ "wal" ] ~docs:s_wal
        ~doc:
          "Durable group-commit write-ahead log (serial and the quecc \
           family): every committed batch's row images are logged and \
           hardened with one modeled fsync at the batch commit point.  \
           Enables crash (--faults crash@...) and disk-fault (torn@, \
           fsync-fail@, corrupt@) recovery on centralized engines: the \
           run rebuilds from the newest snapshot plus the log, \
           bit-identical at the last durable batch.")

let snapshot_every_t =
  Arg.(
    value & opt int 8
    & info [ "snapshot-every" ] ~docs:s_wal ~docv:"N"
        ~doc:
          "WAL snapshot period in durable batches (>= 1): after every \
           N-th durable batch the database is snapshotted and the log \
           truncated, bounding replay length and log size.")

let cdc_t =
  Arg.(
    value & flag
    & info [ "cdc" ] ~docs:s_cdc
        ~doc:
          "Ordered change-data-capture (serial and the quecc family): \
           hook a subscription hub at the batch commit point and stream \
           each batch's canonical change set — one (before, after) event \
           per distinct row, in deterministic commit order — to \
           subscribers.  A bounded-staleness read-replica cache consumes \
           the feed (at most 4 batches behind) and is checked against \
           committed state after the run.  The feed is byte-identical \
           across lockstep, pipelined, stealing and split-queue runs of \
           the same seed.  Cannot be combined with crash/disk faults.")

let views_t =
  Arg.(
    value & flag
    & info [ "views" ] ~docs:s_cdc
        ~doc:
          "Additionally maintain a materialized per-partition aggregate \
           view (SUM of table 0 field 0; the per-warehouse w_ytd total \
           for TPC-C) incrementally from the CDC feed, verified against \
           a full recompute whenever the view catches up.  Implies \
           --cdc.")

let global_zipf_t =
  Arg.(
    value & flag
    & info [ "global-zipf" ] ~docs:s_workload
        ~doc:
          "YCSB: draw keys zipfian over the whole table instead of within a per-transaction partition, so every stream hits the same hottest keys (the adaptive-planning worst case).")

let check_conflicts_t =
  Arg.(
    value & flag
    & info [ "check-conflicts" ] ~docs:s_obs
        ~doc:
          "Record every row access and verify the planned-order \
           invariants after the run (plan does no row access, \
           conflicting accesses follow planned queue priority, stolen \
           queues are key-disjoint).  Prints a conflict-check report; \
           exits 1 on any violation.  Only the QueCC-family engines \
           record; recording never affects virtual time.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docs:s_obs ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON file of the run.")

let phase_table_t =
  Arg.(
    value & flag
    & info [ "phase-table" ] ~docs:s_obs
        ~doc:"Print the per-phase busy / idle-cause breakdown.")

let run_term =
  Term.(
    const run_cmd $ engine_t $ workload_t $ threads_t $ txns_t $ batch_t
    $ theta_t $ mp_t $ abort_t $ warehouses_t $ table_size_t $ seed_t
    $ faults_t $ arrival_t $ admission_t $ deadline_t $ retries_t
    $ pipeline_t $ steal_t $ split_t $ adapt_t $ replicas_t $ spec_lag_t
    $ wal_t $ snapshot_every_t $ cdc_t $ views_t $ global_zipf_t
    $ check_conflicts_t $ trace_t $ phase_table_t)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run one engine on one workload.") run_term;
    Cmd.v
      (Cmd.info "list-engines" ~doc:"List available engines.")
      Term.(const list_engines_cmd $ const ());
  ]

(* Errors exit 2 with a one-line hint: cmdliner's multi-line usage dump
   is collapsed to its first line, and stray Invalid_argument / Failure
   from the engines (e.g. a fault plan naming a node that doesn't
   exist) are reported without a backtrace. *)
let () =
  let info =
    Cmd.info "quill_cli" ~version:"1.0"
      ~doc:"Queue-oriented deterministic transaction processing testbed"
  in
  let err_buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer err_buf in
  let rc =
    try Cmd.eval ~catch:false ~err (Cmd.group info cmds) with
    | Invalid_argument msg | Failure msg ->
        Printf.eprintf "quill_cli: %s\n" msg;
        2
  in
  Format.pp_print_flush err ();
  if rc = Cmd.Exit.cli_error then begin
    let first_line =
      match
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' (Buffer.contents err_buf))
      with
      | l :: _ -> String.trim l
      | [] -> "quill_cli: invalid command line"
    in
    Printf.eprintf "%s (try 'quill_cli --help')\n" first_line;
    exit 2
  end
  else begin
    prerr_string (Buffer.contents err_buf);
    exit rc
  end
