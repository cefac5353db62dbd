(* The one command-line grammar of quill_cli and bench/main.exe: every
   flag has one term here, with one name, default, doc string and parser,
   and both binaries evaluate through [eval]. *)

open Cmdliner
open Quill_workloads
module E = Experiment
module R = Engine_registry
module C = Quill_clients.Clients
module F = Quill_faults.Faults
module X = Experiments

(* ------------------------------------------------------------------ *)
(* Converters: the existing grammars, wrapped                          *)
(* ------------------------------------------------------------------ *)

let pp_ns ppf ns = Format.fprintf ppf "%dns" ns

(* The engine as typed (it labels the run) with what it denotes. *)
let engine_conv =
  Arg.conv' ~docv:"ENGINE"
    ( (fun s ->
        match R.engine_of_string s with
        | Some e -> Ok (s, e)
        | None ->
            Error
              (Printf.sprintf "unknown engine %s; known engines: %s" s
                 (String.concat ", " (R.names ())))),
      fun ppf (s, _) -> Format.pp_print_string ppf s )

let faults_conv = Arg.conv' ~docv:"SPEC" (F.parse, F.pp)
let time_conv = Arg.conv' ~docv:"TIME" (F.parse_time, pp_ns)

let arrival_conv =
  Arg.conv' ~docv:"RATE"
    ( C.parse_arrival,
      fun ppf a -> Format.pp_print_string ppf (C.arrival_to_string a) )

let admission_conv =
  Arg.conv' ~docv:"POLICY[:DEPTH]"
    ( C.parse_admission,
      fun ppf (p, d) -> Format.fprintf ppf "%s:%d" (C.policy_name p) d )

let retries_conv =
  Arg.conv' ~docv:"N[:BACKOFF]"
    (C.parse_retries, fun ppf (n, b) -> Format.fprintf ppf "%d:%a" n pp_ns b)

(* An output path, checked writable when parsed so that a bad path fails
   before the run, not after it: opened for append (never truncated) and
   removed again if it did not exist. *)
let out_path =
  Arg.conv' ~docv:"FILE"
    ( (fun path ->
        let existed = Sys.file_exists path in
        match
          open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
        with
        | oc ->
            close_out oc;
            if not existed then Sys.remove path;
            Ok path
        | exception Sys_error msg -> Error ("cannot write " ^ msg)),
      Format.pp_print_string )

let scale_conv =
  Arg.conv' ~docv:"SCALE"
    ( (fun s ->
        match float_of_string_opt s with
        | Some f when Float.is_finite f && f > 0.0 -> Ok f
        | Some _ | None ->
            Error ("scale must be a finite positive number, got " ^ s)),
      Format.pp_print_float )

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

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
  let quecc = E.Quecc (Quill_quecc.Engine.Speculative, Serializable) in
  Arg.(
    value
    & opt engine_conv (R.engine_name quecc, quecc)
    & info [ "engine"; "e" ]
        ~doc:
          (Printf.sprintf "Engine name: %s."
             (String.concat ", " (R.names ()))))

let workload_t =
  Arg.(
    value
    & opt (enum [ ("ycsb", `Ycsb); ("tpcc", `Tpcc); ("tpcc-full", `Tpcc_full) ])
        `Ycsb
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

let faults =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docs:s_faults ~docv:"SPEC"
        ~doc:
          "Deterministic fault plan for the distributed engines, e.g. \
           'crash@t=5ms:node=1,drop=0.01,seed=7'.  Clauses: \
           crash@t=TIME[:node=N][:down=TIME], \
           part@t=TIME:a=N:b=N:until=TIME, drop=P, dup=P, \
           delay=P[:by=TIME], seed=N, retries=N, rto=TIME.")

let arrival =
  Arg.(
    value
    & opt (some arrival_conv) None
    & info [ "arrival" ] ~docs:s_clients ~docv:"RATE"
        ~doc:
          "Open-loop client arrivals: a Poisson rate in txn/s (e.g. \
           '250000') or 'burst:RATE:ON:OFF' for an on/off source (ON/OFF \
           in NUM[ns|us|ms|s]).  Any client flag switches the run from \
           closed-loop to open-loop.")

let admission =
  Arg.(
    value
    & opt (some admission_conv) None
    & info [ "admission" ] ~docs:s_clients ~docv:"POLICY[:DEPTH]"
        ~doc:
          "Admission-queue policy when full: 'block' (backpressure), \
           'shed' (drop oldest), 'shed-newest' (drop incoming), \
           'deadline' (drop expired, else incoming).  DEPTH bounds the \
           per-node queue (default 1024).")

let deadline =
  Arg.(
    value
    & opt (some time_conv) None
    & info [ "deadline" ] ~docs:s_clients ~docv:"TIME"
        ~doc:
          "Per-transaction deadline from first offer, NUM[ns|us|ms|s]; \
           expired transactions are dropped and counted as misses.")

let retries =
  Arg.(
    value
    & opt (some retries_conv) None
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
    & opt (some int) None
    & info [ "split" ] ~docs:s_exec ~docv:"N"
        ~doc:
          "QueCC: split any key planned N+ times in one batch slice into ordered sub-queues executed chain-serially across executors (committed state stays bit-identical per seed; see DESIGN.md section 12).  N is a positive integer op-count threshold.")

let adapt_t =
  Arg.(
    value
    & opt
        (enum
           [
             ("repart", (true, false));
             ("batch", (false, true));
             ("all", (true, true));
           ])
        (false, false)
    & info [ "adapt" ] ~docs:s_exec ~docv:"repart|batch|all"
        ~absent:"off"
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

let check_conflicts =
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

let trace =
  Arg.(
    value
    & opt (some out_path) None
    & info [ "trace" ] ~docs:s_obs ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON file of the run.")

let phase_table =
  Arg.(
    value & flag
    & info [ "phase-table" ] ~docs:s_obs
        ~doc:"Print the per-phase busy / idle-cause breakdown.")

let json =
  Arg.(
    value
    & opt (some out_path) None
    & info [ "json" ] ~docs:s_obs ~docv:"FILE"
        ~doc:"Also write the experiment's rows to a machine-readable JSON file.")

let scale =
  Arg.(
    value & pos 0 scale_conv 0.5
    & info [] ~docv:"SCALE"
        ~doc:
          "Fraction of the full configuration: transaction counts and \
           table sizes shrink proportionally.")

(* ------------------------------------------------------------------ *)
(* The experiment term                                                 *)
(* ------------------------------------------------------------------ *)

let workload_name = function
  | E.Ycsb _ -> "ycsb"
  | E.Tpcc c -> if c = Tpcc.payment_mix c then "tpcc" else "tpcc-full"

(* Any of the four client flags switches the run into open-loop mode:
   seeded generators feed the engine through a bounded admission queue
   instead of the engine pulling from the workload directly. *)
let clients_cfg ~seed arrival admission deadline retries =
  if arrival = None && admission = None && deadline = None && retries = None
  then None
  else
    let set v f c = Option.fold ~none:c ~some:(f c) v in
    Some
      ({ C.default with C.seed }
      |> set arrival (fun c arrival -> { c with C.arrival })
      |> set admission (fun c (policy, depth) -> { c with C.policy; depth })
      |> set deadline (fun c deadline -> { c with C.deadline })
      |> set retries (fun c (max_retries, backoff) ->
             { c with C.max_retries; backoff }))

let experiment =
  let open Term.Syntax in
  let+ name, engine = engine_t
  and+ w = workload_t
  and+ threads = threads_t
  and+ txns = txns_t
  and+ batch_size = batch_t
  and+ theta = theta_t
  and+ mp = mp_t
  and+ abort_ratio = abort_t
  and+ warehouses = warehouses_t
  and+ table_size = table_size_t
  and+ seed = seed_t
  and+ faults = faults
  and+ arrival = arrival
  and+ admission = admission
  and+ deadline = deadline
  and+ retries = retries
  and+ pipeline = pipeline_t
  and+ steal = steal_t
  and+ split = split_t
  and+ adapt_repart, adapt_batch = adapt_t
  and+ replicas = replicas_t
  and+ spec_lag = spec_lag_t
  and+ wal = wal_t
  and+ snapshot_every = snapshot_every_t
  and+ cdc = cdc_t
  and+ views = views_t
  and+ global_zipf = global_zipf_t in
  let tpcc = { Tpcc.default with Tpcc_defs.warehouses; nparts = threads; seed } in
  E.make ~name ~threads ~txns ~batch_size ?faults
    ?clients:(clients_cfg ~seed arrival admission deadline retries)
    ~pipeline ~steal ?split ~adapt_repart ~adapt_batch ~replicas ~spec_lag
    ~wal ~snapshot_every ~cdc ~views engine
    (match w with
    | `Ycsb ->
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
    | `Tpcc -> E.Tpcc (Tpcc.payment_mix tpcc)
    | `Tpcc_full -> E.Tpcc tpcc)

(* ------------------------------------------------------------------ *)
(* Experiment -> argv                                                  *)
(* ------------------------------------------------------------------ *)

let parse term argv =
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  match
    Cmd.eval_value ~catch:false ~help:null ~err:null
      ~argv:(Array.of_list ("quill" :: argv))
      (Cmd.v (Cmd.info "quill") term)
  with
  | Ok (`Ok v) -> Some v
  | Ok (`Help | `Version) | Error _ -> None

(* The shortest decimal that reads back as the same float. *)
let float_arg f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Valued flags are written [--flag=VALUE], so negative numbers read
   back as values rather than as options. *)
let to_argv (t : E.t) =
  let int = string_of_int and ns = Printf.sprintf "%dns" in
  let opt name v = [ name ^ "=" ^ v ] in
  let flag name on = if on then [ name ] else [] in
  let workload =
    match t.workload with
    | E.Ycsb c ->
        List.concat
          [
            opt "--seed" (int c.Ycsb.seed);
            opt "--table-size" (int c.Ycsb.table_size);
            opt "--theta" (float_arg c.Ycsb.theta);
            opt "--mp" (float_arg c.Ycsb.mp_ratio);
            opt "--abort-ratio" (float_arg c.Ycsb.abort_ratio);
            flag "--global-zipf" c.Ycsb.global_zipf;
          ]
    | E.Tpcc c ->
        opt "--seed" (int c.Tpcc_defs.seed)
        @ opt "--warehouses" (int c.Tpcc_defs.warehouses)
  in
  let clients =
    match t.clients with
    | None -> []
    | Some c ->
        List.concat
          [
            opt "--arrival"
              (match c.C.arrival with
              | C.Poisson r -> float_arg r
              | C.Bursty { rate; on_ns; off_ns } ->
                  Printf.sprintf "burst:%s:%s:%s" (float_arg rate) (ns on_ns)
                    (ns off_ns));
            opt "--admission"
              (Printf.sprintf "%s:%d" (C.policy_name c.C.policy) c.C.depth);
            opt "--deadline" (ns c.C.deadline);
            opt "--retries"
              (Printf.sprintf "%d:%s" c.C.max_retries (ns c.C.backoff));
          ]
  in
  let argv =
    List.concat
      [
        opt "--engine" t.name;
        opt "--workload" (workload_name t.workload);
        opt "--threads" (int t.threads);
        opt "--txns" (int t.txns);
        opt "--batch" (int t.batch_size);
        workload;
        (if t.faults = F.none then [] else opt "--faults" (F.to_string t.faults));
        clients;
        flag "--pipeline" t.pipeline;
        flag "--steal" t.steal;
        (match t.split with Some n -> opt "--split" (int n) | None -> []);
        (match (t.adapt_repart, t.adapt_batch) with
        | false, false -> []
        | true, false -> opt "--adapt" "repart"
        | false, true -> opt "--adapt" "batch"
        | true, true -> opt "--adapt" "all");
        opt "--replicas" (int t.replicas);
        opt "--spec-lag" (int t.spec_lag);
        flag "--wal" t.wal;
        opt "--snapshot-every" (int t.snapshot_every);
        flag "--cdc" t.cdc;
        flag "--views" t.views;
      ]
  in
  (* The line is only a command line for [t] if it parses back to [t]:
     costs, names that are not the engine's, workload or client settings
     outside the flags' reach all fail here. *)
  if parse experiment argv = Some t then argv
  else
    invalid_arg
      (Printf.sprintf "Cli.to_argv: experiment %S has no command-line form"
         t.name)

(* ------------------------------------------------------------------ *)
(* The bench targets                                                  *)
(* ------------------------------------------------------------------ *)

(* Runs a target under its suite flags: the report/conflict switches,
   the header, the run, then the trace file. *)
let harness ~scale ?(suite = (None, false, false)) run () =
  let trace, phase_tables, conflicts = suite in
  Report.phase_tables := phase_tables;
  X.check_conflicts := conflicts;
  if trace <> None then X.tracer := Quill_trace.Trace.create ();
  Printf.printf "quill benchmark harness (scale=%.2f)\n%!" scale;
  run ();
  (match trace with
  | Some path ->
      let tr = !X.tracer in
      Quill_trace.Trace.write_file tr path;
      Printf.printf "trace: %d events written to %s\n"
        (Quill_trace.Trace.num_events tr) path
  | None -> ());
  print_endline "\ndone."

(* The flags every target but micro reads. *)
let suite =
  let open Term.Syntax in
  let+ trace = trace and+ p = phase_table and+ c = check_conflicts in
  (trace, p, c)

let bench ~micro =
  let open Term.Syntax in
  (* A target reading the suite flags, SCALE and whatever [term] reads. *)
  let target name doc term =
    Cmd.v (Cmd.info name ~doc)
      (let+ suite = suite and+ scale = scale and+ run = term in
       harness ~scale ~suite (fun () -> run scale))
  in
  let plain name doc (run : ?scale:float -> unit -> unit) =
    target name doc (Term.const (fun scale -> run ~scale ()))
  in
  let with_json name doc (run : ?scale:float -> ?json:string -> unit -> unit) =
    target name doc (let+ json = json in fun scale -> run ~scale ?json ())
  in
  let all scale =
    X.all ~scale ();
    micro ()
  in
  Cmd.group
    ~default:
      (let+ suite = suite in
       harness ~scale:0.5 ~suite (fun () -> all 0.5))
    (Cmd.info "main.exe"
       ~doc:"Regenerate the paper's tables and figures; see $(b,TARGET --help)")
    [
      plain "table2-row1" "QueCC vs H-Store, YCSB MP sweep." X.table2_row1;
      plain "table2-row2" "Distributed QueCC vs Calvin." X.table2_row2;
      plain "table2-row3" "QueCC vs the ND protocols, TPC-C." X.table2_row3;
      plain "fig-contention" "Every engine across theta." X.fig_contention;
      plain "fig-scalability" "Throughput vs cores." X.fig_scalability;
      plain "fig-modes" "Execution mode x isolation ablation." X.fig_modes;
      plain "fig-latency" "Latency distributions." X.fig_latency;
      plain "fig-batch" "QueCC batch-size sensitivity." X.fig_batch;
      with_json "pipeline" "Pipelined batches and stealing." X.pipeline;
      with_json "skew" "Adaptive planning under skew." X.skew;
      target "fault-tolerance" "Distributed recovery under a fault plan."
        (let+ plan = faults in
         fun scale -> X.fault_tolerance ~scale ?plan ());
      target "failover" "HA replication and leader failover."
        (let+ json = json and+ plan = faults in
         fun scale -> X.failover ~scale ?json ?plan ());
      with_json "durability" "Group-commit WAL and recovery." X.durability;
      with_json "cdc" "Ordered change-data-capture." X.cdc;
      target "overload" "Open-loop clients past saturation."
        (let+ arrival = arrival
         and+ admission = admission
         and+ deadline = deadline
         and+ retries = retries in
         fun scale -> X.overload ~scale ?arrival ?admission ?deadline ?retries ());
      Cmd.v
        (Cmd.info "micro" ~doc:"Bechamel microbenchmarks (reads no flags).")
        (let+ scale = scale in
         harness ~scale micro);
      target "all" "Every experiment, then the microbenchmarks." (Term.const all);
    ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Every rejection exits 2 with one line: cmdliner's message, unwrapped,
   without the usage dump that follows it, and Invalid_argument / Failure
   from the run (e.g. a fault plan naming a node that doesn't exist) is
   reported without a backtrace.  A run whose experiment claims fail
   exits 1 with one line per false claim. *)
let eval cmd =
  let prog = Cmd.name cmd in
  let reject line =
    Printf.eprintf "%s (try '%s --help')\n" line prog;
    exit 2
  in
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  Format.pp_set_margin err max_int;
  match Cmd.eval_value ~catch:false ~err cmd with
  | Ok (`Ok run) -> (
      try run () with
      | Invalid_argument msg | Failure msg -> reject (prog ^ ": " ^ msg)
      | X.Claim_failed lines ->
          List.iter (Printf.eprintf "%s: claim failed: %s\n" prog) lines;
          exit 1)
  | Ok (`Help | `Version) -> ()
  | Error _ ->
      Format.pp_print_flush err ();
      reject
        (match
           List.filter
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' (Buffer.contents buf))
         with
        | l :: _ -> String.trim l
        | [] -> prog ^ ": invalid command line")
