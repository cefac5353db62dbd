open Quill_common
open Quill_txn.Metrics

type row = { label : string; metrics : Quill_txn.Metrics.t }

let fmt_lat ns =
  if ns >= 1_000_000 then Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%dns" ns

let pct part whole =
  if whole <= 0 then "-"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int part /. float_of_int whole)

(* A metric group: the rule deciding whether a table shows it, its
   columns (header text plus a cell over the row's metrics; [base] is
   the table's baseline throughput, read only by the speedup column),
   and the raw metrics it writes to a BENCH row (key plus typed value). *)
type group = {
  name : string;
  active : t -> bool;
  columns : (string * (base:float -> t -> string)) list;
  fields : (string * (t -> Bench_json.value)) list;
}

let group name active columns fields = { name; active; columns; fields }
let col head f = (head, fun ~base:_ m -> f m)
let int head f = col head (fun m -> string_of_int (f m))
let si head f = col head (fun m -> Tablefmt.fmt_si (f m))
let bytes head f = si head (fun m -> float_of_int (f m))
let lat head f = col head (fun m -> fmt_lat (f m))
let pair head f g = col head (fun m -> Printf.sprintf "%d/%d" (f m) (g m))
let of_busy head f = col head (fun m -> pct (f m) m.busy)
let of_span head f = col head (fun m -> pct (f m) (m.busy + m.idle))
let percentile head hist p = lat head (fun m -> Stats.Hist.percentile (hist m) p)

(* Raw JSON fields: integer metrics, and a latency percentile in ns. *)
let ints = List.map (fun (key, f) -> (key, fun m -> Bench_json.Int (f m)))
let pct_ns hist p m = Stats.Hist.percentile (hist m) p

let core =
  group "core" (fun _ -> true)
    [
      si "tput (txn/s)" throughput;
      percentile "p50 lat" (fun m -> m.lat) 50.0;
      percentile "p99 lat" (fun m -> m.lat) 99.0;
      int "cc-aborts" (fun m -> m.cc_aborts);
      int "commits" (fun m -> m.committed);
      col "util" (fun m -> Printf.sprintf "%.2f" (utilization m));
      int "msgs" (fun m -> m.msgs);
      ( "x vs first",
        fun ~base m ->
          if base > 0.0 then Printf.sprintf "%.2fx" (throughput m /. base)
          else "-" );
    ]
    (("tput", fun m -> Bench_json.Fixed (1, throughput m))
    :: ints
         [
           ("committed", fun m -> m.committed);
           ("logic_aborted", fun m -> m.logic_aborted);
           ("cc_aborts", fun m -> m.cc_aborts);
           ("lat_p50_ns", pct_ns (fun m -> m.lat) 50.0);
           ("lat_p99_ns", pct_ns (fun m -> m.lat) 99.0);
           ("elapsed", fun m -> m.elapsed);
           ("busy", fun m -> m.busy);
           ("idle", fun m -> m.idle);
           ("msgs", fun m -> m.msgs);
         ])

(* CPU time per phase (% of busy), idle time per wait cause (% of
   busy+idle), then the pipeline columns (in this order so printed
   tables stay byte-identical; nothing parses them).  Stalls are
   per-contributing-thread averages: engines stall in very different
   numbers of threads; the JSON keeps the raw sums and thread counts.
   Live on every row; a table shows it only under --phase-table. *)
let phases =
  group "phases" (fun _ -> true)
    [
      of_busy "plan" (fun m -> m.plan_busy);
      of_busy "execute" (fun m -> m.exec_busy);
      of_busy "recover" (fun m -> m.recover_busy);
      of_busy "publish" (fun m -> m.publish_busy);
      of_busy "other" (fun m -> m.other_busy);
      of_span "busy%" (fun m -> m.busy);
      of_span "idle:barrier" (fun m -> m.idle_barrier);
      of_span "idle:ivar" (fun m -> m.idle_ivar);
      of_span "idle:chan" (fun m -> m.idle_chan);
      of_span "idle:sleep" (fun m -> m.idle_sleep);
      lat "fill-stall/thr" fill_stall_avg;
      lat "drain-stall/thr" drain_stall_avg;
      pair "split k/q" (fun m -> m.split_keys) (fun m -> m.split_subqueues);
      int "repart" (fun m -> m.repart_moves);
    ]
    (ints
       [ ("plan_busy", fun m -> m.plan_busy);
         ("exec_busy", fun m -> m.exec_busy);
         ("recover_busy", fun m -> m.recover_busy);
         ("publish_busy", fun m -> m.publish_busy);
         ("other_busy", fun m -> m.other_busy);
         ("idle_barrier", fun m -> m.idle_barrier);
         ("idle_ivar", fun m -> m.idle_ivar);
         ("idle_chan", fun m -> m.idle_chan);
         ("idle_sleep", fun m -> m.idle_sleep);
         ("pipe_fill_stall", fun m -> m.pipe_fill_stall);
         ("pipe_fill_threads", fun m -> m.pipe_fill_threads);
         ("pipe_drain_stall", fun m -> m.pipe_drain_stall);
         ("pipe_drain_threads", fun m -> m.pipe_drain_threads);
         ("split_keys", fun m -> m.split_keys);
         ("split_subqueues", fun m -> m.split_subqueues);
         ("repart_moves", fun m -> m.repart_moves); ])

let faults =
  group "faults" faulted
    [
      int "crashes" (fun m -> m.crashes);
      int "redone" (fun m -> m.redone);
      lat "recover time" (fun m -> m.recover_busy);
      of_busy "recover%" (fun m -> m.recover_busy);
      int "retries" (fun m -> m.msg_retries);
      int "dup-drops" (fun m -> m.msg_dup_drops);
    ]
    (ints
       [ ("crashes", fun m -> m.crashes); ("redone", fun m -> m.redone);
         ("msg_retries", fun m -> m.msg_retries);
         ("msg_dup_drops", fun m -> m.msg_dup_drops); ])

(* Client latency runs from first offer to commit. *)
let clients =
  group "clients" clients_active
    [
      si "offered/s" offered_rate;
      si "goodput/s" throughput;
      int "shed" (fun m -> m.shed);
      int "dl-miss" (fun m -> m.deadline_miss);
      int "retries" (fun m -> m.client_retries);
      int "retry-exh" (fun m -> m.retry_exhausted);
      int "qmax" (fun m -> m.qmax);
      percentile "c-p50" (fun m -> m.client_lat) 50.0;
      percentile "c-p95" (fun m -> m.client_lat) 95.0;
      percentile "c-p99" (fun m -> m.client_lat) 99.0;
    ]
    (ints
       [ ("offered", fun m -> m.offered); ("shed", fun m -> m.shed);
         ("deadline_miss", fun m -> m.deadline_miss);
         ("client_retries", fun m -> m.client_retries);
         ("retry_exhausted", fun m -> m.retry_exhausted);
         ("qmax", fun m -> m.qmax);
         ("client_p50_ns", pct_ns (fun m -> m.client_lat) 50.0);
         ("client_p95_ns", pct_ns (fun m -> m.client_lat) 95.0);
         ("client_p99_ns", pct_ns (fun m -> m.client_lat) 99.0); ])

let replication =
  group "replication" replicated
    [
      int "replicas" (fun m -> m.replicas);
      int "spec-exec" (fun m -> m.spec_executed);
      int "spec-wasted" (fun m -> m.spec_wasted);
      int "lag-max" (fun m -> m.rep_lag_max);
      int "failovers" (fun m -> m.failovers);
      col "failover time" (fun m ->
          if m.failovers > 0 then fmt_lat m.failover_time else "-");
      bytes "msg-bytes" (fun m -> m.msg_bytes);
      int "dups-sent" (fun m -> m.msg_dups_sent);
    ]
    (ints
       [ ("replicas", fun m -> m.replicas);
         ("spec_executed", fun m -> m.spec_executed);
         ("spec_wasted", fun m -> m.spec_wasted);
         ("rep_lag_max", fun m -> m.rep_lag_max);
         ("failovers", fun m -> m.failovers);
         ("failover_time", fun m -> m.failover_time);
         ("msg_bytes", fun m -> m.msg_bytes);
         ("msg_dups_sent", fun m -> m.msg_dups_sent); ])

let wal =
  group "wal" walled
    [
      int "durable-b" (fun m -> m.durable_batches);
      col "group-avg" (fun m -> Printf.sprintf "%.1f" (wal_group_size m));
      bytes "wal-bytes" (fun m -> m.wal_bytes);
      int "fsyncs" (fun m -> m.wal_fsyncs);
      int "fsync-fail" (fun m -> m.wal_fsync_fails);
      int "snaps" (fun m -> m.snapshots);
      int "truncs" (fun m -> m.wal_truncations);
      int "torn" (fun m -> m.torn_records);
      col "recovery" (fun m ->
          if m.recovery_time > 0 then fmt_lat m.recovery_time else "-");
    ]
    (ints
       [ ("durable_batches", fun m -> m.durable_batches);
         ("wal_group_txns", fun m -> m.wal_group_txns);
         ("wal_bytes", fun m -> m.wal_bytes);
         ("wal_fsyncs", fun m -> m.wal_fsyncs);
         ("wal_fsync_fails", fun m -> m.wal_fsync_fails);
         ("snapshots", fun m -> m.snapshots);
         ("wal_truncations", fun m -> m.wal_truncations);
         ("torn_records", fun m -> m.torn_records);
         ("recovery_time", fun m -> m.recovery_time); ])

let cdc =
  group "cdc" cdc_active
    [
      int "events" (fun m -> m.cdc_events);
      bytes "feed-bytes" (fun m -> m.cdc_bytes);
      int "cdc-b" (fun m -> m.cdc_batches);
      int "subs" (fun m -> m.cdc_subs);
      int "sub-lag-max" (fun m -> m.cdc_lag_max);
      int "view-refr" (fun m -> m.view_refreshes);
    ]
    (ints
       [ ("cdc_events", fun m -> m.cdc_events);
         ("cdc_bytes", fun m -> m.cdc_bytes);
         ("cdc_batches", fun m -> m.cdc_batches);
         ("cdc_subs", fun m -> m.cdc_subs);
         ("cdc_lag_max", fun m -> m.cdc_lag_max);
         ("view_refreshes", fun m -> m.view_refreshes); ])

let groups = [ core; phases; faults; clients; replication; wal; cdc ]
let name g = g.name
let header g = "engine" :: List.map fst g.columns

let cells ?baseline g r =
  let base = Option.value baseline ~default:(throughput r.metrics) in
  r.label :: List.map (fun (_, cell) -> cell ~base r.metrics) g.columns

(* A group is live in a table when any of its rows activates it. *)
let live table g = List.exists g.active table

let fields table =
  let live = List.filter (live table) groups in
  fun m ->
    List.map
      (fun g ->
        (g.name, Bench_json.Obj (List.map (fun (k, f) -> (k, f m)) g.fields)))
      live

(* One table per live group (phases only under --phase-table), the first
   row as baseline. *)
let print_groups ~phase_table = function
  | [] -> ()
  | first :: _ as rows ->
      let baseline = throughput first.metrics in
      List.iter
        (fun g ->
          if
            (phase_table || g != phases)
            && live (List.map (fun r -> r.metrics) rows) g
          then
            Tablefmt.print ~header:(header g) (List.map (cells ~baseline g) rows))
        groups

let print_table ~phase_table ~title rows =
  Printf.printf "\n== %s ==\n" title;
  if rows = [] then print_endline "(no rows)";
  print_groups ~phase_table rows

let print_sweep ~phase_table ~title ~param series =
  Printf.printf "\n== %s ==\n" title;
  List.iter
    (fun (value, rows) ->
      Printf.printf "-- %s = %s --\n" param value;
      print_groups ~phase_table rows)
    series
