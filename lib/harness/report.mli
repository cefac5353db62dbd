(** Benchmark report tables: one row per engine/configuration.  The
    metric catalogue describes each group of {!Quill_txn.Metrics.t}
    columns once, as data, together with the raw metrics the group
    writes to a BENCH row; every table and every BENCH row's metrics are
    derived from it. *)

type row = { label : string; metrics : Quill_txn.Metrics.t }

type group
(** A named list of columns (header text plus a cell over a row's
    metrics), the rule deciding whether a table shows it, and its JSON
    fields (key plus typed value over a row's metrics). *)

val core : group
(** Throughput, p50/p99 latency, cc aborts, commits, utilization,
    messages and the speedup over the baseline ("x vs first").  Always
    printed. *)

val groups : group list
(** The catalogue in print order: core; phases (busy time per phase,
    idle time per wait cause, pipeline and adaptive-planning counters;
    live on every row, printed only under [~phase_table]); then faults,
    clients, replication, wal and cdc, each live in a table when any of
    its rows' counters for it are. *)

val name : group -> string
val header : group -> string list

val cells : ?baseline:float -> group -> row -> string list
(** One table row, label first.  [baseline] is the throughput the
    speedup column divides by (defaults to the row's own, i.e. 1.00x). *)

val fields :
  Quill_txn.Metrics.t list ->
  Quill_txn.Metrics.t ->
  (string * Bench_json.value) list
(** [fields table m]: one object per group live in [table], the metrics
    of one printed table's rows (phases
    included, whatever [~phase_table] says), keyed by the group's name
    and holding its JSON fields over [m], in catalogue order. *)

val print_table : phase_table:bool -> title:string -> row list -> unit
(** Prints one table per live group (phases only when [phase_table]),
    with the FIRST row as the speedup baseline (so "x vs first" reads as
    QueCC-relative when QueCC is first). *)

val print_sweep :
  phase_table:bool ->
  title:string ->
  param:string ->
  (string * row list) list ->
  unit
(** Series output: the tables of {!print_table} per parameter value. *)
