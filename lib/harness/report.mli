(** Benchmark report tables: one row per engine/configuration.  The
    metric catalogue describes each group of {!Quill_txn.Metrics.t}
    columns once, as data, and every table is derived from it. *)

type row = { label : string; metrics : Quill_txn.Metrics.t }

type group
(** A named list of columns (header text plus a cell over a row's
    metrics) with the rule deciding whether a table prints it. *)

val core : group
(** Throughput, p50/p99 latency, cc aborts, commits, utilization,
    messages and the speedup over the baseline ("x vs first").  Always
    printed. *)

val groups : group list
(** The catalogue in print order: core; phases (busy time per phase,
    idle time per wait cause, pipeline and adaptive-planning counters;
    printed when {!phase_tables} is set); then faults, clients,
    replication, wal and cdc, each printed when any row's counters for
    it are live. *)

val name : group -> string
val header : group -> string list

val cells : ?baseline:float -> group -> row -> string list
(** One table row, label first.  [baseline] is the throughput the
    speedup column divides by (defaults to the row's own, i.e. 1.00x). *)

val phase_tables : bool ref
(** When true, every table includes the phases group (default false). *)

val print_table : title:string -> row list -> unit
(** Prints one table per active group, with the FIRST row as the
    speedup baseline (so "x vs first" reads as QueCC-relative when QueCC
    is first). *)

val print_sweep :
  title:string -> param:string -> (string * row list) list -> unit
(** Series output: the tables of {!print_table} per parameter value. *)
