(** Single-threaded serial executor.

    Runs transactions one at a time in tid order with no concurrency
    control at all.  Serves two purposes: the correctness oracle for every
    other engine (serializable engines must produce exactly the state this
    engine produces for the same input batch — and deterministic engines
    must do so for {e this} serial order), and the single-core baseline in
    scalability plots. *)

val run :
  ?sim:Quill_sim.Sim.t ->
  ?costs:Quill_sim.Costs.t ->
  ?wal:Quill_wal.Wal.t ->
  ?cdc:Quill_cdc.Cdc.t ->
  ?crash_at:int ->
  ?batch_size:int ->
  Quill_txn.Workload.t ->
  txns:int ->
  Quill_txn.Metrics.t
(** Generate [txns] transactions from stream 0 and run them serially.

    Every [batch_size] transactions (default 1024) form a commit group,
    the serial analogue of a QueCC batch: the rows the group dirtied are
    published together at the group boundary through
    {!Quill_commit.Commit_point}.  [?wal] logs each of those rows once
    and flushes once per group; [?cdc] seals one ordered feed entry per
    group.  [?crash_at] (requires [?wal], excludes [?cdc]; otherwise
    [Invalid_argument]) stops the run at the first transaction boundary
    at/after that virtual time, losing the open group, rebuilds the
    database from the newest snapshot plus the log, and reconciles the
    committed count to the durable boundary. *)

val run_txns :
  ?sim:Quill_sim.Sim.t ->
  ?costs:Quill_sim.Costs.t ->
  ?wal:Quill_wal.Wal.t ->
  ?cdc:Quill_cdc.Cdc.t ->
  ?crash_at:int ->
  ?batch_size:int ->
  Quill_txn.Workload.t ->
  Quill_txn.Txn.t list ->
  Quill_txn.Metrics.t
(** Run a pre-generated transaction list serially in list order (used by
    the determinism tests to replay the exact batch another engine ran).
    [?wal] / [?cdc] / [?crash_at] / [?batch_size] behave as in {!run}. *)
