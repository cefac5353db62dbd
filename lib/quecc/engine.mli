(** The queue-oriented transaction processing engine (QueCC).

    Batches of transactions are processed in two deterministic phases
    (paper Figure 1):

    {ol
    {- {e Planning}: planner [p] takes the [p]-th slice of the batch in
       order and, for each fragment, appends it to the execution queue
       [(p, e)] where [e] is the home executor of the fragment's record.
       The planner index is the queue's {e priority}.}
    {- {e Execution}: executor [e] drains queues [(0, e)], [(1, e)], ...
       in priority order, processing fragments FIFO.  Because every
       record has a unique home executor, per-record access order equals
       global batch order — conflict dependencies need no locks at all.}}

    Cross-thread coordination is limited to (paper section 3):
    data-dependency value slots (ivars), and commit-dependency resolution
    for abortable fragments — exactly the "necessary communication to
    resolve dependencies" the paper allows.

    Two execution mechanisms are provided (section 3.2): {e speculative}
    (writes applied immediately, every access appended to the batch's
    {!Journal}; a logic abort replays it to find the cascade, undo its
    writes and re-execute it serially) and {e conservative} (fragments
    with commit dependencies wait until the transaction's abortable
    fragments resolve).  Two isolation levels: {e serializable} and
    {e read-committed} (reads served from the committed version, routed
    round-robin for extra parallelism). *)

type exec_mode = Speculative | Conservative
type isolation = Serializable | Read_committed

type split_cfg = {
  hot_threshold : int;
      (** per-planner, per-key routed-operation count at which the key's
          queue is split into a sub-queue chain *)
  max_subqueues : int;  (** maximum chain segments per hot key *)
}

val default_split : split_cfg
(** [hot_threshold = 32], [max_subqueues = 8]. *)

type adapt_cfg = {
  repartition : bool;
      (** remap virtual partitions ([spread] per executor) to executors
          between batches, by measured per-partition load; takes effect
          two batches after measurement (the pipeline-safe lag) *)
  spread : int;
  auto_batch : bool;
      (** pipelined closed-loop runs only ({!run} raises
          [Invalid_argument] without [pipeline] or with [?clients]):
          tune the planned batch size from the fill/drain stall split,
          conserving the total transaction budget (changes the schedule,
          so committed state is NOT bit-identical to the fixed-size
          run) *)
  min_batch : int;  (** auto-tuner floor *)
}

val default_adapt : adapt_cfg
(** [repartition = true], [spread = 8], [auto_batch = false],
    [min_batch = 64]. *)

type cfg = {
  planners : int;
  executors : int;
  batch_size : int;       (** transactions per batch *)
  mode : exec_mode;
  isolation : isolation;
  costs : Quill_sim.Costs.t;
  pipeline : bool;
      (** overlap planning of batch [N+1] with execution of batch [N]
          through a double-buffered queue matrix, with a single hand-off
          per batch.  Dedicated planner and executor threads
          ([planners + executors] cores).  Committed DB state is
          bit-identical to the non-pipelined path for the same seed. *)
  steal : bool;
      (** executors that drain their queues early steal whole queues
          from the most-loaded peer when a key-signature check proves
          the steal record-disjoint from the victim's remaining work
          (per-record FIFO order survives) *)
  split : split_cfg option;
      (** hot-key queue splitting: spread a hot key's operations across
          sub-queues on different executors, chained by intra-key
          sequence numbers so the key's operations still execute in
          exact planned order — committed state stays bit-identical to
          the unsplit run (DESIGN.md §12).  [None] = off. *)
  adapt : adapt_cfg option;
      (** between-batch adaptation (dynamic repartitioning and batch
          auto-tuning); [None] = off *)
}

val default_cfg : cfg
(** 4 planners, 4 executors, 1024-txn batches, speculative,
    serializable, default costs, pipeline, steal, split and adapt
    off. *)

val run :
  ?sim:Quill_sim.Sim.t ->
  ?clients:Quill_clients.Clients.t ->
  ?recorder:Quill_analysis.Access_log.t ->
  ?wal:Quill_wal.Wal.t ->
  ?cdc:Quill_cdc.Cdc.t ->
  ?crash_at:int ->
  cfg ->
  Quill_txn.Workload.t ->
  batches:int ->
  Quill_txn.Metrics.t
(** [?recorder] (the [--check-conflicts] path) records every row access
    with queue-slot attribution for {!Quill_analysis.Conflict_check};
    recording never ticks the simulator, so committed state is
    bit-identical with and without it.

    [?wal], [?cdc] and [?crash_at] hang off the batch commit point
    ({!Quill_commit.Commit_point}).  [?wal] makes every batch durable
    with one group-commit flush (effects staged before publish, flushed
    after — see {!Quill_wal.Wal}).  [?cdc] stages every batch's change
    set into the ordered feed in the same pass and seals it right after
    the commit point, so subscribers observe the deterministic batch
    commit order (see {!Quill_cdc.Cdc}).  [?crash_at] kills the node at
    its first batch commit point at/after that virtual time: the
    in-flight batch is lost, the database is rebuilt from the newest
    snapshot plus the log, the committed count is reconciled to the
    durable boundary, and the run ends.  [?crash_at] requires [?wal] and
    cannot be combined with [?cdc] (a crash-truncated run would feed
    subscribers commits recovery then retracts) or [?clients] (a dead
    node strands the admission queue); [Invalid_argument] otherwise.

    Closed-loop by default: [batches] fixed-size batches cut from the
    workload stream.  With [?clients], batches are formed from whatever
    the admission queue holds at batch-close (variable sizes, capped at
    [cfg.batch_size]) and the engine runs until the client layer is
    exhausted; [batches] is ignored.  Commit/abort outcomes are reported
    back through {!Quill_clients.Clients.complete}, so aborted
    transactions return in a later batch after their backoff. *)

val plan_order :
  Quill_txn.Fragment.t array -> Quill_txn.Fragment.t array
(** Queue-insertion order for one transaction's fragments (dependency-free
    abortable fragments first); shared with the distributed engines,
    which need the same ordering for the conservative-execution
    deadlock-freedom argument. *)
