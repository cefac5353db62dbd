(** Virtual-time durable write-ahead log with batch-aligned group commit.

    QueCC's deterministic batch commit order makes durability nearly
    free (Gray, "Queues Are Databases"): every committed batch's row
    effects are buffered while the batch executes and flushed with a
    {e single} modeled [fsync] at the batch commit point — one disk
    barrier per batch, not per transaction.  The log is a byte-faithful
    model: checksummed, length-prefixed records

    {v
      [payload_len:4 LE][type:1][payload][crc32:4 LE]
    v}

    with three record types — batch header, per-row effect
    (table/home/key/payload), batch commit marker (batch number +
    transaction count).  The crc ({!Quill_common.Djb2.fold} from 5381,
    the loop the CDC feed digest rolls) covers the type byte and the
    payload,
    so a torn tail, a failed flush, or a flipped bit is {e detected} at
    recovery rather than silently loaded.  Each record is framed
    straight into one reused in-memory group buffer, which the flush
    appends to the modeled disk in one piece.

    Every [snapshot_every] durable batches the log rolls: the live
    database becomes the new snapshot and the log is truncated behind
    it, bounding both replay time and log size.  Nothing is copied at a
    roll or at creation.  Instead the log keeps an undo journal, fed at
    the commit point: the first time since the last roll that a row is
    staged ({!log_row}), its image as of the roll is recorded, so a roll
    costs O(rows changed since the previous one).  The journal is two
    flat int vectors (entries and pre-roll images), and "staged since
    the roll" is a per-slot mark, cleared at a roll through the
    journal's own slots.  It keeps its per-key meaning because a staged
    slot always holds its key (see {!log_row}) and a key stays at one
    slot between rolls; replay in {!recover} may move keys, so a
    recovered log takes no further stagings (the node is dead).
    {!recover} rebuilds the snapshot from the live database and the
    journal, then replays
    every complete, checksum-valid commit group in the remaining log;
    the scan truncates at the first invalid record and degrades to the
    last durable batch — never aborts, never loads garbage.

    The journal relies on the database being clean at every roll (and
    at creation): every row published, live image = committed image, no dirty
    bit and no unpublished insert, and no run ever mutating an index.
    Then the only rows that differ from the snapshot are the ones
    published since, and every published row was staged first.

    Disk faults (threaded from the [torn@rec=K] / [fsync-fail@t=TIME] /
    [corrupt@off=N] clauses of {!Quill_faults.Faults}, but expressed
    here as a plain record so this library stays fault-plan-agnostic)
    model a half-written record followed by a wedged disk, flushes that
    fail outright, and at-rest bit rot. *)

type disk = {
  torn_rec : int option;
      (** the K-th record ever appended (0-based, counted across
          truncations) persists only half its bytes, and the disk
          wedges: every later flush is silently lost *)
  fsync_fail_at : int option;
      (** every flush issued at/after this virtual time fails,
          discarding the records it would have made durable *)
  corrupt_off : int option;
      (** flip one bit of the byte at this absolute offset into the
          post-truncation log, just before the recovery scan reads it *)
}

val no_disk_faults : disk

type t

val create :
  ?disk:disk ->
  sim:Quill_sim.Sim.t ->
  costs:Quill_sim.Costs.t ->
  snapshot_every:int ->
  Quill_storage.Db.t ->
  t
(** A fresh log for one run over the live database [db], which must be
    clean (see above).  The loaded, pre-run state is the first snapshot;
    nothing is copied.  [snapshot_every] >= 1 is the snapshot period in
    durable batches. *)

val begin_batch : t -> batch_no:int -> unit
(** Append the batch-header record to the in-memory group buffer. *)

val log_effect : t -> table:int -> home:int -> key:int -> int array -> unit
(** Append one row effect (the row's post-batch committed payload) to
    the group buffer.  Nothing reaches the modeled disk until
    {!commit_batch} flushes.  The journal does not see it: a caller
    that mutates the database itself must stage through {!log_row}. *)

val log_row : t -> table:int -> home:int -> int -> unit
(** [log_row t ~table ~home slot]: stage a row of the live database
    after its batch settled and before publish: {!log_effect} of its
    live image, and, the first time since the last roll (the slot is
    unmarked), a journal entry with the row's image as of that roll —
    its committed image, or "absent" for an unpublished insert
    ([inserter >= 0]).  [slot]'s row must not be removed (see
    {!Quill_storage.Table.removed}). *)

val commit_batch : t -> batch_no:int -> txns:int -> bool
(** Append the commit marker, then flush the whole group with one
    modeled fsync (cost: [wal_fsync + bytes * wal_byte/1000] virtual
    ns).  Returns [true] when the marker is durable — the flush
    succeeded and no record of the group was torn.  On a durable commit
    the log may roll into a new snapshot + truncation per
    [snapshot_every], which empties the journal.  On failure the group
    is lost (as it would be on real hardware) and the durable boundary
    stays where it was. *)

val durable_batch : t -> int
(** Highest batch number whose commit marker is durable; -1 when only
    the initial snapshot exists. *)

val durable_txns : t -> int
(** Total transactions covered by durable commit markers (including
    batches folded into snapshots). *)

val recover : t -> unit
(** Crash recovery of the live database, the log's last act: rebuild the
    newest snapshot
    (one [Db.clone] of the live database, every row reverted to
    [committed], unpublished inserts dropped, journaled rows put back),
    overwrite the database from it, then scan the log and apply every
    complete, checksum-valid commit group.  Groups lost to a failed or
    wedged flush are reverted with the rest: the snapshot is of the
    live database at the roll, not of the durable log.  The scan stops
    and truncates at the first invalid record (torn tail, bad crc,
    impossible length); effects of a batch with no valid commit marker
    are discarded.  Afterwards {!durable_batch} /
    {!durable_txns} reflect what was actually recovered (which is how
    the run's committed count is reconciled).  Ticks [crash_reboot]
    plus [wal_byte]-per-scanned-byte plus [row_write] per applied
    effect; the total is also accumulated into the [recovery_time]
    metric. *)

val log_size : t -> int
(** Durable log bytes currently on the modeled disk (post-truncation). *)

val record : t -> Quill_txn.Metrics.t -> unit
(** Add this log's counters (bytes, fsyncs + failures, group sizes,
    snapshots, truncations, torn records, recovery time, durable
    batches) into a metrics record. *)
