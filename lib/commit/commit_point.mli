(** The batch commit point of the engines that own one (QueCC and
    serial).

    Planning fixes a batch's commit order before execution, so each
    batch commits at one point, and durability and the change feed both
    hang off it (Gray, "Queues Are Databases": the committed stream is
    the log).  This module is that point.  Engines record the rows a
    batch dirties in a per-slot touched set (one slot per executor,
    plus any recovery slot), then at the batch boundary:

    + {!stage} — after every status is settled, before publish: one
      pass over the touched rows feeds both the WAL group buffer and the
      CDC staging area;
    + {!publish} each touched set — install each live image as the
      committed one;
    + {!seal} — flush the WAL group with one fsync and seal the feed
      entry; or, when {!crash_due} fired, drop the in-flight batch,
      recover from the log and reconcile the committed count.

    Rows are (table, slot) pairs.  An insert is a row whose [inserter]
    mark is set: {!touch_insert} sets it, {!publish} clears it. *)

type t

val create :
  ?wal:Quill_wal.Wal.t ->
  ?cdc:Quill_cdc.Cdc.t ->
  ?crash_at:int ->
  slots:int ->
  Quill_sim.Sim.t ->
  Quill_storage.Db.t ->
  t
(** A commit point over [slots] touched sets.  [crash_at] kills the
    node at its first commit point at/after that virtual time.  Raises
    [Invalid_argument] when [crash_at] is combined with [cdc] (a
    crash-truncated run would feed subscribers retracted commits) or
    given without [wal] (nothing durable to recover from). *)

val touch : t -> int -> table:int -> int -> unit
(** [touch t ts ~table slot]: add the row to touched set [ts] unless its
    dirty flag says it is already in one.  A touched set is one int
    vector of (table, slot) pairs, so a touch allocates nothing once it
    has grown to a batch's size. *)

val touch_insert : t -> int -> table:int -> int -> by:int -> unit
(** Mark a freshly inserted row as inserted by the batch's transaction
    [by], then {!touch} it. *)

val crash_due : t -> bool
(** Whether the node dies at this commit point: [true] once, at the
    first call at/after [crash_at].  The caller then skips {!stage} and
    {!publish}; {!seal} recovers. *)

val crashed : t -> bool

val stage : t -> batch_no:int -> txns:int -> unit
(** Stage the batch that committed [txns] transactions: a WAL batch
    header, then per touched row one WAL effect with its live image
    (journaling the row's pre-batch image, see
    {!Quill_wal.Wal.log_row}) and one CDC staging (an insert, or an
    update from the committed to the live image).  A touched slot is
    staged directly, its home read from the slot, and skipped when
    recovery removed its row ({!Quill_storage.Table.removed}); a key
    inserted again has a fresh slot of its own, touched by its own
    {!touch_insert}.  Probes no key. *)

val publish : t -> int -> unit
(** Publish and clear one touched set, clearing each row's [inserter]
    mark.  Every row a batch inserts or writes is in a
    touched set, so after the last slot is published no row carries
    state from the batch. *)

val seal : t -> Quill_txn.Metrics.t -> tid:int -> unit
(** Commit the staged batch: WAL commit marker (carrying [txns], so the
    durable transaction count equals the committed count at every
    durable batch) plus flush, then the CDC feed entry.  Call it after
    every slot is published, with no thread able to touch a row: a WAL
    snapshot roll takes the database as it stands here.  After
    {!crash_due}: recover the database from the WAL as phase
    [Ph_recover] on trace lane [tid], count the crash and reset
    [committed] to the durable transaction count. *)

val record : t -> Quill_txn.Metrics.t -> unit
(** Add the WAL's counters into a metrics record. *)
