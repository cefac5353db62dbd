(** Ordered change-data-capture over the deterministic batch commit
    stream.

    QueCC's planning phase fixes the commit order of a batch before a
    single row is touched, so the post-batch committed state — and
    therefore the batch's {e change set} — is a pure function of the
    input batch.  This module exploits that: engines stage the rows a
    batch dirtied at the same seam the WAL uses (after recovery has
    settled every status, before the publish barrier clears the write
    set), and seal the batch's feed entry right after the commit point.
    Sealing canonicalizes the change set — one event per distinct
    (table, key), first pre-image / last post-image, value-equal no-ops
    dropped, sorted by (table, key) — so the serialized feed depends
    only on the sequence of committed states.  Lockstep, pipelined and
    split-queue runs of the same seed therefore produce a
    {e byte-identical} feed (the headline determinism test).

    A subscription is an in-order cursor over that feed.  Every
    subscriber registers before the first publish, so each one is
    handed every batch exactly once, in batch order, through one path:
    a queue drained every [apply_every] batches, which bounds its lag
    to [apply_every] batches. *)

type event = {
  table : int;
  key : int;
  before : int array option;
      (** committed pre-image; [None] for a row inserted by this batch *)
  after : int array;  (** committed post-image *)
}
(** One row's change.  Both images are copies made for the feed (the
    pre-image at {!stage}, the post-image at {!publish}) and are
    immutable from then on: every subscriber shares the same arrays, so
    a consumer may keep them (as {!Replica} does) but must never write
    to them. *)

type batch = {
  batch_no : int;
  txns : int;  (** transactions committed by this batch *)
  events : event array;  (** canonical order: sorted by (table, key) *)
}

type consumer = {
  on_batch : batch -> unit;
      (** one feed entry, delivered in batch order *)
  on_caught_up : batch_no:int -> unit;
      (** the subscriber's cursor just reached [batch_no] (end of an
          apply round) — safe point for consistency checks *)
}

type sub
type t

val create :
  ?record_feed:bool ->
  sim:Quill_sim.Sim.t ->
  costs:Quill_sim.Costs.t ->
  Quill_storage.Db.t ->
  t
(** A hub over one run's commit stream.  [record_feed] additionally
    retains the full serialized feed for byte-level comparison in tests
    (default false).  The [Db.t] is the live database the engine
    commits into; {!stage_row} and {!publish} read its images. *)

val subscribe : t -> name:string -> ?apply_every:int -> consumer -> sub
(** Register a subscriber; [Invalid_argument] once the hub has published
    a batch, so no subscriber can miss one.  It is handed every batch,
    in batch order, exactly once.  [apply_every] (default 1) is the
    drain period: a published batch is queued, and once the queue holds
    [apply_every] batches they are applied and [on_caught_up] is
    called.  So the subscriber's cursor never trails the newest batch by
    more than [apply_every] batches. *)

val stage :
  t -> table:int -> key:int -> before:int array -> after:int array -> unit
(** Stage one dirtied row into the in-flight batch's change set: int
    vectors in staging order (table, key, source, and the pre-image's
    place in one flat vector of pre-images).  [before] is copied
    immediately (publish overwrites it); [after] is read at {!publish}
    time.  {!publish} canonicalizes by sorting the stagings by (table,
    key, staging order) — a counting sort by table, then a stable radix
    sort of each table's keys, with no comparator — and merging each
    key's adjacent stagings, so the first staging's pre-image and the
    last one's post-image win however often a row is staged.  [table]
    is a table index of a database ([Invalid_argument] when
    negative); it need not be one of the hub's. *)

val stage_insert : t -> table:int -> key:int -> after:int array -> unit
(** Stage a row inserted by the in-flight batch ([before = None]). *)

val stage_row : t -> table:int -> int -> unit
(** [stage_row t ~table slot]: stage a row of the hub's database by
    slot — an insert when its [inserter] mark is set, an update from its
    committed image otherwise.  Like {!stage}, the pre-image is copied
    now (into the flat pre-image vector, no array allocated) and the
    post-image (the live image of [slot]) is read at {!publish}. *)

val publish : t -> batch_no:int -> txns:int -> unit
(** Seal the staged change set as the feed entry for [batch_no] and
    deliver it: canonicalize (sort-merge; an event whose post-image
    equals its pre-image is dropped), serialize into one reused [Bytes]
    that the feed digest ({!Quill_common.Djb2.fold}, the WAL's crc loop)
    is rolled over in place, queue it to every subscriber and drain
    the subscribers whose queue holds [apply_every] batches.  Must be called from a simulator thread at the engine's
    commit point, after the batch's effects are committed; ticks
    [cdc_publish] plus [cdc_event] per serialized and per applied
    event. *)

val finish : t -> unit
(** End of run: drain every subscriber to the newest batch (no virtual
    time is charged — the run is over). *)

(* Feed accessors. *)

val batches : t -> int  (** feed entries published *)

val events : t -> int  (** canonical events across all entries *)

val feed_bytes : t -> int  (** serialized feed size *)

val digest : t -> int
(** Running checksum of the serialized feed — equal iff the feeds are
    byte-identical (and exactly the bytes when [record_feed] is set). *)

val feed : t -> string
(** The serialized feed; empty unless created with [record_feed]. *)

val last_batch : t -> int  (** newest published batch number; -1 if none *)

(* Subscription accessors. *)

val lag_max : sub -> int
(** Widest gap ever observed between the newest published batch and
    this subscriber's cursor (the newest batch it applied, -1 before
    any): [min apply_every] the number of published batches. *)

val delivered : sub -> int  (** events applied via [on_batch] *)

val record : t -> Quill_txn.Metrics.t -> unit
(** Accumulate feed + subscription counters into a metrics record. *)
