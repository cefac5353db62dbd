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

    Subscriptions are typed cursors over that feed: bounded in-process
    queues drained every [apply_every] batches, with lag accounting,
    queue-overflow recovery and late-joiner catch-up.  A subscriber that
    falls too far behind (or joins after the retention ring has moved
    on) is re-seeded from a snapshot scan of the committed database —
    the CDC analogue of the WAL's snapshot-then-replay recovery — and
    the batches it skipped are counted as [catchup_batches]. *)

type event = {
  table : int;
  key : int;
  before : int array option;
      (** committed pre-image; [None] for a row inserted by this batch *)
  after : int array;  (** committed post-image *)
}
(** One row's change.  Both images are copies made for the feed (the
    pre-image at {!stage}, the post-image at {!publish}) and are
    immutable from then on: the retention ring, late joiners' replay
    and every subscriber share the same arrays, so a consumer may keep
    them (as {!Replica} does) but must never write to them. *)

type batch = {
  batch_no : int;
  txns : int;  (** transactions committed by this batch *)
  events : event array;  (** canonical order: sorted by (table, key) *)
}

type consumer = {
  on_batch : batch -> unit;
      (** one feed entry, delivered in batch order *)
  on_snapshot : Quill_storage.Db.t -> batch_no:int -> unit;
      (** catch-up re-seed: the committed database as of [batch_no];
          replaces everything delivered so far *)
  on_caught_up : batch_no:int -> unit;
      (** the subscriber's cursor just reached [batch_no] (end of an
          apply round) — safe point for consistency checks *)
}

type sub
type t

val create :
  ?retain:int ->
  ?record_feed:bool ->
  sim:Quill_sim.Sim.t ->
  costs:Quill_sim.Costs.t ->
  Quill_storage.Db.t ->
  t
(** A hub over one run's commit stream.  [retain] bounds the ring of
    batches kept for late-joiner replay (default 64).  The ring holds
    every published batch, and is filled only while some subscriber is
    still inactive (its [join_at] not yet reached) and no more than
    [retain] batches have been published; after the first publish at
    which either fails it is emptied for good.  So a run whose
    subscribers all join at batch 0 keeps no ring, and a subscriber
    registered after that point catches up by snapshot;
    [record_feed] additionally retains the full serialized feed for
    byte-level comparison in tests (default false).  The [Db.t] is the
    live database the engine commits into; snapshot catch-up scans its
    committed images. *)

val subscribe :
  t ->
  name:string ->
  ?max_queue:int ->
  ?apply_every:int ->
  ?join_at:int ->
  consumer ->
  sub
(** Register a subscriber.  [max_queue] (default 256) bounds the
    unapplied-batch queue: overflowing drops the queue and re-seeds from
    a snapshot at the next apply point.  [apply_every] (default 1) is
    the drain period in published batches — the subscriber's staleness
    bound.  [join_at] (default 0) delays activation until that batch is
    published: a late joiner catches up by ring replay when the ring
    still holds every published batch (see {!create}), by snapshot
    otherwise.  Must be called before the run publishes batch
    [join_at]. *)

val stage :
  t -> table:int -> key:int -> before:int array -> after:int array -> unit
(** Stage one dirtied row into the in-flight batch's change set, a
    vector in staging order.  [before] is copied immediately (publish
    overwrites it); [after] is read at {!publish} time.  {!publish}
    canonicalizes the vector with one stable sort by (table, key) and
    a merge of each key's adjacent stagings, so the first staging's
    pre-image and the last one's post-image win however often a row is
    staged. *)

val stage_insert : t -> table:int -> key:int -> after:int array -> unit
(** Stage a row inserted by the in-flight batch ([before = None]). *)

val stage_row : t -> table:int -> int -> unit
(** [stage_row t ~table slot]: stage a row of the hub's database by
    slot — an insert when its [inserter] mark is set, an update from its
    committed image otherwise.  Like {!stage}, the pre-image is copied
    now and the post-image (the live image) is read at {!publish}. *)

val publish : t -> batch_no:int -> txns:int -> unit
(** Seal the staged change set as the feed entry for [batch_no] and
    deliver it: canonicalize (sort-merge; an event whose post-image
    equals its pre-image is dropped), serialize into one reused buffer
    that the feed digest is rolled over in place, append to
    the retention ring, enqueue to every active subscriber (activating
    late joiners first) and drain the subscribers whose apply period
    elapsed.  Must be called from a simulator thread at the engine's
    commit point, after the batch's effects are committed; ticks
    [cdc_publish] plus [cdc_event] per serialized and per applied
    event. *)

val finish : t -> unit
(** End of run: drain every subscriber to the newest batch (no virtual
    time is charged — the run is over). *)

val same_image : int array -> int array -> bool
(** Int-array equality of two row images: the no-op test of
    canonicalization, and {!Replica}'s consistency check. *)

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

val sub_name : sub -> string

val cursor : sub -> int
(** Newest batch applied through the consumer; -1 before any. *)

val lag_max : sub -> int
(** Widest gap ever observed between the newest published batch and
    this subscriber's cursor. *)

val delivered : sub -> int  (** events applied via [on_batch] *)

val catchup_batches : sub -> int
(** Batches absorbed through ring replay or snapshot re-seed instead of
    live delivery (late join + overflow recovery). *)

val overflows : sub -> int  (** queue overflows forcing a snapshot *)

val subs : t -> sub list  (** registration order *)

val record : t -> Quill_txn.Metrics.t -> unit
(** Accumulate feed + subscription counters into a metrics record. *)
