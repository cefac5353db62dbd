(** A table: a dense preloaded region (keys [0 .. capacity-1]) plus a
    dynamic region for rows inserted at run time under arbitrary integer
    keys (composite keys are encoded into a single int by the workload's
    schema module).  Rows are partitioned among [nparts] homes by key
    range for the dense region and by an explicit home for inserts.

    Rows are named by {e slot}.  A dense key is its own slot; an insert
    appends the next slot after every slot ever used, and a slot is
    never reused, not even after its row is removed (an insert rollback),
    so a slot names the same row for the table's whole life.  Each slot
    owns [2 * nfields] ints of one flat image array: the live image,
    then the committed image.  The per-slot batch state ([dirty],
    [inserter]) and the per-protocol concurrency-control words live in
    parallel per-table arrays; a CC array exists only once the engine
    that uses it has asked for it ({!use_cc}, {!use_versions}).

    The simulation substrate is cooperative, so plain stores are
    race-free; virtual-time ordering of accesses is provided by
    {!Quill_sim.Sim}. *)

type t

val create :
  ?home_fn:(int -> int) ->
  name:string -> nfields:int -> capacity:int -> nparts:int -> unit -> t
(** [home_fn] overrides partition placement (e.g. TPC-C order-family
    tables derive their home from the district embedded in the key so
    that an order lives with its district).  Every image starts zeroed
    and clean. *)

val name : t -> string
val nfields : t -> int
val capacity : t -> int
(** Size of the dense region. *)

val nparts : t -> int

(** {2 Lookup} *)

val find : t -> int -> int
(** The slot of a key, dense or dynamic; -1 when absent.  A dense
    lookup is arithmetic. *)

val key_of_slot : t -> int -> int
(** The key a slot was created under (also for a removed row). *)

val removed : t -> int -> bool
(** Whether the slot's row was removed ({!remove}); never for a dense
    slot.  Reads a per-slot bit: no lookup, no probe. *)

val slots : t -> int
(** Slots ever used: [capacity] plus every insert, removed rows
    included.  Every slot is below it. *)

val insert : t -> home:int -> key:int -> int array -> int
(** Insert a fresh row with the given payload (live and committed) into
    the dynamic region and return its slot.  Raises [Invalid_argument]
    on a duplicate key or a payload of the wrong arity. *)

val remove : t -> int -> unit
(** Remove a dynamic-region key (insert rollback); its slot is kept but
    no longer found.  No-op when absent; raises [Invalid_argument] for
    dense keys. *)

val home_of_key : t -> int -> int
(** Partition of a key: [home_fn] when given; otherwise range
    partitioning for dense keys and the home recorded at insert time for
    dynamic keys. *)

val home : t -> int -> int
(** [home t slot]: {!home_of_key} of the slot's key, read from the slot
    (no lookup).  For a slot whose row is in the table. *)

val set_probe_hook :
  (table:string -> key:int -> insert:bool -> unit) option -> unit
(** Install (or clear, with [None]) a process-global observer called on
    every row probe — [dense]/[find] lookups and [insert]s — across all
    tables.  Used by the conflict detector to prove the planning phase
    touches no rows; costs one branch when unset. *)

(** {2 Images}

    [slot] must be a slot of the table and [field] below [nfields]. *)

val get : t -> int -> int -> int
(** [get t slot field]: the live value. *)

val set : t -> int -> int -> int -> unit
(** [set t slot field v] writes the live value. *)

val committed : t -> int -> int -> int
(** [committed t slot field]: the committed value. *)

val live_image : t -> int -> int array
(** A fresh copy of the live image. *)

val committed_image : t -> int -> int array
(** A fresh copy of the committed image. *)

val blit_live : t -> int -> int array -> int -> unit
(** [blit_live t slot dst off] copies the live image into
    [dst.(off .. off+nfields-1)]. *)

val blit_committed : t -> int -> int array -> int -> unit
(** {!blit_live} of the committed image. *)

val same_committed : t -> int -> int array -> bool
(** Whether an image equals the slot's committed image, field by field
    in place; [false] when its arity is not [nfields]. *)

val restore : t -> int -> int array -> unit
(** Overwrite the live image with a saved one. *)

val set_committed : t -> int -> int array -> unit
(** Overwrite the committed image with a saved one. *)

val load : t -> int -> int array -> unit
(** Overwrite both images with a payload and clear [dirty]: a loader's
    or a log replay's install. *)

val publish : t -> int -> unit
(** Copy the live image into the committed one, clear [dirty] and
    clear the [inserter] mark. *)

val revert : t -> int -> unit
(** Discard uncommitted live data: copy the committed image back over
    the live one and clear [dirty]. *)

(** {2 Batch state} *)

val dirty : t -> int -> bool
(** Whether the slot is in a touched set since its last publish. *)

val set_dirty : t -> int -> bool -> unit

val inserter : t -> int -> int
(** Index in its batch of the transaction that inserted the row, until
    the row is published; -1 otherwise, and always for dense slots.
    The row's only per-batch state: QueCC journals its speculation per
    batch ([Quill_quecc.Journal]), not on the row. *)

val set_inserter : t -> int -> int -> unit
(** Raises [Invalid_argument] for a dense slot. *)

(** {2 Concurrency-control words}

    One int per slot per word, allocated by the engines that use them
    (2PL: [Lock], [Owner]; the write-buffered OCC engines latch with
    [Lock]; Silo: [Tid]; TicToc and MVTO: [Wts], [Rts]).  A word reads
    its initial value on every slot, inserted ones included: [Owner]
    starts at [max_int], the others at 0. *)

type cc =
  | Lock  (** 0 free, -1 write-locked or latched, n>0 readers *)
  | Owner  (** 2PL: the holders' oldest transaction timestamp *)
  | Tid  (** Silo: version counter *)
  | Wts  (** TicToc / MVTO write timestamp *)
  | Rts  (** TicToc / MVTO read timestamp *)

val use_cc : t -> cc -> unit
(** Allocate the word's array unless it already exists. *)

val cc : t -> cc -> int -> int
(** [cc t w slot]; the word must be allocated. *)

val set_cc : t -> cc -> int -> int -> unit

val use_versions : t -> unit
(** Allocate the per-slot MVTO version chains (all empty) unless they
    already exist. *)

val versions : t -> int -> Row.version list
(** Older versions of the slot's row, newest first. *)

val set_versions : t -> int -> Row.version list -> unit

(** {2 Iteration and copies} *)

val inserted_count : t -> int

val iter_inserted : (int -> int -> unit) -> t -> unit
(** [iter_inserted f t] calls [f key slot] for every live dynamic row,
    in ascending key order (deterministic, unlike raw hashtable
    order). *)

val iter_rows : (int -> int -> unit) -> t -> unit
(** [f key slot] for every dense row in key order, then
    {!iter_inserted}. *)

val dense : t -> int -> Row.t
(** [dense t key] for [0 <= key < capacity]: a snapshot of the row's
    committed image.  Allocates; for readers outside the engines. *)

val iter_dense : (Row.t -> unit) -> t -> unit
(** {!dense} of every dense key in order. *)

val clone : t -> t
(** Copy the table: images, batch state and the dynamic region, with
    shared [home_fn]; no CC array is copied (an engine running on the
    copy allocates its own).  Used for WAL snapshots and HA replica
    databases. *)

val overwrite_from : src:t -> t -> unit
(** [overwrite_from ~src dst] makes [dst]'s images, batch state and
    dynamic region identical to [src]'s, slot for slot.  [dst]'s CC
    words and version chains keep their values on dense slots and
    restart at their initial values on dynamic ones.  Raises
    [Invalid_argument] when the shapes differ.  Used after a crash or a
    failover to sync recovered state back into the live database. *)
