(** The write-buffered optimistic runner shared by Silo, TicToc and
    MVTO.

    {!Make} owns everything the three protocols have in common: the
    attempt's read set, write buffer, deferred inserts and slots, the
    one {!Quill_txn.Exec.ctx} over them, the fragment loop (an attempt
    left doomed by a fragment ends [Blocked] after it), and the commit:
    sort the write set by (table, key), latch it ([cas] each, stopping
    at the first held latch), validate, install the buffered writes
    ([row_write] each: pre-install hook, payload, stamp, publish), then
    the deferred inserts ([index_insert] each, stamped), and unlatch
    ([cas] each).  A failed latch or validation unlatches and returns
    [Blocked]; nothing was installed.  A policy supplies only what
    differs, below. *)

type attempt = {
  ts : int;
      (** the attempt's number, increasing per engine instance from 1:
          the timestamp of timestamp-ordering policies *)
  mutable doomed : bool;
      (** set by a policy's [read] or by a refused write; the attempt
          ends [Blocked] after the current fragment *)
}

module type POLICY = sig
  val name : string

  type rentry

  val use : Quill_storage.Table.t -> unit
  (** Allocate the policy's CC words on a table ({!Quill_storage.Table.use_cc});
      called on every table when the engine is created, after the
      latch word [Lock] that every policy uses. *)

  val entry : (Quill_storage.Table.t -> int -> rentry) option
  (** What a read records about the version of the row at a slot of a
      table, once per row, on its first read or before its first
      buffered write; [None] keeps no read set. *)

  val read : attempt -> Quill_storage.Table.t -> int -> int -> int
  (** [read a tbl slot field]: a read of a row outside the write set,
      after [entry]. *)

  val admit_write : attempt -> Quill_storage.Table.t -> int -> bool
  (** Checked before every write to a found row; [false] dooms the
      attempt and drops the write. *)

  val validate :
    tick:(unit -> unit) ->
    attempt ->
    reads:(Pcommon.row * rentry) list ->
    writes:Pcommon.row list ->
    int option
  (** Runs with the write set latched.  [reads] is the read set, newest
      first; [writes] the write set in latch order; [tick] charges one
      [validate_access].  [Some stamp] commits under [stamp]; [None]
      refuses. *)

  val pre_install : Pcommon.row -> unit
  (** Called on each written row just before its payload is
      overwritten. *)

  val stamp : Quill_storage.Table.t -> int -> int -> unit
  (** [stamp tbl slot ts]: stamp an installed or inserted row with the
      commit stamp [ts]. *)
end

module Make (P : POLICY) : Nd_driver.CC
