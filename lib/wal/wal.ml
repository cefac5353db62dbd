module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Metrics = Quill_txn.Metrics
module Ivec = Quill_common.Ivec
module Djb2 = Quill_common.Djb2

type disk = {
  torn_rec : int option;
  fsync_fail_at : int option;
  corrupt_off : int option;
}

let no_disk_faults = { torn_rec = None; fsync_fail_at = None; corrupt_off = None }

(* Record types.  The framing is [payload_len:4 LE][type:1][payload]
   [crc32:4 LE]; the crc covers the type byte and the payload, so a
   flipped bit anywhere in the record (or a wrong length walking the
   scan into garbage) fails validation. *)
let t_header = 1   (* payload: batch_no:8 *)
let t_effect = 2   (* payload: table:4 home:4 key:8 nfields:4 fields:8xn *)
let t_commit = 3   (* payload: batch_no:8 txns:8 *)

(* A journal entry is [j_stride] ints: table, key, slot and the offset
   of its pre-roll image in [pre] (-1: inserted since). *)
let j_stride = 4

type t = {
  sim : Sim.t;
  costs : Costs.t;
  disk : disk;
  snapshot_every : int;
  db : Db.t;  (* the live database the run mutates *)
  (* The undo journal: each row staged since the last roll, once, with
     its image at the roll (none: inserted since).  The snapshot is the
     live database with these put back. *)
  journal : Ivec.t;  (* [j_stride] ints per entry *)
  pre : Ivec.t;  (* the entries' pre-roll images, back to back *)
  mutable marks : Bytes.t array;
      (* per table, per slot: '\001' while the slot's row is in the
         journal; cleared at a roll through the journal's slots *)
  mutable row : int array;  (* [log_row] scratch: one live image *)
  log : Buffer.t;  (* bytes on the modeled disk (since last truncation) *)
  (* The group buffer: the records awaiting flush, framed back to back
     in [group.[0 .. group_len-1]]; reused across groups. *)
  mutable group : Bytes.t;
  mutable group_len : int;
  mutable torn_cut : int;
      (* the group's bytes up to the middle of the [torn_rec] record
         when that record is in the group, else -1 *)
  mutable rec_no : int;  (* records ever appended, across truncations *)
  mutable wedged : bool;  (* a torn write killed the disk *)
  mutable snap_batch : int;
  mutable snap_txns : int;
  mutable durable_batch : int;
  mutable durable_txns : int;
  (* counters for Metrics *)
  mutable bytes_appended : int;
  mutable fsyncs : int;
  mutable fsync_fails : int;
  mutable group_txns : int;
  mutable snapshots : int;
  mutable truncations : int;
  mutable torn_records : int;
  mutable recovery_time : int;
}

let create ?(disk = no_disk_faults) ~sim ~costs ~snapshot_every db =
  if snapshot_every < 1 then
    invalid_arg
      (Printf.sprintf "Wal.create: snapshot_every must be >= 1, got %d"
         snapshot_every);
  {
    sim;
    costs;
    disk;
    snapshot_every;
    db;
    journal = Ivec.create ();
    pre = Ivec.create ();
    marks =
      Array.init (Db.ntables db) (fun i ->
          Bytes.make (Table.slots (Db.table db i)) '\000');
    row = [||];
    log = Buffer.create 4096;
    group = Bytes.create 4096;
    group_len = 0;
    torn_cut = -1;
    rec_no = 0;
    wedged = false;
    snap_batch = -1;
    snap_txns = 0;
    durable_batch = -1;
    durable_txns = 0;
    bytes_appended = 0;
    fsyncs = 0;
    fsync_fails = 0;
    group_txns = 0;
    snapshots = 0;
    truncations = 0;
    torn_records = 0;
    recovery_time = 0;
  }

let durable_batch t = t.durable_batch
let durable_txns t = t.durable_txns
let log_size t = Buffer.length t.log

(* djb2 over the type byte + payload, masked to 32 bits. *)
let crc b off len = Djb2.fold Djb2.init b off len

(* A record is written straight into the group buffer: [open_record]
   frames a [plen]-byte payload (length, type byte), the caller puts
   the payload, and [close_record] appends the crc. *)
let open_record t ty plen =
  let start = t.group_len in
  let need = start + 9 + plen in
  if need > Bytes.length t.group then begin
    let g = Bytes.create (max need (2 * Bytes.length t.group)) in
    Bytes.blit t.group 0 g 0 start;
    t.group <- g
  end;
  Bytes.set_int32_le t.group start (Int32.of_int plen);
  Bytes.set t.group (start + 4) (Char.chr ty);
  t.group_len <- start + 5;
  start

let put32 t v =
  Bytes.set_int32_le t.group t.group_len (Int32.of_int v);
  t.group_len <- t.group_len + 4

let put64 t v =
  Bytes.set_int64_le t.group t.group_len (Int64.of_int v);
  t.group_len <- t.group_len + 8

let close_record t start =
  put32 t (crc t.group (start + 4) (t.group_len - start - 4));
  let len = t.group_len - start in
  (match t.disk.torn_rec with
  | Some k when k = t.rec_no -> t.torn_cut <- start + (len / 2)
  | _ -> ());
  t.rec_no <- t.rec_no + 1;
  t.bytes_appended <- t.bytes_appended + len

let begin_batch t ~batch_no =
  let r = open_record t t_header 8 in
  put64 t batch_no;
  close_record t r

(* An effect record's frame and header; the caller puts the [n]
   fields and closes it. *)
let open_effect t ~table ~home ~key n =
  let r = open_record t t_effect (20 + (8 * n)) in
  put32 t table;
  put32 t home;
  put64 t key;
  put32 t n;
  r

let log_effect t ~table ~home ~key payload =
  let n = Array.length payload in
  let r = open_effect t ~table ~home ~key n in
  for i = 0 to n - 1 do
    put64 t (Array.unsafe_get payload i)
  done;
  close_record t r

let marked t table slot =
  let m = t.marks.(table) in
  slot < Bytes.length m && Bytes.get m slot <> '\000'

let mark t table slot =
  let m = t.marks.(table) in
  if slot >= Bytes.length m then begin
    let g = Bytes.make (max (slot + 1) (2 * Bytes.length m)) '\000' in
    Bytes.blit m 0 g 0 (Bytes.length m);
    t.marks.(table) <- g
  end;
  Bytes.set t.marks.(table) slot '\001'

(* Before publish overwrites the committed image, the first staging
   since the roll journals it: the database was clean at the roll and
   only a staged row is ever published, so the committed image is still
   the row's roll-time image (an unpublished insert was absent then).
   "First" is per key, and the mark is per slot: a key lives at one
   slot for a whole roll interval, except an insert that speculative
   recovery removes and re-inserts inside its batch, whose first slot
   is never staged (the commit point skips a removed slot).
   Replay in [recover] may move keys too, but a recovered node stages
   nothing more. *)
let log_row t ~table ~home slot =
  let tbl = Db.table t.db table in
  let key = Table.key_of_slot tbl slot in
  let n = Table.nfields tbl in
  if not (marked t table slot) then begin
    mark t table slot;
    let j = Ivec.extend t.journal j_stride in
    let d = Ivec.data t.journal in
    d.(j) <- table;
    d.(j + 1) <- key;
    d.(j + 2) <- slot;
    d.(j + 3) <-
      (if Table.inserter tbl slot >= 0 then -1
       else begin
         let o = Ivec.extend t.pre n in
         Table.blit_committed tbl slot (Ivec.data t.pre) o;
         o
       end)
  end;
  if Array.length t.row < n then t.row <- Array.make n 0;
  Table.blit_live tbl slot t.row 0;
  let r = open_effect t ~table ~home ~key n in
  for i = 0 to n - 1 do
    put64 t (Array.unsafe_get t.row i)
  done;
  close_record t r

(* Forget the journal: unmark every journaled slot, then empty it. *)
let clear_journal t =
  let d = Ivec.data t.journal in
  let j = ref 0 in
  while !j < Ivec.length t.journal do
    Bytes.set t.marks.(d.(!j)) d.(!j + 2) '\000';
    j := !j + j_stride
  done;
  Ivec.clear t.journal;
  Ivec.clear t.pre

(* One modeled fsync of the whole group.  A failing fsync is reported
   to the caller; a torn write is NOT — the record loses half its
   bytes, the disk wedges, and only the recovery scan's checksums find
   out.  Either way the group buffer is consumed. *)
let flush t =
  let bytes = t.group_len in
  Sim.tick t.sim (t.costs.Costs.wal_fsync + bytes * t.costs.Costs.wal_byte / 1000);
  let fail =
    match t.disk.fsync_fail_at with
    | Some at -> Sim.now t.sim >= at
    | None -> false
  in
  let fully_persisted =
    if fail then begin
      t.fsync_fails <- t.fsync_fails + 1;
      false
    end
    else begin
      t.fsyncs <- t.fsyncs + 1;
      if t.wedged then false
      else if t.torn_cut >= 0 then begin
        Buffer.add_subbytes t.log t.group 0 t.torn_cut;
        t.wedged <- true;
        false
      end
      else begin
        Buffer.add_subbytes t.log t.group 0 bytes;
        true
      end
    end
  in
  t.group_len <- 0;
  t.torn_cut <- -1;
  (not fail, fully_persisted)

let commit_batch t ~batch_no ~txns =
  let r = open_record t t_commit 16 in
  put64 t batch_no;
  put64 t txns;
  close_record t r;
  let reported_ok, durable = flush t in
  if reported_ok then t.group_txns <- t.group_txns + txns;
  if durable then begin
    t.durable_batch <- batch_no;
    t.durable_txns <- t.durable_txns + txns;
    (* Roll a snapshot every [snapshot_every] durable batches and
       truncate the log behind it: replay never has to cross a snapshot
       barrier, so recovery time and log size stay bounded.  The live,
       fully published database is the new snapshot, so rolling only
       empties the journal. *)
    if (batch_no + 1) mod t.snapshot_every = 0 then begin
      Sim.tick t.sim t.costs.Costs.wal_fsync;
      clear_journal t;
      t.snap_batch <- batch_no;
      t.snap_txns <- t.durable_txns;
      Buffer.clear t.log;
      t.snapshots <- t.snapshots + 1;
      t.truncations <- t.truncations + 1
    end
  end;
  durable

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let apply_effect db ~table ~home ~key payload =
  let tbl = Db.table db table in
  let slot = Table.find tbl key in
  if slot >= 0 then Table.load tbl slot payload
  else ignore (Table.insert tbl ~home ~key payload)

(* The database as of the last roll: a copy of the live one with every
   row back at its committed image, the inserts no batch published
   dropped, and every journaled row put back. *)
let snapshot t =
  let snap = Db.clone t.db in
  for table = 0 to Db.ntables snap - 1 do
    let tbl = Db.table snap table in
    Table.iter_inserted
      (fun key slot -> if Table.inserter tbl slot >= 0 then Table.remove tbl key)
      tbl;
    Table.iter_rows (fun _ slot -> Table.revert tbl slot) tbl
  done;
  let d = Ivec.data t.journal and pre = Ivec.data t.pre in
  let j = ref 0 in
  while !j < Ivec.length t.journal do
    let tbl = Db.table snap d.(!j) and o = d.(!j + 3) in
    (* [snap] is a clone, slot for slot; a row with a pre-roll image was
       published, so it is still at its slot *)
    if o < 0 then Table.remove tbl d.(!j + 1)
    else Table.load tbl d.(!j + 2) (Array.sub pre o (Table.nfields tbl));
    j := !j + j_stride
  done;
  snap

let recover t =
  let bytes = Buffer.to_bytes t.log in
  (* At-rest bit rot lands between the last flush and the scan. *)
  (match t.disk.corrupt_off with
  | Some off when off >= 0 && off < Bytes.length bytes ->
      Bytes.set bytes off
        (Char.chr (Char.code (Bytes.get bytes off) lxor 0x10))
  | _ -> ());
  let db = t.db in
  Db.overwrite_from ~src:(snapshot t) db;
  let len = Bytes.length bytes in
  let pos = ref 0 in
  let cur_batch = ref min_int in
  let effects = ref [] in  (* current batch's effects, newest first *)
  let applied = ref 0 in
  let last_batch = ref t.snap_batch in
  let replayed_txns = ref t.snap_txns in
  let invalid = ref false in
  while (not !invalid) && !pos < len do
    let p = !pos in
    if p + 9 > len then invalid := true
    else begin
      let plen = Int32.to_int (Bytes.get_int32_le bytes p) in
      if plen < 0 || p + 9 + plen > len then invalid := true
      else begin
        let ty = Char.code (Bytes.get bytes (p + 4)) in
        (* the crc is a full 32-bit value: mask away the sign extension
           Int32.to_int gives crcs with bit 31 set *)
        let stored =
          Int32.to_int (Bytes.get_int32_le bytes (p + 5 + plen))
          land 0xffff_ffff
        in
        if crc bytes (p + 4) (1 + plen) <> stored then invalid := true
        else begin
          let i64 off = Int64.to_int (Bytes.get_int64_le bytes off) in
          let i32 off = Int32.to_int (Bytes.get_int32_le bytes off) in
          let base = p + 5 in
          if ty = t_header then begin
            cur_batch := i64 base;
            effects := []
          end
          else if ty = t_effect then begin
            let table = i32 base and home = i32 (base + 4) in
            let key = i64 (base + 8) in
            let nf = i32 (base + 16) in
            if plen <> 20 + (8 * nf) then invalid := true
            else begin
              let payload = Array.init nf (fun i -> i64 (base + 20 + (8 * i))) in
              effects := (table, home, key, payload) :: !effects
            end
          end
          else if ty = t_commit then begin
            let bno = i64 base and txns = i64 (base + 8) in
            if bno <> !cur_batch then invalid := true
            else begin
              List.iter
                (fun (table, home, key, payload) ->
                  apply_effect db ~table ~home ~key payload;
                  incr applied)
                (List.rev !effects);
              effects := [];
              last_batch := bno;
              replayed_txns := !replayed_txns + txns
            end
          end
          else invalid := true;
          if not !invalid then pos := p + 9 + plen
        end
      end
    end
  done;
  (* Truncate at the first invalid record: the damaged tail is never
     loaded, and the log ends exactly at the last valid record. *)
  if !invalid then begin
    t.torn_records <- t.torn_records + 1;
    t.truncations <- t.truncations + 1;
    Buffer.clear t.log;
    Buffer.add_subbytes t.log bytes 0 !pos
  end;
  let cost =
    t.costs.Costs.crash_reboot
    + (!pos * t.costs.Costs.wal_byte / 1000)
    + (!applied * t.costs.Costs.row_write)
  in
  Sim.tick t.sim cost;
  t.recovery_time <- t.recovery_time + cost;
  t.durable_batch <- !last_batch;
  t.durable_txns <- !replayed_txns

let record t (m : Metrics.t) =
  m.Metrics.wal_bytes <- m.Metrics.wal_bytes + t.bytes_appended;
  m.Metrics.wal_fsyncs <- m.Metrics.wal_fsyncs + t.fsyncs;
  m.Metrics.wal_fsync_fails <- m.Metrics.wal_fsync_fails + t.fsync_fails;
  m.Metrics.wal_group_txns <- m.Metrics.wal_group_txns + t.group_txns;
  m.Metrics.snapshots <- m.Metrics.snapshots + t.snapshots;
  m.Metrics.wal_truncations <- m.Metrics.wal_truncations + t.truncations;
  m.Metrics.torn_records <- m.Metrics.torn_records + t.torn_records;
  m.Metrics.recovery_time <- m.Metrics.recovery_time + t.recovery_time;
  m.Metrics.durable_batches <- t.durable_batch + 1
