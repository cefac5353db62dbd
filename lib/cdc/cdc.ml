module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Metrics = Quill_txn.Metrics
module Vec = Quill_common.Vec

type event = {
  table : int;
  key : int;
  before : int array option;
  after : int array;
}

type batch = {
  batch_no : int;
  txns : int;
  events : event array;
}

type consumer = {
  on_batch : batch -> unit;
  on_snapshot : Db.t -> batch_no:int -> unit;
  on_caught_up : batch_no:int -> unit;
}

(* A staged row: its pre-image, copied at stage time because the
   engine's publish overwrites the committed image before the feed entry
   is sealed ([None] for an insert), and its post-image, read at publish
   time: [s_after], or the live image of slot [s_slot] of the hub's
   database when [s_slot >= 0] — for every engine a staged row's live
   image IS the final post-image by the commit point. *)
type staged = {
  s_table : int;
  s_key : int;
  s_before : int array option;
  s_after : int array;
  s_slot : int;
}

type sub = {
  s_name : string;
  s_consumer : consumer;
  s_max_queue : int;
  s_apply_every : int;
  s_join_at : int;
  s_queue : batch Queue.t;
  mutable s_active : bool;
  mutable s_cursor : int;
  mutable s_since_apply : int;
  mutable s_overflow : bool;
  mutable s_lag_max : int;
  mutable s_delivered : int;
  mutable s_catchup : int;
  mutable s_overflows : int;
}

type t = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  retain : int;
  staging : staged Vec.t;  (* in staging order; canonicalized at publish *)
  out : event Vec.t;  (* publish scratch: the canonical events *)
  entry : Buffer.t;  (* publish scratch: the serialized feed entry *)
  ring : batch Queue.t;
      (* every published batch, while [retaining]; empty after *)
  mutable retaining : bool;
  feed_buf : Buffer.t option;  (* full serialized feed, tests only *)
  mutable batches : int;
  mutable last_batch : int;
  mutable events : int;
  mutable feed_bytes : int;
  mutable digest : int;
  mutable subs_rev : sub list;
}

let create ?(retain = 64) ?(record_feed = false) ~sim ~costs db =
  if retain < 1 then invalid_arg "Cdc.create: retain must be >= 1";
  {
    sim;
    costs;
    db;
    retain;
    staging = Vec.create ();
    out = Vec.create ();
    entry = Buffer.create 4096;
    ring = Queue.create ();
    retaining = true;
    feed_buf = (if record_feed then Some (Buffer.create 4096) else None);
    batches = 0;
    last_batch = -1;
    events = 0;
    feed_bytes = 0;
    digest = 5381;
    subs_rev = [];
  }

let subscribe t ~name ?(max_queue = 256) ?(apply_every = 1) ?(join_at = 0)
    consumer =
  if max_queue < 1 then invalid_arg "Cdc.subscribe: max_queue must be >= 1";
  if apply_every < 1 then invalid_arg "Cdc.subscribe: apply_every must be >= 1";
  if join_at <= t.last_batch then
    invalid_arg
      (Printf.sprintf
         "Cdc.subscribe %s: join_at=%d is already published (last batch %d)"
         name join_at t.last_batch);
  let s =
    {
      s_name = name;
      s_consumer = consumer;
      s_max_queue = max_queue;
      s_apply_every = apply_every;
      s_join_at = join_at;
      s_queue = Queue.create ();
      s_active = false;
      s_cursor = -1;
      s_since_apply = 0;
      s_overflow = false;
      s_lag_max = 0;
      s_delivered = 0;
      s_catchup = 0;
      s_overflows = 0;
    }
  in
  (* Joining at the very next batch is not late: activate now, with
     nothing to catch up on.  Larger [join_at]s activate at publish
     time via ring replay or snapshot. *)
  if join_at = t.last_batch + 1 then s.s_active <- true;
  t.subs_rev <- s :: t.subs_rev;
  s

let stage t ~table ~key ~before ~after =
  Vec.push t.staging
    { s_table = table; s_key = key; s_before = Some (Array.copy before);
      s_after = after; s_slot = -1 }

let stage_insert t ~table ~key ~after =
  Vec.push t.staging
    { s_table = table; s_key = key; s_before = None; s_after = after;
      s_slot = -1 }

let stage_row t ~table slot =
  let tbl = Db.table t.db table in
  let s_before =
    if Table.inserter tbl slot >= 0 then None
    else Some (Table.committed_image tbl slot)
  in
  Vec.push t.staging
    { s_table = table; s_key = Table.key_of_slot tbl slot; s_before;
      s_after = [||]; s_slot = slot }

(* ------------------------------------------------------------------ *)
(* Feed serialization                                                  *)
(* ------------------------------------------------------------------ *)

(* Wire shape (same idiom as the WAL's framing):
   batch  := batch_no:8 txns:8 nevents:4 event*
   event  := table:4 key:8 kind:1 [pre:payload] post:payload
   payload := nfields:4 fields:8xn
   kind 0 = update (pre present), 1 = insert (no pre). *)
let serialize_batch buf b =
  Buffer.clear buf;
  Buffer.add_int64_le buf (Int64.of_int b.batch_no);
  Buffer.add_int64_le buf (Int64.of_int b.txns);
  Buffer.add_int32_le buf (Int32.of_int (Array.length b.events));
  let payload a =
    Buffer.add_int32_le buf (Int32.of_int (Array.length a));
    Array.iter (fun v -> Buffer.add_int64_le buf (Int64.of_int v)) a
  in
  Array.iter
    (fun ev ->
      Buffer.add_int32_le buf (Int32.of_int ev.table);
      Buffer.add_int64_le buf (Int64.of_int ev.key);
      (match ev.before with
      | Some pre ->
          Buffer.add_char buf '\000';
          payload pre
      | None -> Buffer.add_char buf '\001');
      payload ev.after)
    b.events

(* djb2 rolled across the whole feed, masked to 32 bits: two feeds have
   equal digests iff their serialized bytes match (the [record_feed]
   tests additionally compare the bytes themselves). *)
let digest_buffer h buf =
  let h = ref h in
  for i = 0 to Buffer.length buf - 1 do
    h := (((!h lsl 5) + !h) + Char.code (Buffer.nth buf i)) land 0xffff_ffff
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

let tick t ~charge cost = if charge && cost > 0 then Sim.tick t.sim cost

(* Drain a subscriber to the newest batch: apply the queued entries in
   order, or — after an overflow dropped the queue — re-seed from a
   snapshot scan of the committed database and skip straight to the
   cursor.  The snapshot is the CDC analogue of WAL snapshot recovery:
   everything the subscriber missed is folded into one state transfer
   and accounted as catch-up, not delivery. *)
let apply t ~charge s =
  let applied = ref false in
  if s.s_overflow then begin
    s.s_consumer.on_snapshot t.db ~batch_no:t.last_batch;
    s.s_catchup <- s.s_catchup + (t.last_batch - s.s_cursor);
    s.s_cursor <- t.last_batch;
    s.s_overflow <- false;
    tick t ~charge t.costs.Costs.cdc_publish;
    applied := true
  end
  else
    while not (Queue.is_empty s.s_queue) do
      let b = Queue.pop s.s_queue in
      s.s_consumer.on_batch b;
      s.s_delivered <- s.s_delivered + Array.length b.events;
      s.s_cursor <- b.batch_no;
      tick t ~charge (Array.length b.events * t.costs.Costs.cdc_event);
      applied := true
    done;
  s.s_since_apply <- 0;
  if !applied then s.s_consumer.on_caught_up ~batch_no:s.s_cursor

(* Late-joiner activation at the publish of batch [join_at] or later:
   replay the retention ring when it still covers every published batch,
   otherwise hand the consumer a snapshot as of the current batch. *)
let activate t ~charge s =
  s.s_active <- true;
  if Queue.length t.ring = t.batches then begin
    Queue.iter
      (fun b ->
        s.s_consumer.on_batch b;
        s.s_delivered <- s.s_delivered + Array.length b.events;
        s.s_cursor <- b.batch_no;
        tick t ~charge (Array.length b.events * t.costs.Costs.cdc_event))
      t.ring;
    s.s_catchup <- s.s_catchup + Queue.length t.ring
  end
  else begin
    s.s_consumer.on_snapshot t.db ~batch_no:t.last_batch;
    s.s_cursor <- t.last_batch;
    s.s_catchup <- s.s_catchup + t.batches;
    tick t ~charge t.costs.Costs.cdc_publish
  end;
  s.s_consumer.on_caught_up ~batch_no:s.s_cursor

let deliver t ~charge b =
  List.iter
    (fun s ->
      if not s.s_active then begin
        if s.s_join_at <= b.batch_no then activate t ~charge s
      end
      else begin
        Queue.add b s.s_queue;
        s.s_since_apply <- s.s_since_apply + 1;
        s.s_lag_max <- max s.s_lag_max (b.batch_no - s.s_cursor);
        if Queue.length s.s_queue > s.s_max_queue then begin
          Queue.clear s.s_queue;
          s.s_overflow <- true;
          s.s_overflows <- s.s_overflows + 1
        end;
        if s.s_since_apply >= s.s_apply_every then apply t ~charge s
      end)
    (List.rev t.subs_rev)

let by_row a b =
  let c = Int.compare a.s_table b.s_table in
  if c <> 0 then c else Int.compare a.s_key b.s_key

let same_image a b =
  let n = Array.length a in
  let rec from i = i = n || (a.(i) = b.(i) && from (i + 1)) in
  n = Array.length b && from 0

(* Canonicalize: one event per distinct (table, key), no-ops dropped,
   sorted — the feed entry is a pure function of the pre/post-batch
   committed states, independent of execution interleaving.  A stable
   sort keeps each row's stagings in staging order, so the first one's
   pre-image and the last one's post-image are at the ends of its
   run. *)
let canonical t =
  let staged = Vec.to_array t.staging in
  Vec.clear t.staging;
  Array.stable_sort by_row staged;
  let n = Array.length staged in
  let i = ref 0 in
  while !i < n do
    let first = staged.(!i) in
    let j = ref (!i + 1) in
    while !j < n && by_row first staged.(!j) = 0 do
      incr j
    done;
    let last = staged.(!j - 1) in
    (* The post-image, copied once: a staged slot's live image is
       already a copy. *)
    let after =
      if last.s_slot >= 0 then
        Table.live_image (Db.table t.db last.s_table) last.s_slot
      else last.s_after
    in
    (match first.s_before with
    | Some pre when same_image pre after -> ()
    | before ->
        let after = if last.s_slot >= 0 then after else Array.copy after in
        Vec.push t.out
          { table = first.s_table; key = first.s_key; before; after });
    i := !j
  done;
  let events = Vec.to_array t.out in
  Vec.clear t.out;
  events

let publish t ~batch_no ~txns =
  let events = canonical t in
  let b = { batch_no; txns; events } in
  serialize_batch t.entry b;
  t.digest <- digest_buffer t.digest t.entry;
  t.feed_bytes <- t.feed_bytes + Buffer.length t.entry;
  Option.iter (fun buf -> Buffer.add_buffer buf t.entry) t.feed_buf;
  t.events <- t.events + Array.length events;
  t.batches <- t.batches + 1;
  t.last_batch <- batch_no;
  (* Keep the batch for late joiners only while one is still inactive
     and the ring still holds every published batch: once either fails,
     the ring can never serve a replay again, so it is emptied and no
     longer filled. *)
  if t.retaining then begin
    if
      Queue.length t.ring < t.retain
      && List.exists (fun s -> not s.s_active) t.subs_rev
    then Queue.add b t.ring
    else begin
      Queue.clear t.ring;
      t.retaining <- false
    end
  end;
  Sim.tick t.sim
    (t.costs.Costs.cdc_publish
    + (Array.length events * t.costs.Costs.cdc_event));
  deliver t ~charge:true b

let finish t =
  List.iter
    (fun s ->
      if s.s_active && ((not (Queue.is_empty s.s_queue)) || s.s_overflow)
      then apply t ~charge:false s)
    (List.rev t.subs_rev)

let batches t = t.batches
let events t = t.events
let feed_bytes t = t.feed_bytes
let digest t = t.digest

let feed t =
  match t.feed_buf with Some buf -> Buffer.contents buf | None -> ""

let last_batch t = t.last_batch
let sub_name s = s.s_name
let cursor s = s.s_cursor
let lag_max s = s.s_lag_max
let delivered s = s.s_delivered
let catchup_batches s = s.s_catchup
let overflows s = s.s_overflows
let subs t = List.rev t.subs_rev

let record t (m : Metrics.t) =
  m.Metrics.cdc_events <- m.Metrics.cdc_events + t.events;
  m.Metrics.cdc_bytes <- m.Metrics.cdc_bytes + t.feed_bytes;
  m.Metrics.cdc_batches <- m.Metrics.cdc_batches + t.batches;
  m.Metrics.cdc_subs <- m.Metrics.cdc_subs + List.length t.subs_rev;
  List.iter
    (fun s ->
      m.Metrics.cdc_lag_max <- max m.Metrics.cdc_lag_max s.s_lag_max;
      m.Metrics.cdc_catchup <- m.Metrics.cdc_catchup + s.s_catchup)
    t.subs_rev
