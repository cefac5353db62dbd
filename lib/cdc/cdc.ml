module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Metrics = Quill_txn.Metrics
module Vec = Quill_common.Vec
module Ivec = Quill_common.Ivec
module Djb2 = Quill_common.Djb2

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
  on_caught_up : batch_no:int -> unit;
}

(* A staging is [st_stride] ints of [staging], in staging order: table,
   key, source and the offset and length of its pre-image in [pres]
   (offset -1 for an insert).  The pre-image is copied at stage time
   because the engine's publish overwrites the committed image before
   the feed entry is sealed.  The post-image is read at publish time:
   a source [s >= 0] is slot [s] of the hub's database, whose live
   image IS the final post-image by the commit point; a source [-1-i]
   is the array [afters.(i)] given to {!stage}. *)
let st_stride = 5

type sub = {
  s_consumer : consumer;
  s_apply_every : int;
  s_queue : batch Queue.t;  (* published, not yet applied *)
  mutable s_cursor : int;
  mutable s_lag_max : int;
  mutable s_delivered : int;
}

type t = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  staging : Ivec.t;  (* [st_stride] ints per staging *)
  pres : Ivec.t;  (* the stagings' pre-images, back to back *)
  afters : int array Vec.t;  (* post-images given to [stage] *)
  (* publish scratch *)
  mutable bounds : int array;  (* per table: end of its stagings *)
  mutable keys : int array;  (* the stagings' keys, sorted *)
  mutable idx : int array;  (* the staging index of each of [keys] *)
  mutable tk : int array;  (* radix-sort scratch for [keys] *)
  mutable ti : int array;  (* and for [idx] *)
  counts : int array;  (* radix-sort digit counts *)
  out : event Vec.t;  (* the canonical events *)
  mutable entry : Bytes.t;  (* the serialized feed entry *)
  feed_buf : Buffer.t option;  (* full serialized feed, tests only *)
  mutable batches : int;
  mutable last_batch : int;
  mutable events : int;
  mutable feed_bytes : int;
  mutable digest : int;
  mutable subs : sub list;  (* registration order *)
}

let create ?(record_feed = false) ~sim ~costs db =
  {
    sim;
    costs;
    db;
    staging = Ivec.create ();
    pres = Ivec.create ();
    afters = Vec.create ();
    bounds = [||];
    keys = [||];
    idx = [||];
    tk = [||];
    ti = [||];
    counts = Array.make 257 0;
    out = Vec.create ();
    entry = Bytes.create 4096;
    feed_buf = (if record_feed then Some (Buffer.create 4096) else None);
    batches = 0;
    last_batch = -1;
    events = 0;
    feed_bytes = 0;
    digest = Djb2.init;
    subs = [];
  }

let subscribe t ~name ?(apply_every = 1) consumer =
  if apply_every < 1 then invalid_arg "Cdc.subscribe: apply_every must be >= 1";
  if t.batches > 0 then
    invalid_arg
      (Printf.sprintf
         "Cdc.subscribe %s: batch %d is already published; subscribe \
          before the first publish"
         name t.last_batch);
  let s =
    {
      s_consumer = consumer;
      s_apply_every = apply_every;
      s_queue = Queue.create ();
      s_cursor = -1;
      s_lag_max = 0;
      s_delivered = 0;
    }
  in
  t.subs <- t.subs @ [ s ];
  s

let push_staging t ~table ~key ~src ~pre ~len =
  if table < 0 then invalid_arg "Cdc.stage: negative table";
  let j = Ivec.extend t.staging st_stride in
  let d = Ivec.data t.staging in
  d.(j) <- table;
  d.(j + 1) <- key;
  d.(j + 2) <- src;
  d.(j + 3) <- pre;
  d.(j + 4) <- len

let stage t ~table ~key ~before ~after =
  let len = Array.length before in
  let pre = Ivec.extend t.pres len in
  Array.blit before 0 (Ivec.data t.pres) pre len;
  push_staging t ~table ~key ~src:(-1 - Vec.length t.afters) ~pre ~len;
  Vec.push t.afters after

let stage_insert t ~table ~key ~after =
  push_staging t ~table ~key ~src:(-1 - Vec.length t.afters) ~pre:(-1) ~len:0;
  Vec.push t.afters after

let stage_row t ~table slot =
  let tbl = Db.table t.db table in
  let key = Table.key_of_slot tbl slot in
  if Table.inserter tbl slot >= 0 then
    push_staging t ~table ~key ~src:slot ~pre:(-1) ~len:0
  else begin
    let len = Table.nfields tbl in
    let pre = Ivec.extend t.pres len in
    Table.blit_committed tbl slot (Ivec.data t.pres) pre;
    push_staging t ~table ~key ~src:slot ~pre ~len
  end

(* ------------------------------------------------------------------ *)
(* Feed serialization                                                  *)
(* ------------------------------------------------------------------ *)

(* Wire shape (same idiom as the WAL's framing):
   batch  := batch_no:8 txns:8 nevents:4 event*
   event  := table:4 key:8 kind:1 [pre:payload] post:payload
   payload := nfields:4 fields:8xn
   kind 0 = update (pre present), 1 = insert (no pre). *)
let serialized_size (b : batch) =
  let payload a = 4 + (8 * Array.length a) in
  Array.fold_left
    (fun n ev ->
      n + 13
      + (match ev.before with Some pre -> payload pre | None -> 0)
      + payload ev.after)
    20 b.events

(* Serialize [b] into [t.entry] (grown as needed); returns its length. *)
let serialize_batch t (b : batch) =
  let len = serialized_size b in
  if Bytes.length t.entry < len then
    t.entry <- Bytes.create (max len (2 * Bytes.length t.entry));
  let e = t.entry and pos = ref 0 in
  let i32 v =
    Bytes.set_int32_le e !pos (Int32.of_int v);
    pos := !pos + 4
  in
  let i64 v =
    Bytes.set_int64_le e !pos (Int64.of_int v);
    pos := !pos + 8
  in
  let payload a =
    i32 (Array.length a);
    for i = 0 to Array.length a - 1 do
      i64 (Array.unsafe_get a i)
    done
  in
  i64 b.batch_no;
  i64 b.txns;
  i32 (Array.length b.events);
  Array.iter
    (fun ev ->
      i32 ev.table;
      i64 ev.key;
      (match ev.before with
      | Some pre ->
          Bytes.set e !pos '\000';
          incr pos;
          payload pre
      | None ->
          Bytes.set e !pos '\001';
          incr pos);
      payload ev.after)
    b.events;
  len

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

let tick t ~charge cost = if charge && cost > 0 then Sim.tick t.sim cost

(* Drain a subscriber to the newest batch: apply the queued entries in
   order, then report the caught-up point.  Only called with a
   non-empty queue. *)
let apply t ~charge s =
  while not (Queue.is_empty s.s_queue) do
    let b = Queue.pop s.s_queue in
    s.s_consumer.on_batch b;
    s.s_delivered <- s.s_delivered + Array.length b.events;
    s.s_cursor <- b.batch_no;
    tick t ~charge (Array.length b.events * t.costs.Costs.cdc_event)
  done;
  s.s_consumer.on_caught_up ~batch_no:s.s_cursor

(* Queue [b] to every subscriber, in registration order, and drain each
   one whose queue holds [apply_every] batches. *)
let deliver t b =
  List.iter
    (fun s ->
      Queue.add b s.s_queue;
      s.s_lag_max <- max s.s_lag_max (b.batch_no - s.s_cursor);
      if Queue.length s.s_queue >= s.s_apply_every then apply t ~charge:true s)
    t.subs

(* Sort [keys.(lo .. hi-1)] by signed value, carrying [idx] along and
   keeping equal keys in their order (stable): an insertion sort on a
   short range, else an LSD radix sort on the 8-bit digits of
   [key lxor min_int] (unsigned, in the order of the signed keys) that
   skips every digit on which all keys agree.  Keys are arbitrary ints,
   sorted as they are: no comparator, nothing allocated. *)
let sort_keys t keys idx lo hi =
  if hi - lo <= 32 then
    for k = lo + 1 to hi - 1 do
      let x = keys.(k) and xi = idx.(k) in
      let m = ref (k - 1) in
      while !m >= lo && keys.(!m) > x do
        keys.(!m + 1) <- keys.(!m);
        idx.(!m + 1) <- idx.(!m);
        decr m
      done;
      keys.(!m + 1) <- x;
      idx.(!m + 1) <- xi
    done
  else begin
    let diff = ref 0 in
    for k = lo + 1 to hi - 1 do
      diff := !diff lor (keys.(k) lxor keys.(lo))
    done;
    let counts = t.counts and tk = t.tk and ti = t.ti in
    (* after an odd number of passes the sorted range is in [tk]/[ti] *)
    let flipped = ref false in
    let shift = ref 0 in
    while !shift < Sys.int_size && !diff lsr !shift <> 0 do
      if (!diff lsr !shift) land 0xff <> 0 then begin
        let sk, si, dk, di =
          if !flipped then (tk, ti, keys, idx) else (keys, idx, tk, ti)
        in
        Array.fill counts 0 257 0;
        for k = lo to hi - 1 do
          let dg = ((sk.(k) lxor min_int) lsr !shift) land 0xff in
          counts.(dg + 1) <- counts.(dg + 1) + 1
        done;
        counts.(0) <- lo;
        for dg = 1 to 256 do
          counts.(dg) <- counts.(dg) + counts.(dg - 1)
        done;
        for k = lo to hi - 1 do
          let key = sk.(k) in
          let dg = ((key lxor min_int) lsr !shift) land 0xff in
          let p = counts.(dg) in
          dk.(p) <- key;
          di.(p) <- si.(k);
          counts.(dg) <- p + 1
        done;
        flipped := not !flipped
      end;
      shift := !shift + 8
    done;
    if !flipped then begin
      Array.blit tk lo keys lo (hi - lo);
      Array.blit ti lo idx lo (hi - lo)
    end
  end

(* Whether the pre-image at [pres.(o .. o+len-1)] equals [img]. *)
let same_pre pres o len img =
  let rec from i = i = len || (pres.(o + i) = img.(i) && from (i + 1)) in
  len = Array.length img && from 0

(* [a] with room for [n] ints. *)
let room a n =
  if Array.length a >= n then a
  else Array.make (max n (2 * Array.length a)) 0

(* Canonicalize: one event per distinct (table, key), no-ops dropped,
   sorted — the feed entry is a pure function of the pre/post-batch
   committed states, independent of execution interleaving.  The sort
   key is (table, key, staging order): a counting sort by table keeps
   staging order, then a stable radix sort by key within each table,
   so each row's stagings form one run in staging order, the first
   one's pre-image and the last one's post-image at its ends. *)
let canonical t =
  let n = Ivec.length t.staging / st_stride in
  let d = Ivec.data t.staging and pres = Ivec.data t.pres in
  let ntables = ref 0 in
  for i = 0 to n - 1 do
    ntables := max !ntables (d.(i * st_stride) + 1)
  done;
  t.bounds <- room t.bounds (!ntables + 1);
  t.keys <- room t.keys n;
  t.idx <- room t.idx n;
  t.tk <- room t.tk n;
  t.ti <- room t.ti n;
  let bounds = t.bounds and keys = t.keys and idx = t.idx in
  (* bounds.(tb + 1): the stagings of tables below and at [tb] *)
  Array.fill bounds 0 (!ntables + 1) 0;
  for i = 0 to n - 1 do
    let b = d.(i * st_stride) + 1 in
    bounds.(b) <- bounds.(b) + 1
  done;
  for tb = 1 to !ntables do
    bounds.(tb) <- bounds.(tb) + bounds.(tb - 1)
  done;
  (* place by table, counting [bounds.(tb)] up to table [tb]'s end *)
  for i = 0 to n - 1 do
    let tb = d.(i * st_stride) in
    let p = bounds.(tb) in
    keys.(p) <- d.((i * st_stride) + 1);
    idx.(p) <- i;
    bounds.(tb) <- p + 1
  done;
  let lo = ref 0 in
  for table = 0 to !ntables - 1 do
    let hi = bounds.(table) in
    sort_keys t keys idx !lo hi;
    let i = ref !lo in
    while !i < hi do
      let key = keys.(!i) in
      let j = ref (!i + 1) in
      while !j < hi && keys.(!j) = key do
        incr j
      done;
      let first = idx.(!i) * st_stride in
      let src = d.((idx.(!j - 1) * st_stride) + 2) in
      (* The post-image, copied once, and only for a kept event when it
         is the caller's array. *)
      let after =
        if src >= 0 then Table.live_image (Db.table t.db table) src
        else Vec.get t.afters (-1 - src)
      in
      let o = d.(first + 3) and len = d.(first + 4) in
      if not (o >= 0 && same_pre pres o len after) then
        Vec.push t.out
          {
            table;
            key;
            before = (if o < 0 then None else Some (Array.sub pres o len));
            after = (if src >= 0 then after else Array.copy after);
          };
      i := !j
    done;
    lo := hi
  done;
  Ivec.clear t.staging;
  Ivec.clear t.pres;
  Vec.clear t.afters;
  let events = Vec.to_array t.out in
  Vec.clear t.out;
  events

let publish t ~batch_no ~txns =
  let events = canonical t in
  let b = { batch_no; txns; events } in
  let len = serialize_batch t b in
  t.digest <- Djb2.fold t.digest t.entry 0 len;
  t.feed_bytes <- t.feed_bytes + len;
  Option.iter (fun buf -> Buffer.add_subbytes buf t.entry 0 len) t.feed_buf;
  t.events <- t.events + Array.length events;
  t.batches <- t.batches + 1;
  t.last_batch <- batch_no;
  Sim.tick t.sim
    (t.costs.Costs.cdc_publish
    + (Array.length events * t.costs.Costs.cdc_event));
  deliver t b

let finish t =
  List.iter
    (fun s ->
      if not (Queue.is_empty s.s_queue) then apply t ~charge:false s)
    t.subs

let batches t = t.batches
let events t = t.events
let feed_bytes t = t.feed_bytes
let digest t = t.digest

let feed t =
  match t.feed_buf with Some buf -> Buffer.contents buf | None -> ""

let last_batch t = t.last_batch
let lag_max s = s.s_lag_max
let delivered s = s.s_delivered

let record t (m : Metrics.t) =
  m.Metrics.cdc_events <- m.Metrics.cdc_events + t.events;
  m.Metrics.cdc_bytes <- m.Metrics.cdc_bytes + t.feed_bytes;
  m.Metrics.cdc_batches <- m.Metrics.cdc_batches + t.batches;
  m.Metrics.cdc_subs <- m.Metrics.cdc_subs + List.length t.subs;
  List.iter
    (fun s -> m.Metrics.cdc_lag_max <- max m.Metrics.cdc_lag_max s.s_lag_max)
    t.subs
