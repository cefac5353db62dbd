module Db = Quill_storage.Db
module Table = Quill_storage.Table

(* One table's cache.  A dense key indexes [dense] directly (allocated
   at the first dense key the feed mentions, so a table the feed never
   changes costs nothing) and [present] says which entries hold an
   image.  An inserted key goes to an open-addressing table with linear
   probing: [keys], [imgs] and [used] in parallel, a power of two
   entries, at most half full, so caching an image allocates nothing
   beyond the table's own growth. *)
type cache = {
  capacity : int;
  mutable dense : int array array;
  mutable present : Bytes.t;
  mutable ndense : int;  (* dense images held *)
  mutable keys : int array;
  mutable imgs : int array array;
  mutable used : Bytes.t;
  mutable shift : int;  (* [Sys.int_size] - log2 (Array.length keys) *)
  mutable ndyn : int;  (* inserted keys held *)
}

type t = {
  cache : cache array;
  mutable cursor : int;
  mutable reads : int;
}

let new_cache tbl =
  {
    capacity = Table.capacity tbl;
    dense = [||];
    present = Bytes.empty;
    ndense = 0;
    keys = Array.make 16 0;
    imgs = Array.make 16 [||];
    used = Bytes.make 16 '\000';
    shift = Sys.int_size - 4;
    ndyn = 0;
  }

let create db =
  {
    cache = Array.init (Db.ntables db) (fun i -> new_cache (Db.table db i));
    cursor = -1;
    reads = 0;
  }

(* The entry holding [key], or the empty entry where it belongs:
   multiplicative hashing (the top bits of [key] times an odd
   constant), then linear probing. *)
let entry c key =
  let mask = Array.length c.keys - 1 in
  let i = ref ((key * 0x4f1bbcdcbfa53e0b) lsr c.shift) in
  while Bytes.get c.used !i <> '\000' && c.keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let rec put_dyn c key img =
  if 2 * (c.ndyn + 1) > Array.length c.keys then begin
    let keys = c.keys and imgs = c.imgs and used = c.used in
    let n = 2 * Array.length keys in
    c.keys <- Array.make n 0;
    c.imgs <- Array.make n [||];
    c.used <- Bytes.make n '\000';
    c.shift <- c.shift - 1;
    c.ndyn <- 0;
    Array.iteri
      (fun i k -> if Bytes.get used i <> '\000' then put_dyn c k imgs.(i))
      keys
  end;
  let i = entry c key in
  if Bytes.get c.used i = '\000' then begin
    Bytes.set c.used i '\001';
    c.keys.(i) <- key;
    c.ndyn <- c.ndyn + 1
  end;
  c.imgs.(i) <- img

let is_dense c key = key >= 0 && key < c.capacity

let put c key img =
  if is_dense c key then begin
    if Array.length c.dense = 0 then begin
      c.dense <- Array.make c.capacity [||];
      c.present <- Bytes.make c.capacity '\000'
    end;
    if Bytes.get c.present key = '\000' then begin
      Bytes.set c.present key '\001';
      c.ndense <- c.ndense + 1
    end;
    c.dense.(key) <- img
  end
  else put_dyn c key img

(* Feed events are immutable, so the cache keeps each event's [after]
   array as it is. *)
let consumer t =
  let on_batch (b : Cdc.batch) =
    Array.iter
      (fun (ev : Cdc.event) ->
        put t.cache.(ev.Cdc.table) ev.Cdc.key ev.Cdc.after)
      b.Cdc.events;
    t.cursor <- b.Cdc.batch_no
  in
  let on_caught_up ~batch_no:_ = () in
  { Cdc.on_batch; on_caught_up }

let read t ~table ~key =
  t.reads <- t.reads + 1;
  let c = t.cache.(table) in
  if is_dense c key then
    if Bytes.length c.present > 0 && Bytes.get c.present key <> '\000' then
      Some c.dense.(key)
    else None
  else
    let i = entry c key in
    if Bytes.get c.used i <> '\000' then Some c.imgs.(i) else None

let cursor t = t.cursor

let rows t =
  Array.fold_left (fun n c -> n + c.ndense + c.ndyn) 0 t.cache

let reads t = t.reads

let consistent_with t db =
  let ok = ref true in
  Array.iteri
    (fun tid c ->
      let tbl = Db.table db tid in
      for key = 0 to Bytes.length c.present - 1 do
        if
          Bytes.get c.present key <> '\000'
          && not (Table.same_committed tbl key c.dense.(key))
        then ok := false
      done;
      for i = 0 to Bytes.length c.used - 1 do
        if Bytes.get c.used i <> '\000' then begin
          let slot = Table.find tbl c.keys.(i) in
          if slot < 0 || not (Table.same_committed tbl slot c.imgs.(i)) then
            ok := false
        end
      done)
    t.cache;
  !ok
