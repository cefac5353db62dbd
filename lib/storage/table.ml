(* The dynamic region's key -> slot map is keyed by plain ints:
   [Int.hash] is [Hashtbl.hash], so buckets and iteration order are the
   generic table's, without its polymorphic equality. *)
module Itbl = Hashtbl.Make (Int)

type cc = Lock | Owner | Tid | Wts | Rts

let cc_words = 5

let cc_index = function
  | Lock -> 0
  | Owner -> 1
  | Tid -> 2
  | Wts -> 3
  | Rts -> 4

let cc_init = function Owner -> max_int | Lock | Tid | Wts | Rts -> 0

type t = {
  name : string;
  nfields : int;
  stride : int;  (* ints per slot in [img]: live image, committed image *)
  nparts : int;
  capacity : int;
  part_size : int;
  home_fn : (int -> int) option;
  mutable nslots : int;
  (* Per slot, sized to the slot capacity [Bytes.length dirty]. *)
  mutable img : int array;
  mutable dirty : Bytes.t;
  (* Per dynamic slot, indexed by [slot - capacity]. *)
  mutable dkey : int array;
  mutable dhome : int array;
  mutable dins : int array;  (* inserter *)
  mutable dgone : Bytes.t;  (* '\001' once the slot's row is removed *)
  mutable slot_of : int Itbl.t;  (* live dynamic key -> slot *)
  (* Per slot, allocated by the engines that use them. *)
  cc : int array array;  (* by [cc_index]; [||] until used *)
  cc_used : bool array;
  mutable versions : Row.version list array;
  mutable versions_used : bool;
}

let create ?home_fn ~name ~nfields ~capacity ~nparts () =
  assert (capacity >= 0 && nparts > 0 && nfields > 0);
  let part_size =
    if capacity = 0 then 1 else (capacity + nparts - 1) / nparts
  in
  {
    name;
    nfields;
    stride = 2 * nfields;
    nparts;
    capacity;
    part_size;
    home_fn;
    nslots = capacity;
    img = Array.make (capacity * 2 * nfields) 0;
    dirty = Bytes.make capacity '\000';
    dkey = [||];
    dhome = [||];
    dins = [||];
    dgone = Bytes.empty;
    slot_of = Itbl.create 64;
    cc = Array.make cc_words [||];
    cc_used = Array.make cc_words false;
    versions = [||];
    versions_used = false;
  }

let name t = t.name
let nfields t = t.nfields
let capacity t = t.capacity
let nparts t = t.nparts

(* Conflict-detector interposition point: when installed (opt-in, via
   the harness's --check-conflicts path) every row probe is reported.
   A single option-ref branch when disabled — the common case. *)
let probe_hook : (table:string -> key:int -> insert:bool -> unit) option ref
    =
  ref None

let set_probe_hook h = probe_hook := h

let probe t key ~insert =
  match !probe_hook with
  | None -> ()
  | Some h -> h ~table:t.name ~key ~insert

let find t key =
  probe t key ~insert:false;
  if key >= 0 && key < t.capacity then key
  else match Itbl.find_opt t.slot_of key with Some s -> s | None -> -1

let key_of_slot t slot =
  if slot < t.capacity then slot else t.dkey.(slot - t.capacity)

let removed t slot =
  slot >= t.capacity && Bytes.get t.dgone (slot - t.capacity) <> '\000'

let slots t = t.nslots

(* [a] resized to [n] entries, new ones [fill]. *)
let resize a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (min n (Array.length a));
  b

(* Room for one more slot: the dynamic region doubles (from 16), and
   every per-slot array with it; the dense region is never padded. *)
let grow t =
  let dcap = max 16 (2 * Array.length t.dkey) in
  let n = t.capacity + dcap in
  t.img <- resize t.img (n * t.stride) 0;
  let d = Bytes.make n '\000' in
  Bytes.blit t.dirty 0 d 0 t.nslots;
  t.dirty <- d;
  t.dkey <- resize t.dkey dcap 0;
  t.dhome <- resize t.dhome dcap 0;
  t.dins <- resize t.dins dcap (-1);
  let g = Bytes.make dcap '\000' in
  Bytes.blit t.dgone 0 g 0 (Bytes.length t.dgone);
  t.dgone <- g;
  List.iter
    (fun w ->
      let i = cc_index w in
      if t.cc_used.(i) then t.cc.(i) <- resize t.cc.(i) n (cc_init w))
    [ Lock; Owner; Tid; Wts; Rts ];
  if t.versions_used then t.versions <- resize t.versions n []

let insert t ~home ~key payload =
  if (key >= 0 && key < t.capacity) || Itbl.mem t.slot_of key then
    invalid_arg (Printf.sprintf "Table.insert %s: duplicate key %d" t.name key);
  if Array.length payload <> t.nfields then
    invalid_arg "Table.insert: payload arity mismatch";
  probe t key ~insert:true;
  if t.nslots = Bytes.length t.dirty then grow t;
  let slot = t.nslots in
  t.nslots <- slot + 1;
  let o = slot * t.stride in
  Array.blit payload 0 t.img o t.nfields;
  Array.blit payload 0 t.img (o + t.nfields) t.nfields;
  let d = slot - t.capacity in
  t.dkey.(d) <- key;
  t.dhome.(d) <- home;
  Itbl.replace t.slot_of key slot;
  slot

let home_of_key t key =
  match t.home_fn with
  | Some f -> f key
  | None ->
      if key >= 0 && key < t.capacity then
        min (key / t.part_size) (t.nparts - 1)
      else (
        match Itbl.find_opt t.slot_of key with
        | Some s -> t.dhome.(s - t.capacity)
        | None -> abs key mod t.nparts)

let home t slot =
  match t.home_fn with
  | Some f -> f (key_of_slot t slot)
  | None ->
      if slot < t.capacity then min (slot / t.part_size) (t.nparts - 1)
      else t.dhome.(slot - t.capacity)

let remove t key =
  if key >= 0 && key < t.capacity then
    invalid_arg "Table.remove: dense keys cannot be removed";
  match Itbl.find_opt t.slot_of key with
  | Some s ->
      Bytes.set t.dgone (s - t.capacity) '\001';
      Itbl.remove t.slot_of key
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Images                                                              *)
(* ------------------------------------------------------------------ *)

let[@inline] off t slot field =
  if field < 0 || field >= t.nfields then invalid_arg "Table: field";
  (slot * t.stride) + field

let get t slot field = t.img.(off t slot field)
let set t slot field v = t.img.(off t slot field) <- v
let committed t slot field = t.img.(off t slot field + t.nfields)
let live_image t slot = Array.sub t.img (slot * t.stride) t.nfields

let blit_live t slot dst off =
  Array.blit t.img (slot * t.stride) dst off t.nfields

let blit_committed t slot dst off =
  Array.blit t.img ((slot * t.stride) + t.nfields) dst off t.nfields

let same_committed t slot img =
  let o = (slot * t.stride) + t.nfields in
  let rec from i =
    i = t.nfields || (t.img.(o + i) = Array.unsafe_get img i && from (i + 1))
  in
  Array.length img = t.nfields && from 0

let committed_image t slot =
  Array.sub t.img ((slot * t.stride) + t.nfields) t.nfields

let check_arity t img =
  if Array.length img <> t.nfields then invalid_arg "Table: image arity"

let restore t slot img =
  check_arity t img;
  Array.blit img 0 t.img (slot * t.stride) t.nfields

let set_committed t slot img =
  check_arity t img;
  Array.blit img 0 t.img ((slot * t.stride) + t.nfields) t.nfields

let load t slot img =
  restore t slot img;
  set_committed t slot img;
  Bytes.set t.dirty slot '\000'

let publish t slot =
  let o = slot * t.stride in
  Array.blit t.img o t.img (o + t.nfields) t.nfields;
  Bytes.set t.dirty slot '\000';
  if slot >= t.capacity then t.dins.(slot - t.capacity) <- -1

let revert t slot =
  let o = slot * t.stride in
  Array.blit t.img (o + t.nfields) t.img o t.nfields;
  Bytes.set t.dirty slot '\000'

(* ------------------------------------------------------------------ *)
(* Batch state and CC words                                            *)
(* ------------------------------------------------------------------ *)

let dirty t slot = Bytes.get t.dirty slot <> '\000'
let set_dirty t slot b = Bytes.set t.dirty slot (if b then '\001' else '\000')
let inserter t slot = if slot < t.capacity then -1 else t.dins.(slot - t.capacity)

let set_inserter t slot by =
  if slot < t.capacity then invalid_arg "Table.set_inserter: dense slot";
  t.dins.(slot - t.capacity) <- by

let use_cc t w =
  let i = cc_index w in
  if not t.cc_used.(i) then begin
    t.cc.(i) <- Array.make (Bytes.length t.dirty) (cc_init w);
    t.cc_used.(i) <- true
  end

let cc t w slot = t.cc.(cc_index w).(slot)
let set_cc t w slot v = t.cc.(cc_index w).(slot) <- v

let use_versions t =
  if not t.versions_used then begin
    t.versions <- Array.make (Bytes.length t.dirty) [];
    t.versions_used <- true
  end

let versions t slot = t.versions.(slot)
let set_versions t slot vs = t.versions.(slot) <- vs

(* ------------------------------------------------------------------ *)
(* Iteration and copies                                                *)
(* ------------------------------------------------------------------ *)

let inserted_count t = Itbl.length t.slot_of

let iter_inserted f t =
  (* lint: order-insensitive — bindings are collected then sorted *)
  let rows = Itbl.fold (fun k s acc -> (k, s) :: acc) t.slot_of [] in
  List.iter
    (fun (k, s) -> f k s)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) rows)

let iter_rows f t =
  for slot = 0 to t.capacity - 1 do
    f slot slot
  done;
  iter_inserted f t

let dense t key =
  if key < 0 || key >= t.capacity then
    invalid_arg (Printf.sprintf "Table.dense %s: key %d" t.name key);
  probe t key ~insert:false;
  { Row.key; committed = committed_image t key }

let iter_dense f t =
  for key = 0 to t.capacity - 1 do
    f { Row.key; committed = committed_image t key }
  done

let clone t =
  {
    t with
    img = Array.copy t.img;
    dirty = Bytes.copy t.dirty;
    dkey = Array.copy t.dkey;
    dhome = Array.copy t.dhome;
    dins = Array.copy t.dins;
    dgone = Bytes.copy t.dgone;
    slot_of = Itbl.copy t.slot_of;
    cc = Array.make cc_words [||];
    cc_used = Array.make cc_words false;
    versions = [||];
    versions_used = false;
  }

let overwrite_from ~src dst =
  if dst.name <> src.name || dst.nfields <> src.nfields
     || dst.capacity <> src.capacity
  then invalid_arg "Table.overwrite_from: shape mismatch";
  let n = Bytes.length src.dirty in
  if Array.length dst.img = Array.length src.img then
    Array.blit src.img 0 dst.img 0 (Array.length src.img)
  else dst.img <- Array.copy src.img;
  dst.dirty <- Bytes.copy src.dirty;
  dst.dkey <- Array.copy src.dkey;
  dst.dhome <- Array.copy src.dhome;
  dst.dins <- Array.copy src.dins;
  dst.dgone <- Bytes.copy src.dgone;
  dst.slot_of <- Itbl.copy src.slot_of;
  dst.nslots <- src.nslots;
  (* CC state stays with the dense rows; dynamic rows are fresh. *)
  List.iter
    (fun w ->
      let i = cc_index w in
      if dst.cc_used.(i) then
        dst.cc.(i) <-
          resize (Array.sub dst.cc.(i) 0 dst.capacity) n (cc_init w))
    [ Lock; Owner; Tid; Wts; Rts ];
  if dst.versions_used then
    dst.versions <- resize (Array.sub dst.versions 0 dst.capacity) n []
