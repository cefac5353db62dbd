open Quill_common

type t = {
  nparts : int;
  tables : Table.t Vec.t;
  indexes : Index.t Vec.t;
  table_ids : (string, int) Hashtbl.t;
  index_ids : (string, int) Hashtbl.t;
}

let create ~nparts =
  assert (nparts > 0);
  {
    nparts;
    tables = Vec.create ();
    indexes = Vec.create ();
    table_ids = Hashtbl.create 16;
    index_ids = Hashtbl.create 16;
  }

let nparts t = t.nparts

let add_table ?home_fn t ~name ~nfields ~capacity =
  if Hashtbl.mem t.table_ids name then
    invalid_arg ("Db.add_table: duplicate " ^ name);
  let id = Vec.length t.tables in
  Vec.push t.tables
    (Table.create ?home_fn ~name ~nfields ~capacity ~nparts:t.nparts ());
  Hashtbl.replace t.table_ids name id;
  id

let add_index t ~name =
  if Hashtbl.mem t.index_ids name then
    invalid_arg ("Db.add_index: duplicate " ^ name);
  let id = Vec.length t.indexes in
  Vec.push t.indexes (Index.create ~name);
  Hashtbl.replace t.index_ids name id;
  id

let table t id = Vec.get t.tables id

let table_id t name =
  match Hashtbl.find_opt t.table_ids name with
  | Some id -> id
  | None -> invalid_arg ("Db.table_id: unknown " ^ name)

let table_by_name t name = table t (table_id t name)
let index t id = Vec.get t.indexes id

let index_id t name =
  match Hashtbl.find_opt t.index_ids name with
  | Some id -> id
  | None -> invalid_arg ("Db.index_id: unknown " ^ name)

let ntables t = Vec.length t.tables
let home t tid key = Table.home_of_key (table t tid) key

(* FNV-style mixing keyed by (table, key, field, value); summed so the
   digest is independent of iteration order. *)
let mix a b =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
  let h = h lxor (h lsr 31) in
  h * 0xC2B2AE3D

let digest_of ~live t =
  let acc = ref 0 in
  Vec.iteri
    (fun tid tbl ->
      let read = if live then Table.get else Table.committed in
      for key = 0 to Table.capacity tbl - 1 do
        let row = mix tid key in
        for f = 0 to Table.nfields tbl - 1 do
          acc := !acc + mix row (mix f (read tbl key f))
        done
      done;
      acc := !acc + mix tid (Table.inserted_count tbl))
    t.tables;
  !acc land max_int

let checksum t = digest_of ~live:false t
let live_checksum t = digest_of ~live:true t

let clone t =
  let c = create ~nparts:t.nparts in
  Vec.iter (fun tbl -> Vec.push c.tables (Table.clone tbl)) t.tables;
  Vec.iter (fun idx -> Vec.push c.indexes (Index.clone idx)) t.indexes;
  Hashtbl.iter (* lint: order-insensitive — key-to-id map copy *)
    (fun k v -> Hashtbl.replace c.table_ids k v)
    t.table_ids;
  Hashtbl.iter (* lint: order-insensitive — key-to-id map copy *)
    (fun k v -> Hashtbl.replace c.index_ids k v)
    t.index_ids;
  c

let overwrite_from ~src dst =
  if
    dst.nparts <> src.nparts
    || Vec.length dst.tables <> Vec.length src.tables
    || Vec.length dst.indexes <> Vec.length src.indexes
  then invalid_arg "Db.overwrite_from: shape mismatch";
  Vec.iteri
    (fun i tbl -> Table.overwrite_from ~src:(Vec.get src.tables i) tbl)
    dst.tables;
  Vec.iteri
    (fun i idx -> Index.overwrite_from ~src:(Vec.get src.indexes i) idx)
    dst.indexes
