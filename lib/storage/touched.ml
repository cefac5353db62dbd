type t = Quill_common.Ivec.t

module Ivec = Quill_common.Ivec

let create () = Ivec.create ()

let add db t ~table slot =
  let tbl = Db.table db table in
  if not (Table.dirty tbl slot) then begin
    Table.set_dirty tbl slot true;
    let i = Ivec.extend t 2 in
    let d = Ivec.data t in
    Array.unsafe_set d i table;
    Array.unsafe_set d (i + 1) slot
  end

let iter f t =
  let d = Ivec.data t in
  for i = 0 to (Ivec.length t / 2) - 1 do
    f (Array.unsafe_get d (2 * i)) (Array.unsafe_get d ((2 * i) + 1))
  done

let clear = Ivec.clear

let publish db t =
  iter (fun table slot -> Table.publish (Db.table db table) slot) t;
  clear t

let revert db t =
  iter (fun table slot -> Table.revert (Db.table db table) slot) t;
  clear t
