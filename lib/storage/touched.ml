type t = int Quill_common.Vec.t

module Vec = Quill_common.Vec

let create () = Vec.create ()

let add db t ~table slot =
  let tbl = Db.table db table in
  if not (Table.dirty tbl slot) then begin
    Table.set_dirty tbl slot true;
    Vec.push t table;
    Vec.push t slot
  end

let iter f t =
  for i = 0 to (Vec.length t / 2) - 1 do
    f (Vec.get t (2 * i)) (Vec.get t ((2 * i) + 1))
  done

let clear = Vec.clear

let publish db t =
  iter (fun table slot -> Table.publish (Db.table db table) slot) t;
  clear t

let revert db t =
  iter (fun table slot -> Table.revert (Db.table db table) slot) t;
  clear t
