(* Silo-style OCC (Tu et al., SOSP'13) as an {!Occ} policy.  A read
   records the row's TID word; validation checks that every recorded TID
   is unchanged and not latched by another committer, and the commit
   TID exceeds every TID the attempt saw. *)

open Quill_storage

include Occ.Make (struct
  (* lint: engine-name-ok — protocol display name consumed by the registry *)
  let name = "silo"

  type rentry = int

  let use tbl = Table.use_cc tbl Table.Tid
  let tid (r : Pcommon.row) = Table.cc r.tbl Table.Tid r.slot
  let entry = Some (fun tbl slot -> Table.cc tbl Table.Tid slot)
  let read _ = Table.get
  let admit_write _ _ _ = true

  let validate ~tick _ ~reads ~writes =
    let valid ((r : Pcommon.row), seen) =
      tick ();
      tid r = seen
      && (Table.cc r.tbl Table.Lock r.slot = 0 || Pcommon.mem r writes)
    in
    if not (List.for_all valid reads) then None
    else
      let seen = List.fold_left (fun acc (_, tid) -> max acc tid) 0 reads in
      Some (1 + List.fold_left (fun acc r -> max acc (tid r)) seen writes)

  let pre_install _ = ()
  let stamp tbl slot tid = Table.set_cc tbl Table.Tid slot tid
end)
