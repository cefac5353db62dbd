(* Silo-style OCC (Tu et al., SOSP'13) as an {!Occ} policy.  A read
   records the row's TID word; validation checks that every recorded TID
   is unchanged and not latched by another committer, and the commit
   TID exceeds every TID the attempt saw. *)

open Quill_storage

include Occ.Make (struct
  (* lint: engine-name-ok — protocol display name consumed by the registry *)
  let name = "silo"

  type rentry = int

  let entry = Some (fun row -> row.Row.tid)
  let read _ row field = row.Row.data.(field)
  let admit_write _ _ = true

  let validate ~tick _ ~reads ~writes =
    let valid (row, seen) =
      tick ();
      row.Row.tid = seen && (row.Row.lock = 0 || List.memq row writes)
    in
    if not (List.for_all valid reads) then None
    else
      let seen = List.fold_left (fun acc (_, tid) -> max acc tid) 0 reads in
      Some (1 + List.fold_left (fun acc row -> max acc row.Row.tid) seen writes)

  let pre_install _ = ()
  let stamp row tid = row.Row.tid <- tid
end)
