(* TicToc timestamp-ordering OCC (Yu et al., SIGMOD'16) as an {!Occ}
   policy.  Each row carries a write timestamp [wts] and read timestamp
   [rts] delimiting the interval in which its current version is valid.
   The commit timestamp is computed lazily from the access set; read
   validity intervals are extended at validation when possible, which
   commits many schedules classic OCC would abort. *)

open Quill_storage

include Occ.Make (struct
  (* lint: engine-name-ok — protocol display name consumed by the registry *)
  let name = "tictoc"

  type rentry = { r_wts : int; r_rts : int }

  let use tbl =
    Table.use_cc tbl Table.Wts;
    Table.use_cc tbl Table.Rts

  let wts (r : Pcommon.row) = Table.cc r.tbl Table.Wts r.slot
  let rts (r : Pcommon.row) = Table.cc r.tbl Table.Rts r.slot
  let entry =
    Some
      (fun tbl slot ->
        { r_wts = Table.cc tbl Table.Wts slot; r_rts = Table.cc tbl Table.Rts slot })

  let read _ = Table.get
  let admit_write _ _ _ = true

  let validate ~tick _ ~reads ~writes =
    let ts = List.fold_left (fun acc r -> max acc (rts r + 1)) 0 writes in
    let ts = List.fold_left (fun acc (_, re) -> max acc re.r_wts) ts reads in
    (* Validate each read at [ts], extending its interval when needed. *)
    let valid ((r : Pcommon.row), re) =
      tick ();
      if re.r_rts >= ts then true
      else if wts r <> re.r_wts then false
      else if Table.cc r.tbl Table.Lock r.slot = -1 && not (Pcommon.mem r writes)
      then false
      else begin
        Table.set_cc r.tbl Table.Rts r.slot (max (rts r) ts);
        true
      end
    in
    if List.for_all valid reads then Some ts else None

  let pre_install _ = ()

  let stamp tbl slot ts =
    Table.set_cc tbl Table.Wts slot ts;
    Table.set_cc tbl Table.Rts slot ts
end)
