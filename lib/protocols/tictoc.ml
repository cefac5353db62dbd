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

  let entry = Some (fun row -> { r_wts = row.Row.wts; r_rts = row.Row.rts })
  let read _ row field = row.Row.data.(field)
  let admit_write _ _ = true

  let validate ~tick _ ~reads ~writes =
    let ts = List.fold_left (fun acc row -> max acc (row.Row.rts + 1)) 0 writes in
    let ts = List.fold_left (fun acc (_, re) -> max acc re.r_wts) ts reads in
    (* Validate each read at [ts], extending its interval when needed. *)
    let valid (row, re) =
      tick ();
      if re.r_rts >= ts then true
      else if row.Row.wts <> re.r_wts then false
      else if row.Row.lock = -1 && not (List.memq row writes) then false
      else begin
        row.Row.rts <- max row.Row.rts ts;
        true
      end
    in
    if List.for_all valid reads then Some ts else None

  let pre_install _ = ()

  let stamp row ts =
    row.Row.wts <- ts;
    row.Row.rts <- ts
end)
