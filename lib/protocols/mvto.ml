(* Multi-version timestamp ordering — the representative of the
   multi-version engine class the paper compares against (Cicada, ERMIA,
   FOEDUS; see DESIGN.md for the substitution argument) — as an {!Occ}
   policy whose timestamp is the attempt's number.

   The row's live image is always the newest version (with interval
   [wts, rts]); older snapshots are kept on the table's per-slot version
   chain (newest first) so that readers with older timestamps never
   block or abort.  Writers abort when they would invalidate a read that
   already happened ([rts] in the future) or write below an installed
   version. *)

open Quill_storage

let max_versions = 8

let read_version ts tbl slot field =
  if ts >= Table.cc tbl Table.Wts slot then begin
    if ts > Table.cc tbl Table.Rts slot then Table.set_cc tbl Table.Rts slot ts;
    Some (Table.get tbl slot field)
  end
  else begin
    let rec go = function
      | [] -> None (* too old: all kept versions are newer *)
      | (v : Row.version) :: rest ->
          if v.Row.v_wts <= ts then begin
            if ts > v.Row.v_rts then v.Row.v_rts <- ts;
            Some v.Row.v_data.(field)
          end
          else go rest
    in
    go (Table.versions tbl slot)
  end

(* Writing at or above every installed version and performed read keeps
   timestamp order. *)
let in_order (a : Occ.attempt) tbl slot =
  Table.cc tbl Table.Wts slot <= a.ts && Table.cc tbl Table.Rts slot <= a.ts

include Occ.Make (struct
  (* lint: engine-name-ok — protocol display name consumed by the registry *)
  let name = "mvto"

  type rentry = unit

  let use tbl =
    Table.use_cc tbl Table.Wts;
    Table.use_cc tbl Table.Rts;
    Table.use_versions tbl

  let entry = None

  let read (a : Occ.attempt) tbl slot field =
    (* A latched row is mid-install: reading now could miss the version
       being written after its validation already passed (lost update).
       Abort and retry instead. *)
    let v =
      if Table.cc tbl Table.Lock slot <> 0 then None
      else read_version a.ts tbl slot field
    in
    match v with
    | Some v -> v
    | None ->
        a.doomed <- true;
        0

  (* Early abort (Cicada-style): a version or read newer than our
     timestamp already dooms this write at validation. *)
  let admit_write = in_order

  let validate ~tick a ~reads:_ ~writes =
    let valid (r : Pcommon.row) =
      tick ();
      in_order a r.tbl r.slot
    in
    if List.for_all valid writes then Some a.Occ.ts else None

  (* Snapshot the current newest version before it is overwritten. *)
  let pre_install (r : Pcommon.row) =
    let snap =
      { Row.v_data = Table.live_image r.tbl r.slot;
        v_wts = Table.cc r.tbl Table.Wts r.slot;
        v_rts = Table.cc r.tbl Table.Rts r.slot }
    in
    let versions = Table.versions r.tbl r.slot in
    let keep =
      if List.length versions >= max_versions - 1 then
        List.filteri (fun i _ -> i < max_versions - 1) versions
      else versions
    in
    Table.set_versions r.tbl r.slot (snap :: keep)

  let stamp tbl slot ts =
    Table.set_cc tbl Table.Wts slot ts;
    Table.set_cc tbl Table.Rts slot ts
end)
