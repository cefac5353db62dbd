(* Multi-version timestamp ordering — the representative of the
   multi-version engine class the paper compares against (Cicada, ERMIA,
   FOEDUS; see DESIGN.md for the substitution argument) — as an {!Occ}
   policy whose timestamp is the attempt's number.

   The row's live payload is always the newest version ([Row.data] with
   interval [wts, rts]); older snapshots are kept on [Row.versions]
   (newest first) so that readers with older timestamps never block or
   abort.  Writers abort when they would invalidate a read that already
   happened ([rts] in the future) or write below an installed version. *)

open Quill_storage

let max_versions = 8

let read_version ts row field =
  if ts >= row.Row.wts then begin
    if ts > row.Row.rts then row.Row.rts <- ts;
    Some row.Row.data.(field)
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
    go row.Row.versions
  end

(* Writing at or above every installed version and performed read keeps
   timestamp order. *)
let in_order (a : Occ.attempt) row = row.Row.wts <= a.ts && row.Row.rts <= a.ts

include Occ.Make (struct
  (* lint: engine-name-ok — protocol display name consumed by the registry *)
  let name = "mvto"

  type rentry = unit

  let entry = None

  let read (a : Occ.attempt) row field =
    (* A latched row is mid-install: reading now could miss the version
       being written after its validation already passed (lost update).
       Abort and retry instead. *)
    let v = if row.Row.lock <> 0 then None else read_version a.ts row field in
    match v with
    | Some v -> v
    | None ->
        a.doomed <- true;
        0

  (* Early abort (Cicada-style): a version or read newer than our
     timestamp already dooms this write at validation. *)
  let admit_write = in_order

  let validate ~tick a ~reads:_ ~writes =
    let valid row =
      tick ();
      in_order a row
    in
    if List.for_all valid writes then Some a.Occ.ts else None

  (* Snapshot the current newest version before it is overwritten. *)
  let pre_install row =
    let snap =
      { Row.v_data = Array.copy row.Row.data; v_wts = row.Row.wts;
        v_rts = row.Row.rts }
    in
    let keep =
      if List.length row.Row.versions >= max_versions - 1 then
        List.filteri (fun i _ -> i < max_versions - 1) row.Row.versions
      else row.Row.versions
    in
    row.Row.versions <- snap :: keep

  let stamp row ts =
    row.Row.wts <- ts;
    row.Row.rts <- ts
end)
