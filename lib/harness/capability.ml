type t = Faults | Clients | Dist | Wal | Cdc | Replication | Pipeline | Adaptive

let all = [ Faults; Clients; Dist; Wal; Cdc; Replication; Pipeline; Adaptive ]

let to_string = function
  | Faults -> "faults"
  | Clients -> "clients"
  | Dist -> "dist"
  | Wal -> "wal"
  | Cdc -> "cdc"
  | Replication -> "replication"
  | Pipeline -> "pipeline"
  | Adaptive -> "adaptive"

let mem = List.mem

let set_to_string caps =
  (* Canonical order regardless of how the engine listed them. *)
  let present = List.filter (fun c -> mem c caps) all in
  "{" ^ String.concat ", " (List.map to_string present) ^ "}"

let require ~engine ~have wanted =
  List.iter
    (fun (cap, feature) ->
      if not (mem cap have) then
        invalid_arg
          (Printf.sprintf
             "Experiment.run: %s requires the '%s' capability, but engine \
              %s provides %s"
             feature (to_string cap) engine (set_to_string have)))
    wanted
