open Quill_storage

type status = Pending | Active | Committed | Aborted

type t = {
  tid : int;
  frags : Fragment.t array;
  n_abortable : int;
  mutable status : status;
  mutable submit_time : int;
  mutable finish_time : int;
  mutable attempts : int;
}

let make ~tid frags =
  Array.iteri
    (fun i (f : Fragment.t) ->
      if f.Fragment.fid <> i then invalid_arg "Txn.make: fid out of order";
      Array.iter
        (fun d ->
          if d < 0 || d >= i then
            invalid_arg "Txn.make: data dependency must point backwards")
        f.Fragment.data_deps)
    frags;
  let n_abortable =
    Array.fold_left
      (fun acc (f : Fragment.t) -> if f.Fragment.abortable then acc + 1 else acc)
      0 frags
  in
  (* A fragment that updates the database carries a commit dependency when
     some *other* fragment of the same transaction may abort. *)
  Array.iter
    (fun (f : Fragment.t) ->
      let others = n_abortable - if f.Fragment.abortable then 1 else 0 in
      f.Fragment.commit_dep <- Fragment.updates f && others > 0)
    frags;
  {
    tid;
    frags;
    n_abortable;
    status = Pending;
    submit_time = 0;
    finish_time = 0;
    attempts = 0;
  }

let admit ?(local = false) sim (costs : Quill_sim.Costs.t) draw =
  (if local then Quill_sim.Sim.tick_local else Quill_sim.Sim.tick)
    sim costs.Quill_sim.Costs.txn_overhead;
  let t = draw () in
  t.submit_time <- Quill_sim.Sim.now sim;
  t.status <- Active;
  t.attempts <- t.attempts + 1;
  t

let partitions db t =
  let parts =
    Array.fold_left
      (fun acc (f : Fragment.t) ->
        let p = Db.home db f.Fragment.table f.Fragment.key in
        if List.mem p acc then acc else p :: acc)
      [] t.frags
  in
  List.sort compare parts

let is_read_only t =
  not (Array.exists Fragment.updates t.frags)

let pp fmt t =
  Format.fprintf fmt "txn%d{%a}" t.tid
    (Format.pp_print_array
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       Fragment.pp)
    t.frags
