(* Deterministic lock table: per-key FIFO S/X queues without barging, one
   ticket per transaction, granted once all of its requests are. *)

open Quill_sim
open Quill_txn

type lock = int * int * bool

type 'a ticket = {
  owner : 'a;
  locks : lock list;
  mutable pending : int;
}

type 'a lockq = {
  mutable holders : ('a ticket * bool) list;
  waiting : ('a ticket * bool) Queue.t;
}

type 'a t = {
  sim : Sim.t;
  costs : Costs.t;
  tab : (int * int, 'a lockq) Hashtbl.t;
  on_grant : 'a ticket -> unit;
}

let create sim costs ~on_grant =
  { sim; costs; tab = Hashtbl.create 4096; on_grant }

let owner tk = tk.owner

let lock_set ?(keep = fun _ -> true) txn =
  let acc = ref [] in
  Array.iter
    (fun (f : Fragment.t) ->
      match f.Fragment.mode with
      | Fragment.Insert -> ()
      | Fragment.Read | Fragment.Write | Fragment.Rmw ->
          if keep f then begin
            let x = f.Fragment.mode <> Fragment.Read in
            let key = (f.Fragment.table, f.Fragment.key) in
            let rec merge = function
              | [] -> [ (key, x) ]
              | (k, x0) :: rest when k = key -> (k, x || x0) :: rest
              | e :: rest -> e :: merge rest
            in
            acc := merge !acc
          end)
    txn.Txn.frags;
  List.map (fun ((t, k), x) -> (t, k, x)) !acc

let get_q t key =
  match Hashtbl.find_opt t.tab key with
  | Some q -> q
  | None ->
      let q = { holders = []; waiting = Queue.create () } in
      Hashtbl.replace t.tab key q;
      q

let compatible holders x =
  if x then holders = [] else List.for_all (fun (_, hx) -> not hx) holders

let grant t tk =
  tk.pending <- tk.pending - 1;
  if tk.pending = 0 then t.on_grant tk

let acquire t owner locks =
  (* The +1 guards against granting before every request is issued. *)
  let tk = { owner; locks; pending = List.length locks + 1 } in
  List.iter
    (fun (table, key, x) ->
      Sim.tick t.sim t.costs.Costs.lock_mgr_op;
      let q = get_q t (table, key) in
      if compatible q.holders x && Queue.is_empty q.waiting then begin
        q.holders <- (tk, x) :: q.holders;
        grant t tk
      end
      else Queue.push (tk, x) q.waiting)
    locks;
  grant t tk

let release t tk =
  List.iter
    (fun (table, key, _) ->
      Sim.tick t.sim t.costs.Costs.lock_release;
      let q = get_q t (table, key) in
      q.holders <- List.filter (fun (h, _) -> h != tk) q.holders;
      let rec drain () =
        match Queue.peek_opt q.waiting with
        | Some (w, x) when compatible q.holders x ->
            ignore (Queue.pop q.waiting);
            q.holders <- (w, x) :: q.holders;
            grant t w;
            drain ()
        | Some _ | None -> ()
      in
      drain ())
    tk.locks
