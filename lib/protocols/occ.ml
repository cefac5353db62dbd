(* The write-buffered optimistic runner of Silo, TicToc and MVTO.  Reads
   see the attempt's own buffered writes first; writes go to a private
   copy of the row; inserts are deferred to commit.  Commit latches the
   write set in deterministic (table, key) order, lets the policy
   validate and pick the commit stamp, installs, and unlatches.  Logic
   aborts are free: nothing was installed. *)

open Quill_sim
open Quill_storage
open Quill_txn

type attempt = { ts : int; mutable doomed : bool }

module type POLICY = sig
  val name : string

  type rentry

  val entry : (Row.t -> rentry) option
  val read : attempt -> Row.t -> int -> int
  val admit_write : attempt -> Row.t -> bool

  val validate :
    tick:(unit -> unit) ->
    attempt ->
    reads:(Row.t * rentry) list ->
    writes:Row.t list ->
    int option

  val pre_install : Row.t -> unit
  val stamp : Row.t -> int -> unit
end

(* A buffered write: the row's table (the latch order's first key) and
   the attempt's copy of its payload. *)
type wentry = { wtable : int; wcopy : int array }

module Make (P : POLICY) = struct
  let name = P.name

  type t = { sim : Sim.t; costs : Costs.t; db : Db.t; mutable attempts : int }

  let create sim costs db = { sim; costs; db; attempts = 0 }

  let commit st a ~rset ~wset ~inserts =
    let writes =
      List.sort
        (fun (r1, w1) (r2, w2) ->
          let c = compare w1.wtable w2.wtable in
          if c <> 0 then c else compare r1.Row.key r2.Row.key)
        (Pcommon.Rowmap.elements wset)
    in
    let cas () = Sim.tick st.sim st.costs.Costs.cas in
    let latched = ref [] in
    let latch (row, _) =
      cas ();
      if row.Row.lock <> 0 then false
      else begin
        row.Row.lock <- -1;
        latched := row :: !latched;
        true
      end
    in
    let stamp =
      if not (List.for_all latch writes) then None
      else
        P.validate
          ~tick:(fun () -> Sim.tick st.sim st.costs.Costs.validate_access)
          a ~reads:(Pcommon.Rowmap.elements rset) ~writes:(List.map fst writes)
    in
    Option.iter
      (fun stamp ->
        List.iter
          (fun (row, w) ->
            Sim.tick st.sim st.costs.Costs.row_write;
            P.pre_install row;
            Array.blit w.wcopy 0 row.Row.data 0 (Array.length w.wcopy);
            P.stamp row stamp;
            Row.publish row)
          writes;
        List.iter
          (fun (table, key, payload, home) ->
            Sim.tick st.sim st.costs.Costs.index_insert;
            P.stamp (Table.insert (Db.table st.db table) ~home ~key payload) stamp)
          (List.rev inserts))
      stamp;
    List.iter
      (fun row ->
        cas ();
        row.Row.lock <- 0)
      !latched;
    if stamp = None then Exec.Blocked else Exec.Ok

  let run_txn st ~wid:_ (wl : Workload.t) txn =
    st.attempts <- st.attempts + 1;
    let a = { ts = st.attempts; doomed = false } in
    let rset : P.rentry Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
    let wset : wentry Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
    let inserts = ref [] in
    let frags = txn.Txn.frags in
    let slots = Array.make (Array.length frags) 0 in
    let cur = Direct.cursor () in
    let note row =
      match P.entry with
      | Some entry when Pcommon.Rowmap.find rset row = None ->
          Pcommon.Rowmap.add rset row (entry row)
      | _ -> ()
    in
    let read (_ : Fragment.t) field =
      Sim.tick st.sim st.costs.Costs.row_read;
      if not cur.found then 0
      else
        match Pcommon.Rowmap.find wset cur.row with
        | Some w -> w.wcopy.(field)
        | None ->
            note cur.row;
            P.read a cur.row field
    in
    let write (frag : Fragment.t) field v =
      Sim.tick st.sim st.costs.Costs.row_write;
      if cur.found then begin
        let row = cur.row in
        if not (P.admit_write a row) then a.doomed <- true
        else
          let w =
            match Pcommon.Rowmap.find wset row with
            | Some w -> w
            | None ->
                note row;
                let w =
                  { wtable = frag.Fragment.table; wcopy = Array.copy row.Row.data }
                in
                Pcommon.Rowmap.add wset row w;
                w
          in
          w.wcopy.(field) <- v
      end
    in
    let add frag field d = write frag field (read frag field + d) in
    let insert (frag : Fragment.t) ~key payload =
      Sim.tick st.sim st.costs.Costs.cas;
      let home = Db.home st.db frag.Fragment.table frag.Fragment.key in
      inserts := (frag.Fragment.table, key, Array.copy payload, home) :: !inserts
    in
    let input fid = slots.(fid) in
    let output fid v = if fid < Array.length slots then slots.(fid) <- v in
    let found _ = cur.found in
    let ctx = { Exec.read; write; add; insert; input; output; found } in
    let locate = Direct.find st.db in
    let rec go i =
      if i >= Array.length frags then commit st a ~rset ~wset ~inserts:!inserts
      else
        match Direct.step st.sim st.costs wl ctx cur ~locate txn frags.(i) with
        | Exec.Ok -> if a.doomed then Exec.Blocked else go (i + 1)
        | (Exec.Abort | Exec.Blocked) as r -> r
    in
    go 0
end
