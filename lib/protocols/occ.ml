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

  val use : Table.t -> unit
  val entry : (Table.t -> int -> rentry) option
  val read : attempt -> Table.t -> int -> int -> int
  val admit_write : attempt -> Table.t -> int -> bool

  val validate :
    tick:(unit -> unit) ->
    attempt ->
    reads:(Pcommon.row * rentry) list ->
    writes:Pcommon.row list ->
    int option

  val pre_install : Pcommon.row -> unit
  val stamp : Table.t -> int -> int -> unit
end

module Make (P : POLICY) = struct
  let name = P.name

  type t = { sim : Sim.t; costs : Costs.t; db : Db.t; mutable attempts : int }

  let create sim costs db =
    for table = 0 to Db.ntables db - 1 do
      let tbl = Db.table db table in
      Table.use_cc tbl Table.Lock;
      P.use tbl
    done;
    { sim; costs; db; attempts = 0 }

  (* The write set in latch order: by table, then key. *)
  let by_table_key ((a : Pcommon.row), _) ((b : Pcommon.row), _) =
    let c = Int.compare a.table b.table in
    if c <> 0 then c
    else
      Int.compare (Table.key_of_slot a.tbl a.slot)
        (Table.key_of_slot b.tbl b.slot)

  let commit st a ~rset ~wset ~inserts =
    let writes = List.sort by_table_key (Pcommon.Rowmap.elements wset) in
    let cas () = Sim.tick st.sim st.costs.Costs.cas in
    let latched = ref [] in
    let latch ((r : Pcommon.row), _) =
      cas ();
      if Table.cc r.tbl Table.Lock r.slot <> 0 then false
      else begin
        Table.set_cc r.tbl Table.Lock r.slot (-1);
        latched := r :: !latched;
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
          (fun ((r : Pcommon.row), copy) ->
            Sim.tick st.sim st.costs.Costs.row_write;
            P.pre_install r;
            Table.restore r.tbl r.slot copy;
            P.stamp r.tbl r.slot stamp;
            Table.publish r.tbl r.slot)
          writes;
        List.iter
          (fun (table, key, payload, home) ->
            Sim.tick st.sim st.costs.Costs.index_insert;
            let tbl = Db.table st.db table in
            P.stamp tbl (Table.insert tbl ~home ~key payload) stamp)
          (List.rev inserts))
      stamp;
    List.iter
      (fun (r : Pcommon.row) ->
        cas ();
        Table.set_cc r.tbl Table.Lock r.slot 0)
      !latched;
    if stamp = None then Exec.Blocked else Exec.Ok

  let run_txn st ~wid:_ (wl : Workload.t) txn =
    st.attempts <- st.attempts + 1;
    let a = { ts = st.attempts; doomed = false } in
    let rset : P.rentry Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
    (* the write buffer: the attempt's copy of each written row *)
    let wset : int array Pcommon.Rowmap.t = Pcommon.Rowmap.create () in
    let inserts = ref [] in
    let frags = txn.Txn.frags in
    let slots = Array.make (Array.length frags) 0 in
    let cur = Direct.cursor () in
    let note ~table tbl slot =
      match P.entry with
      | Some entry when Pcommon.Rowmap.find rset ~table slot = None ->
          Pcommon.Rowmap.add rset { Pcommon.table; slot; tbl } (entry tbl slot)
      | _ -> ()
    in
    let read (frag : Fragment.t) field =
      Sim.tick st.sim st.costs.Costs.row_read;
      if not cur.found then 0
      else
        let table = frag.Fragment.table and slot = cur.slot in
        match Pcommon.Rowmap.find wset ~table slot with
        | Some copy -> copy.(field)
        | None ->
            let tbl = Db.table st.db table in
            note ~table tbl slot;
            P.read a tbl slot field
    in
    let write (frag : Fragment.t) field v =
      Sim.tick st.sim st.costs.Costs.row_write;
      if cur.found then begin
        let table = frag.Fragment.table and slot = cur.slot in
        let tbl = Db.table st.db table in
        if not (P.admit_write a tbl slot) then a.doomed <- true
        else
          let copy =
            match Pcommon.Rowmap.find wset ~table slot with
            | Some copy -> copy
            | None ->
                note ~table tbl slot;
                let copy = Table.live_image tbl slot in
                Pcommon.Rowmap.add wset { Pcommon.table; slot; tbl } copy;
                copy
          in
          copy.(field) <- v
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
