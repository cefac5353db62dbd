open Quill_common
open Quill_storage
open Quill_txn

type cfg = {
  table_size : int;
  fields : int;
  ops_per_txn : int;
  read_ratio : float;
  theta : float;
  nparts : int;
  mp_ratio : float;
  parts_per_txn : int;
  abort_ratio : float;
  abort_threshold : int;
  chain_deps : bool;
  global_zipf : bool;
  seed : int;
}

let default =
  {
    table_size = 100_000;
    fields = 10;
    ops_per_txn = 10;
    read_ratio = 0.5;
    theta = 0.0;
    nparts = 4;
    mp_ratio = 0.0;
    parts_per_txn = 2;
    abort_ratio = 0.0;
    abort_threshold = 0;
    chain_deps = false;
    global_zipf = false;
    seed = 42;
  }

let op_read = 0
let op_rmw = 1
let op_write = 2
let op_abort_check = 3
let op_rmw_dep = 4

let build_db cfg =
  let db = Db.create ~nparts:cfg.nparts in
  let _tid = Db.add_table db ~name:"usertable" ~nfields:cfg.fields
               ~capacity:cfg.table_size
  in
  let tbl = Db.table_by_name db "usertable" in
  let rng = Rng.create (cfg.seed * 7919) in
  for key = 0 to Table.capacity tbl - 1 do
    for f = 0 to cfg.fields - 1 do
      Table.set tbl key f (Rng.int rng 1_000_000)
    done;
    Table.publish tbl key
  done;
  db

(* Partitions are [part_size] rows each, in key order; the last one gets
   the remainder. *)
let part_size cfg = (cfg.table_size + cfg.nparts - 1) / cfg.nparts

let min_part_rows cfg =
  max 0 (cfg.table_size - ((cfg.nparts - 1) * part_size cfg))

(* Whether [x] is among [a.(0 .. n-1)]: an allocation-free scan. *)
let rec mem_prefix (a : int array) (x : int) n =
  n > 0 && (a.(n - 1) = x || mem_prefix a x (n - 1))

(* Draw [n] distinct keys respecting the single-/multi-partition choice.
   With [global_zipf] the scrambled-zipfian draw is used as the key
   directly instead of being folded into a chosen partition, so the
   globally hottest keys are hit from every stream — the contention
   shape the adaptive planner (hot-key splitting / repartitioning) is
   designed for. *)
let draw_keys cfg zipf rng n =
  if cfg.global_zipf then begin
    let keys = Array.make n 0 in
    let i = ref 0 in
    while !i < n do
      let key = min (Zipf.sample_scrambled zipf rng) (cfg.table_size - 1) in
      if not (mem_prefix keys key !i) then begin
        keys.(!i) <- key;
        incr i
      end
    done;
    keys
  end
  else begin
  let part_size = part_size cfg in
  let multi = cfg.nparts > 1 && Rng.chance rng cfg.mp_ratio in
  let parts =
    if multi then begin
      let k = min cfg.parts_per_txn cfg.nparts in
      (* distinct partitions *)
      let chosen = Array.make k (-1) in
      let count = ref 0 in
      while !count < k do
        let p = Rng.int rng cfg.nparts in
        if not (mem_prefix chosen p !count) then begin
          chosen.(!count) <- p;
          incr count
        end
      done;
      chosen
    end
    else [| Rng.int rng cfg.nparts |]
  in
  let keys = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let p = parts.(!i mod Array.length parts) in
    let base = Zipf.sample_scrambled zipf rng in
    let key = (base mod part_size) + (p * part_size) in
    let key = if key >= cfg.table_size then cfg.table_size - 1 else key in
    if not (mem_prefix keys key !i) then begin
      keys.(!i) <- key;
      incr i
    end
  done;
  keys
  end

let gen_txn cfg zipf table_id rng tid =
  let n = cfg.ops_per_txn in
  let keys = draw_keys cfg zipf rng n in
  let abortable_txn = cfg.abort_ratio > 0.0 && Rng.chance rng cfg.abort_ratio in
  let abort_pos = if abortable_txn then Rng.int rng n else -1 in
  let frags =
    Array.init n (fun i ->
        let key = keys.(i) in
        if i = abort_pos then
          Fragment.make ~fid:i ~table:table_id ~key ~mode:Fragment.Read
            ~op:op_abort_check ~abortable:true
            ~args:[| cfg.abort_threshold |] ()
        else if Rng.chance rng cfg.read_ratio then
          Fragment.make ~fid:i ~table:table_id ~key ~mode:Fragment.Read
            ~op:op_read ()
        else if cfg.chain_deps && i > 0 then
          Fragment.make ~fid:i ~table:table_id ~key ~mode:Fragment.Rmw
            ~op:op_rmw_dep ~data_deps:[| i - 1 |]
            ~args:[| Rng.int rng 1000 |] ()
        else
          Fragment.make ~fid:i ~table:table_id ~key ~mode:Fragment.Rmw
            ~op:op_rmw
            ~args:[| 1 + Rng.int rng 1000 |] ())
  in
  (* Chained deps need every fragment to publish an output; op_read and
     op_rmw both do. *)
  Txn.make ~tid frags

let exec (ctx : Exec.ctx) (_txn : Txn.t) (frag : Fragment.t) : Exec.outcome =
  let op = frag.Fragment.op in
  if op = op_read then begin
    let v = ctx.Exec.read frag 0 in
    ctx.Exec.output frag.Fragment.fid v;
    Exec.Ok
  end
  else if op = op_rmw then begin
    let v = ctx.Exec.read frag 0 in
    ctx.Exec.write frag 0 (v + frag.Fragment.args.(0));
    ctx.Exec.output frag.Fragment.fid v;
    Exec.Ok
  end
  else if op = op_write then begin
    ctx.Exec.write frag 0 frag.Fragment.args.(0);
    ctx.Exec.output frag.Fragment.fid frag.Fragment.args.(0);
    Exec.Ok
  end
  else if op = op_abort_check then begin
    let v = ctx.Exec.read frag 0 in
    ctx.Exec.output frag.Fragment.fid v;
    if v land 255 < frag.Fragment.args.(0) then Exec.Abort else Exec.Ok
  end
  else if op = op_rmw_dep then begin
    let dep = ctx.Exec.input frag.Fragment.data_deps.(0) in
    let v = ctx.Exec.read frag 0 in
    ctx.Exec.write frag 0 (v + (dep land 1023) + frag.Fragment.args.(0));
    ctx.Exec.output frag.Fragment.fid v;
    Exec.Ok
  end
  else invalid_arg "Ycsb.exec: unknown opcode"

let make cfg =
  assert (cfg.table_size > 0 && cfg.ops_per_txn > 0);
  assert (cfg.ops_per_txn <= cfg.table_size);
  let db = build_db cfg in
  let table_id = Db.table_id db "usertable" in
  let zipf = Zipf.create ~theta:cfg.theta cfg.table_size in
  let base = Rng.create cfg.seed in
  let stream_seeds = Array.init 1024 (fun _ -> Rng.next base) in
  let new_stream i =
    let rng = Rng.create stream_seeds.(i mod 1024) in
    let counter = ref 0 in
    fun () ->
      let tid = (!counter * 1024) + (i mod 1024) in
      incr counter;
      gen_txn cfg zipf table_id rng tid
  in
  {
    Workload.name = "ycsb";
    db;
    new_stream;
    exec;
    describe =
      Printf.sprintf
        "YCSB size=%d ops=%d read=%.2f theta=%.2f parts=%d mp=%.2f abort=%.2f"
        cfg.table_size cfg.ops_per_txn cfg.read_ratio cfg.theta cfg.nparts
        cfg.mp_ratio cfg.abort_ratio;
  }
