(* Building your own workload against the public API: a bank with
   overdraft-checked transfers.

   Each transfer is fragmented exactly as the paper's model prescribes:
   an abortable fragment reads the source account and aborts on
   insufficient funds; the debit carries a commit dependency on it; the
   credit is a commutative add.  The conserved-total invariant then holds
   under every engine.

     dune exec examples/banking.exe *)

open Quill_common
open Quill_storage
open Quill_txn
module Engine = Quill_quecc.Engine

let accounts = 10_000
let initial_balance = 1_000
let op_check = 0 (* abortable: abort when balance < amount *)
let op_debit = 1
let op_credit = 2

let build_db ~nparts =
  let db = Db.create ~nparts in
  let _ = Db.add_table db ~name:"account" ~nfields:1 ~capacity:accounts in
  let tbl = Db.table_by_name db "account" in
  for key = 0 to accounts - 1 do
    Table.set tbl key 0 initial_balance;
    Table.publish tbl key
  done;
  db

let gen_transfer table rng tid =
  let src = Rng.int rng accounts in
  let dst = (src + 1 + Rng.int rng (accounts - 1)) mod accounts in
  let amount = 1 + Rng.int rng 2_000 in
  (* Deliberately sometimes more than a fresh account holds, so the
     overdraft check aborts a realistic fraction of transfers. *)
  Txn.make ~tid
    [|
      Fragment.make ~fid:0 ~table ~key:src ~mode:Fragment.Read ~op:op_check
        ~abortable:true ~args:[| amount |] ();
      Fragment.make ~fid:1 ~table ~key:src ~mode:Fragment.Rmw ~op:op_debit
        ~args:[| amount |] ();
      Fragment.make ~fid:2 ~table ~key:dst ~mode:Fragment.Rmw ~op:op_credit
        ~args:[| amount |] ();
    |]

let exec (ctx : Exec.ctx) (_ : Txn.t) (frag : Fragment.t) =
  let amount = frag.Fragment.args.(0) in
  if frag.Fragment.op = op_check then
    if ctx.Exec.read frag 0 < amount then Exec.Abort else Exec.Ok
  else begin
    (if frag.Fragment.op = op_debit then ctx.Exec.add frag 0 (-amount)
     else ctx.Exec.add frag 0 amount);
    Exec.Ok
  end

let make_workload ~nparts ~seed =
  let db = build_db ~nparts in
  let table = Db.table_id db "account" in
  let base = Rng.create seed in
  let seeds = Array.init 64 (fun _ -> Rng.next base) in
  let new_stream i =
    let rng = Rng.create seeds.(i mod 64) in
    let n = ref 0 in
    fun () ->
      incr n;
      gen_transfer table rng ((!n * 64) + (i mod 64))
  in
  {
    Workload.name = "banking";
    db;
    new_stream;
    exec;
    describe = "bank transfers with overdraft checks";
  }

let total_balance db =
  let tbl = Db.table_by_name db "account" in
  let acc = ref 0 in
  for key = 0 to accounts - 1 do
    acc := !acc + Table.committed tbl key 0
  done;
  !acc

let () =
  let expected = accounts * initial_balance in
  List.iter
    (fun (label, mode) ->
      let wl = make_workload ~nparts:4 ~seed:3 in
      let metrics =
        Engine.run
          {
            Engine.default_cfg with
            Engine.planners = 4;
            executors = 4;
            batch_size = 512;
            mode;
          }
          wl ~batches:16
      in
      let total = total_balance wl.Workload.db in
      Format.printf "%-14s %a@." label Metrics.pp metrics;
      Printf.printf "  money conserved: %s (total=%d)\n"
        (if total = expected then "OK" else "VIOLATED")
        total;
      (* No account may end negative: the overdraft check guarantees it
         under serializable execution. *)
      let tbl = Db.table_by_name wl.Workload.db "account" in
      let negatives = ref 0 in
      for key = 0 to accounts - 1 do
        if Table.committed tbl key 0 < 0 then incr negatives
      done;
      Printf.printf "  overdrawn accounts: %d\n" !negatives)
    [ ("speculative", Engine.Speculative); ("conservative", Engine.Conservative) ]
