open Quill_common

type t = {
  name : string;
  db : Quill_storage.Db.t;
  new_stream : int -> unit -> Txn.t;
  exec : Exec.ctx -> Txn.t -> Fragment.t -> Exec.outcome;
  describe : string;
}

let streams ~seed gen =
  let base = Rng.create seed in
  let seeds = Array.init 1024 (fun _ -> Rng.next base) in
  fun i ->
    let rng = Rng.create seeds.(i mod 1024) in
    let counter = ref 0 in
    fun () ->
      let tid = (!counter * 1024) + (i mod 1024) in
      incr counter;
      gen rng tid

let slice ~total ~parts i =
  let base = total / parts and rem = total mod parts in
  ((i * base) + min i rem, base + if i < rem then 1 else 0)
