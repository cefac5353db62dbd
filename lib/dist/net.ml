open Quill_sim
open Quill_txn
module Faults = Quill_faults.Faults

(* Every message travels in an envelope carrying the sender and a
   per-link sequence number, so receivers can suppress the duplicate
   deliveries a fault plan injects. *)
type 'a env = { seq : int; src : int; payload : 'a }

type 'a t = {
  sim : Sim.t;
  costs : Costs.t;
  faults : Faults.t option;
  inboxes : 'a env Sim.Chan.ch array;
  next_seq : int array array; (* [src].(dst): next seq to assign *)
  last_seen : int array array; (* [dst].(src): highest seq delivered *)
  mutable msgs : int;
  mutable bytes : int;
  mutable retries : int;
  mutable dups_sent : int;
  mutable dups_dropped : int;
}

let create ?faults sim costs ~nodes =
  if nodes <= 0 then invalid_arg "Net.create: node count must be positive";
  let faults =
    match faults with
    | Some f when Faults.active (Faults.spec f) -> Some f
    | _ -> None
  in
  {
    sim;
    costs;
    faults;
    inboxes = Array.init nodes (fun _ -> Sim.Chan.create ());
    next_seq = Array.make_matrix nodes nodes 0;
    last_seen = Array.make_matrix nodes nodes (-1);
    msgs = 0;
    bytes = 0;
    retries = 0;
    dups_sent = 0;
    dups_dropped = 0;
  }

let check t fn what v =
  if v < 0 || v >= Array.length t.inboxes then
    invalid_arg
      (Printf.sprintf "Net.%s: %s node %d out of range for a %d-node cluster"
         fn what v (Array.length t.inboxes))

let send t ~src ~dst ~bytes m =
  check t "send" "source" src;
  check t "send" "destination" dst;
  let seq = t.next_seq.(src).(dst) in
  t.next_seq.(src).(dst) <- seq + 1;
  let env = { seq; src; payload = m } in
  if src = dst then Sim.Chan.send t.sim t.inboxes.(dst) env
  else begin
    t.msgs <- t.msgs + 1;
    t.bytes <- t.bytes + bytes;
    Sim.tick t.sim t.costs.Costs.msg_fixed;
    let delay =
      t.costs.Costs.net_latency + (bytes * t.costs.Costs.msg_per_byte / 1000)
    in
    match t.faults with
    | None -> Sim.Chan.send ~delay t.sim t.inboxes.(dst) env
    | Some f ->
        let v = Faults.on_send f ~src ~dst ~now:(Sim.now t.sim) in
        t.retries <- t.retries + v.Faults.retries;
        let delay = delay + v.Faults.extra_delay in
        Sim.Chan.send ~delay t.sim t.inboxes.(dst) env;
        if v.Faults.duplicate then begin
          t.dups_sent <- t.dups_sent + 1;
          (* The spurious copy trails the original by one extra network
             hop; FIFO push order keeps per-link seq delivery monotone. *)
          Sim.Chan.send
            ~delay:(delay + t.costs.Costs.net_latency)
            t.sim t.inboxes.(dst) env
        end
  end

(* Deliver one envelope, dropping stale duplicates.  The receive CPU
   cost is charged per delivery attempt: a node really does demux a
   duplicate before discarding it. *)
let accept t ~node env =
  if env.seq <= t.last_seen.(node).(env.src) then begin
    t.dups_dropped <- t.dups_dropped + 1;
    None
  end
  else begin
    t.last_seen.(node).(env.src) <- env.seq;
    Some env.payload
  end

let rec recv t ~node =
  check t "recv" "receiving" node;
  let env = Sim.Chan.recv t.sim t.inboxes.(node) in
  Sim.tick t.sim t.costs.Costs.msg_fixed;
  match accept t ~node env with Some m -> m | None -> recv t ~node

let recv_timeout t ~node ~timeout =
  check t "recv_timeout" "receiving" node;
  let deadline = Sim.now t.sim + timeout in
  (* Duplicates eat into the same deadline: the caller asked to wait
     [timeout] ns for a fresh message, however many stale copies the
     link delivers in between. *)
  let rec go () =
    let remaining = deadline - Sim.now t.sim in
    if remaining < 0 then None
    else
      match
        Sim.Chan.recv_timeout t.sim t.inboxes.(node) ~timeout:remaining
      with
      | None -> None
      | Some env -> (
          Sim.tick t.sim t.costs.Costs.msg_fixed;
          match accept t ~node env with Some m -> Some m | None -> go ())
  in
  go ()

let messages_retried t = t.retries

let record t (m : Metrics.t) =
  m.Metrics.msgs <- m.Metrics.msgs + t.msgs;
  m.Metrics.msg_retries <- m.Metrics.msg_retries + t.retries;
  m.Metrics.msg_dup_drops <- m.Metrics.msg_dup_drops + t.dups_dropped;
  m.Metrics.msg_bytes <- m.Metrics.msg_bytes + t.bytes;
  m.Metrics.msg_dups_sent <- m.Metrics.msg_dups_sent + t.dups_sent
