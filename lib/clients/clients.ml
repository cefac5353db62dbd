(* Deterministic open-loop client layer: seeded arrival processes feed a
   bounded per-node admission queue with pluggable overload policies, and
   aborted transactions come back through seeded exponential backoff.

   Everything runs on quill_sim virtual time with one RNG stream per
   client (plus one per entry for retry jitter, seeded from the entry's
   identity rather than split from a shared stream), so a run is
   bit-identical for a given seed regardless of engine interleaving —
   the property the chaos and trace layers already rely on.

   Lifecycle accounting is a single [live] counter initialized to the
   total offered load: an entry stays live while it is waiting to be
   offered, queued, in flight inside an engine, or parked in a retry
   timer, and is finally resolved exactly once (commit, shed, deadline
   miss, or retry-budget exhaustion).  [live = 0] is therefore a stable
   "nothing can ever arrive again" signal that engines use to
   terminate; [node_live] gives the same signal per node for the
   distributed engines. *)

open Quill_common
open Quill_sim
open Quill_txn

type policy = Block | Shed_newest | Shed_oldest | Deadline

type arrival =
  | Poisson of float  (* mean arrival rate, txns per virtual second *)
  | Bursty of { rate : float; on_ns : int; off_ns : int }
      (* Poisson at [rate] during [on_ns] windows, silent for [off_ns] *)

type cfg = {
  arrival : arrival;
  clients : int;       (* generator threads; thread i feeds node (i mod nodes) *)
  depth : int;         (* admission-queue bound, per node *)
  policy : policy;
  deadline : int;      (* ns from first offer; 0 = no deadline *)
  max_retries : int;   (* abort -> retry budget per transaction *)
  backoff : int;       (* base retry backoff, ns; doubled per attempt *)
  max_backoff : int;
  seed : int;
  total : int;         (* transactions to offer across all clients *)
}

let default =
  {
    arrival = Poisson 1e6;
    clients = 4;
    depth = 1024;
    policy = Shed_oldest;
    deadline = 0;
    max_retries = 3;
    backoff = 2_000;
    max_backoff = 200_000;
    seed = 42;
    total = 20_000;
  }

type entry = {
  txn : Txn.t;
  node : int;           (* admission node; retries come back here *)
  first_offer : int;    (* virtual ns; client latency is measured from it *)
  deadline_at : int;    (* absolute ns; max_int when no deadline *)
  mutable attempt : int;
  rng : Rng.t;          (* backoff jitter; per-entry so the schedule is
                           independent of completion order *)
}

(* ------------------------------------------------------------------ *)
(* Admission queues                                                    *)
(* ------------------------------------------------------------------ *)

(* One node's FIFO admission queue.  [lo] is a lower bound on the
   queued entries' [deadline_at] ([max_int] when empty since the last
   scan): a push lowers it, a removal leaves it a bound, and a scan
   recomputes it.  A purge at [now <= lo] finds nothing expired and
   skips its scan, so it costs O(1) unless some entry can have expired.
   Retries keep their first offer's deadline, so deadlines are not in
   queue order and a scan that runs still visits every entry. *)
module Admission = struct
  type q = { q : entry Queue.t; mutable lo : int }

  let create () = { q = Queue.create (); lo = max_int }
  let length a = Queue.length a.q
  let is_empty a = Queue.is_empty a.q
  let pop a = Queue.pop a.q
  let take_opt a = Queue.take_opt a.q

  let push a (e : entry) =
    Queue.push e a.q;
    if e.deadline_at < a.lo then a.lo <- e.deadline_at

  let purge a ~now miss =
    if now > a.lo then begin
      a.lo <- max_int;
      for _ = 1 to Queue.length a.q do
        let e = Queue.pop a.q in
        if now > e.deadline_at then miss e else push a e
      done
    end
end

type t = {
  cfg : cfg;
  sim : Sim.t;
  nodes : int;
  queues : Admission.q array;                    (* per node *)
  mutable live : int;
  node_live : int array;
  work_waiters : unit Sim.Ivar.iv Vec.t array;   (* take/drain parked here *)
  space_waiters : unit Sim.Ivar.iv Vec.t array;  (* Block submitters *)
  (* Overload counters, copied into Metrics by [record]. *)
  mutable offered : int;
  mutable shed : int;
  mutable deadline_miss : int;
  mutable retries : int;
  mutable retry_exhausted : int;
  mutable qmax : int;
  client_lat : Stats.Hist.t;
}

let policy_name = function
  | Block -> "block"
  | Shed_newest -> "shed-newest"
  | Shed_oldest -> "shed"
  | Deadline -> "deadline"

(* ------------------------------------------------------------------ *)
(* Waiter lists: condition variables built from one-shot ivars.        *)
(* ------------------------------------------------------------------ *)

let signal t vecs node =
  let v = vecs.(node) in
  if not (Vec.is_empty v) then begin
    Vec.iter
      (fun iv -> if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill t.sim iv ())
      v;
    Vec.clear v
  end

let wait t vecs node =
  let iv = Sim.Ivar.create () in
  Vec.push vecs.(node) iv;
  Sim.Ivar.read t.sim iv

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let exhausted t = t.live = 0

(* Final resolution: the entry will never be seen again.  Exhaustion is
   an arrival of sorts — blocked takers must wake up and re-check. *)
let finish t (e : entry) =
  t.live <- t.live - 1;
  t.node_live.(e.node) <- t.node_live.(e.node) - 1;
  if t.live = 0 then
    for n = 0 to t.nodes - 1 do
      signal t t.work_waiters n
    done
  else if t.node_live.(e.node) = 0 then signal t t.work_waiters e.node

let expired t (e : entry) = Sim.now t.sim > e.deadline_at

let miss t e =
  t.deadline_miss <- t.deadline_miss + 1;
  finish t e

(* Drop entries whose deadline already passed (lazy purge: expiry is
   only ever observed at queue-touch points, keeping the clock honest). *)
let purge_expired t node =
  if t.cfg.deadline > 0 then
    Admission.purge t.queues.(node) ~now:(Sim.now t.sim) (miss t)

let enqueue t (e : entry) =
  let q = t.queues.(e.node) in
  Admission.push q e;
  if Admission.length q > t.qmax then t.qmax <- Admission.length q;
  signal t t.work_waiters e.node

(* Admission: apply the overload policy when the queue is full.  [Block]
   parks the submitter (backpressure — generators stop producing, retry
   timers stall); the shedding policies resolve somebody finally. *)
let rec admit t (e : entry) =
  let q = t.queues.(e.node) in
  if t.cfg.policy = Deadline then purge_expired t e.node;
  if Admission.length q < t.cfg.depth then enqueue t e
  else
    match t.cfg.policy with
    | Block ->
        wait t t.space_waiters e.node;
        admit t e
    | Shed_newest | Deadline ->
        t.shed <- t.shed + 1;
        finish t e
    | Shed_oldest ->
        let victim = Admission.pop q in
        t.shed <- t.shed + 1;
        finish t victim;
        enqueue t e

(* ------------------------------------------------------------------ *)
(* Engine-facing dequeue                                               *)
(* ------------------------------------------------------------------ *)

let rec take t ~node =
  purge_expired t node;
  match Admission.take_opt t.queues.(node) with
  | Some e ->
      signal t t.space_waiters node;
      Some e
  | None ->
      if t.node_live.(node) = 0 then None
      else begin
        wait t t.work_waiters node;
        take t ~node
      end

(* Batch-close semantics: whatever the queue holds, at least one entry —
   blocking until the node is exhausted, in which case [||] means "no
   batch will ever form here again". *)
let rec drain t ~node ~max:m =
  purge_expired t node;
  let q = t.queues.(node) in
  if not (Admission.is_empty q) then begin
    let n = min m (Admission.length q) in
    let out = Array.init n (fun _ -> Admission.pop q) in
    signal t t.space_waiters node;
    out
  end
  else if t.node_live.(node) = 0 then [||]
  else begin
    wait t t.work_waiters node;
    drain t ~node ~max:m
  end

(* ------------------------------------------------------------------ *)
(* Completion and retry                                                *)
(* ------------------------------------------------------------------ *)

let resubmit t e = if expired t e then miss t e else admit t e

let complete t (e : entry) ~ok =
  if ok then begin
    Stats.Hist.add t.client_lat (Sim.now t.sim - e.first_offer);
    finish t e
  end
  else if e.attempt > t.cfg.max_retries then begin
    t.retry_exhausted <- t.retry_exhausted + 1;
    finish t e
  end
  else if expired t e then miss t e
  else begin
    t.retries <- t.retries + 1;
    e.attempt <- e.attempt + 1;
    (* Exponential backoff with full jitter from the entry's own stream:
       delay in [base, 2*base) where base doubles per failed attempt. *)
    let shift = min 20 (e.attempt - 2) in
    let base = min t.cfg.max_backoff (t.cfg.backoff * (1 lsl shift)) in
    let delay = base + Rng.int e.rng (max 1 base) in
    Sim.spawn ~at:(Sim.now t.sim + delay) t.sim (fun () -> resubmit t e)
  end

(* ------------------------------------------------------------------ *)
(* Arrival generators                                                  *)
(* ------------------------------------------------------------------ *)

(* Client [gi]'s share of the offered transactions. *)
let quota cfg gi = snd (Workload.slice ~total:cfg.total ~parts:cfg.clients gi)

(* Exponential interarrival gap in ns at [rate] txn/s. *)
let exp_gap rng rate =
  let u = Rng.float rng 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  int_of_float (-.log u /. rate *. 1e9)

(* A bursty source is Poisson time that only elapses inside on-windows:
   a gap that crosses a window boundary additionally pays the silent
   off-period.  [rem_on] is the unconsumed remainder of the current
   window. *)
let bursty_gap ~on_ns ~off_ns rem_on gap =
  let rec go gap rem acc =
    if gap < rem then (acc + gap, rem - gap)
    else go (gap - rem) on_ns (acc + rem + off_ns)
  in
  let sleep, rem = go gap !rem_on 0 in
  rem_on := rem;
  sleep

let generator t (wl : Workload.t) gi =
  let cfg = t.cfg in
  let node = gi mod t.nodes in
  let arr_rng = Rng.create ((cfg.seed * 0x3779) + (gi * 2) + 1) in
  let stream = wl.Workload.new_stream gi in
  let rem_on =
    ref (match cfg.arrival with Bursty b -> b.on_ns | Poisson _ -> max_int)
  in
  for k = 1 to quota cfg gi do
    let gap =
      match cfg.arrival with
      | Poisson rate -> exp_gap arr_rng rate
      | Bursty { rate; on_ns; off_ns } ->
          bursty_gap ~on_ns ~off_ns rem_on (exp_gap arr_rng rate)
    in
    if gap > 0 then Sim.sleep t.sim gap;
    let txn = stream () in
    let now = Sim.now t.sim in
    let e =
      {
        txn;
        node;
        first_offer = now;
        deadline_at = (if cfg.deadline > 0 then now + cfg.deadline else max_int);
        attempt = 1;
        rng = Rng.create ((((cfg.seed * 8191) + gi) * 524287) + k);
      }
    in
    t.offered <- t.offered + 1;
    admit t e
  done

let create ~sim ~nodes (wl : Workload.t) cfg =
  if nodes <= 0 then invalid_arg "Clients.create: nodes must be positive";
  if cfg.clients <= 0 then invalid_arg "Clients.create: clients must be positive";
  if cfg.depth <= 0 then invalid_arg "Clients.create: depth must be positive";
  if cfg.total < 0 then invalid_arg "Clients.create: total must be >= 0";
  if cfg.max_retries < 0 then
    invalid_arg "Clients.create: max_retries must be >= 0";
  (match cfg.arrival with
  | Poisson r -> if r <= 0.0 then invalid_arg "Clients.create: rate must be > 0"
  | Bursty { rate; on_ns; off_ns } ->
      if rate <= 0.0 || on_ns <= 0 || off_ns < 0 then
        invalid_arg "Clients.create: bad bursty arrival");
  let node_live = Array.make nodes 0 in
  for gi = 0 to cfg.clients - 1 do
    node_live.(gi mod nodes) <- node_live.(gi mod nodes) + quota cfg gi
  done;
  let t =
    {
      cfg;
      sim;
      nodes;
      queues = Array.init nodes (fun _ -> Admission.create ());
      live = cfg.total;
      node_live;
      work_waiters = Array.init nodes (fun _ -> Vec.create ());
      space_waiters = Array.init nodes (fun _ -> Vec.create ());
      offered = 0;
      shed = 0;
      deadline_miss = 0;
      retries = 0;
      retry_exhausted = 0;
      qmax = 0;
      client_lat = Stats.Hist.create ();
    }
  in
  for gi = 0 to cfg.clients - 1 do
    Sim.spawn sim (fun () -> generator t wl gi)
  done;
  t

(* ------------------------------------------------------------------ *)
(* Per-transaction worker loop                                         *)
(* ------------------------------------------------------------------ *)

let serve ?clients (wl : Workload.t) ~workers ~worker ~txns run =
  match clients with
  | None ->
      let stream = wl.Workload.new_stream worker in
      for _ = 1 to snd (Workload.slice ~total:txns ~parts:workers worker) do
        ignore (run stream)
      done
  | Some t ->
      let rec loop () =
        match take t ~node:0 with
        | None -> ()
        | Some e ->
            complete t e ~ok:(run (fun () -> e.txn));
            loop ()
      in
      loop ()

let record t (m : Metrics.t) =
  m.Metrics.offered <- t.offered;
  m.Metrics.shed <- t.shed;
  m.Metrics.deadline_miss <- t.deadline_miss;
  m.Metrics.client_retries <- t.retries;
  m.Metrics.retry_exhausted <- t.retry_exhausted;
  m.Metrics.qmax <- t.qmax;
  Stats.Hist.merge_into ~dst:m.Metrics.client_lat t.client_lat

(* ------------------------------------------------------------------ *)
(* CLI spec parsing                                                    *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let time s =
  match Quill_faults.Faults.parse_time s with
  | Ok ns -> ns
  | Error m -> raise (Bad m)

let wrap f s = try Ok (f s) with Bad m -> Error m

(* "250000" | "2.5e6" | "burst:RATE:ON:OFF" *)
let parse_arrival =
  wrap (fun s ->
      match String.split_on_char ':' s with
      | [ r ] -> (
          match float_of_string_opt r with
          | Some rate when rate > 0.0 -> Poisson rate
          | Some _ | None -> failf "bad arrival rate %S (txn/s, > 0)" r)
      | [ "burst"; r; on; off ] -> (
          match float_of_string_opt r with
          | Some rate when rate > 0.0 ->
              let on_ns = time on and off_ns = time off in
              if on_ns <= 0 then failf "bad burst on-period %S" on;
              Bursty { rate; on_ns; off_ns }
          | Some _ | None -> failf "bad burst rate %S" r)
      | _ -> failf "bad arrival %S (want RATE or burst:RATE:ON:OFF)" s)

(* "block:256" | "shed:256" (oldest-drop) | "shed-newest:256" |
   "deadline:256" *)
let parse_admission =
  wrap (fun s ->
      let name, depth =
        match String.split_on_char ':' s with
        | [ name ] -> (name, default.depth)
        | [ name; d ] -> (
            match int_of_string_opt d with
            | Some d when d > 0 -> (name, d)
            | Some _ | None -> failf "bad admission depth %S" d)
        | _ -> failf "bad admission %S (want POLICY[:DEPTH])" s
      in
      let policy =
        match name with
        | "block" -> Block
        | "shed" | "shed-oldest" -> Shed_oldest
        | "shed-newest" -> Shed_newest
        | "deadline" -> Deadline
        | p ->
            failf "unknown admission policy %S (block|shed|shed-newest|deadline)"
              p
      in
      (policy, depth))

(* "3:10us" -> (max_retries, base backoff); "3" keeps the default base. *)
let parse_retries =
  wrap (fun s ->
      let n, backoff =
        match String.split_on_char ':' s with
        | [ n ] -> (n, default.backoff)
        | [ n; b ] -> (n, time b)
        | _ -> failf "bad retries %S (want N[:BACKOFF])" s
      in
      match int_of_string_opt n with
      | Some n when n >= 0 -> (n, backoff)
      | Some _ | None -> failf "bad retry count %S" n)

let arrival_to_string = function
  | Poisson r -> Printf.sprintf "%g" r
  | Bursty { rate; on_ns; off_ns } ->
      Printf.sprintf "burst:%g:%dns:%dns" rate on_ns off_ns
