open Quill_common
module Trace = Quill_trace.Trace

type time = int

(* Why a thread spent virtual time idle: which primitive it waited on.
   [Cause_sleep] is an explicit [sleep] (e.g. contention backoff). *)
type idle_cause = Cause_barrier | Cause_ivar | Cause_chan | Cause_sleep

let n_causes = 4

let cause_index = function
  | Cause_barrier -> 0
  | Cause_ivar -> 1
  | Cause_chan -> 2
  | Cause_sleep -> 3

let cause_name = function
  | Cause_barrier -> "barrier"
  | Cause_ivar -> "ivar"
  | Cause_chan -> "chan"
  | Cause_sleep -> "sleep"

(* Engine phase the current thread is in; [tick]ed busy time is
   attributed to it.  The labels follow the QueCC plan/execute/recover/
   publish pipeline; non-batched engines use the subset that applies. *)
type phase = Ph_other | Ph_plan | Ph_execute | Ph_recover | Ph_publish

let n_phases = 5

let phase_index = function
  | Ph_other -> 0
  | Ph_plan -> 1
  | Ph_execute -> 2
  | Ph_recover -> 3
  | Ph_publish -> 4

let phase_name = function
  | Ph_other -> "other"
  | Ph_plan -> "plan"
  | Ph_execute -> "execute"
  | Ph_recover -> "recover"
  | Ph_publish -> "publish"

(* The run queue is a binary min-heap private to the scheduler, keyed on
   [(at, ord)] with inline int comparisons.  [ord] is unique per
   scheduled entry, so the minimum (hence the dispatch order) does not
   depend on the heap's layout.

   A context switch is the hot path: most [tick]s on a busy core yield
   to another core due at or before the new clock.  The yielding thread
   re-enters the queue through its own preallocated [self] entry and
   handler, and is not pushed: it is held aside in [held] and merged
   with the root by the dispatch loop in one sift-down (or dispatched
   directly when it is still the minimum).  A switch therefore
   allocates only the runtime's continuation.  Entries for wake-ups
   from blocking primitives are fresh records pushed as usual.

   [tick_local] charges without yielding and records the clock as a
   pending yield point; [sync] replays the points in order, re-entering
   the queue through [self] at each one where [tick]'s rule would have
   yielded.  A dispatched [self] goes on with the replay without
   resuming the fiber, so a thread's private work costs one resume per
   sync instead of one per tick, in the dispatch order of the all-[tick]
   program. *)
type t = {
  mutable heap : entry array;  (* [heap.(0 .. size-1)] is the queue *)
  mutable size : int;
  mutable held : entry;        (* meaningful only when [has_held] *)
  mutable has_held : bool;
  mutable order : int;
  mutable resumes : int;       (* fiber resumptions, starts included *)
  mutable current : thread;    (* [no_thread] between dispatches *)
  mutable spawned : int;
  mutable completed : int;
  mutable busy : int;
  mutable idle : int;
  mutable horizon : time;
  wake_cost : int;
  busy_by_phase : int array;   (* indexed by phase_index *)
  idle_by_cause : int array;   (* indexed by cause_index *)
  tracer : Trace.t;
}

(* [tid < 0] only for [no_thread].  [k] is the continuation a yield
   parked; [self] is the entry that re-enters it.  [pts.(next ..
   npts-1)] are the yield points [tick_local] recorded and [sync] has
   not replayed yet, in clock order. *)
and thread = {
  tid : int;
  mutable clock : time;
  mutable phase : int;
  mutable k : (unit, unit) Effect.Deep.continuation;
  self : entry;
  mutable pts : time array;
  mutable npts : int;
  mutable next : int;
}

(* [phantom] entries are scheduler bookkeeping (e.g. receive timeouts)
   that may never fire: they must not drag the horizon forward, or an
   unused timeout would inflate the run's elapsed time.  [at] and [ord]
   are mutable only so a thread's [self] entry can be reused. *)
and entry = {
  mutable at : time;
  mutable ord : int;
  phantom : bool;
  resume : unit -> unit;
}

type _ Effect.t +=
  | Suspend : (thread -> (unit, unit) Effect.Deep.continuation -> unit)
      -> unit Effect.t
  | Yield : unit Effect.t

(* A continuation parked once at startup and never resumed: the initial
   [k] of every thread, overwritten before it is first read. *)
let no_k : (unit, unit) Effect.Deep.continuation =
  let cell : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Yield
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Yield -> Some (fun k -> cell := Some k) | _ -> None);
    };
  match !cell with Some k -> k | None -> assert false

let no_entry = { at = max_int; ord = max_int; phantom = true; resume = ignore }
let no_thread =
  {
    tid = -1;
    clock = 0;
    phase = 0;
    k = no_k;
    self = no_entry;
    pts = [||];
    npts = 0;
    next = 0;
  }

let create ?(wake_cost = 0) ?(tracer = Trace.null) () =
  {
    heap = Array.make 64 no_entry;
    size = 0;
    held = no_entry;
    has_held = false;
    order = 0;
    resumes = 0;
    current = no_thread;
    spawned = 0;
    completed = 0;
    busy = 0;
    idle = 0;
    horizon = 0;
    wake_cost;
    busy_by_phase = Array.make n_phases 0;
    idle_by_cause = Array.make n_causes 0;
    tracer;
  }

let of_costs ?sim (costs : Costs.t) =
  match sim with Some s -> s | None -> create ~wake_cost:costs.Costs.wakeup ()

let[@inline] before a b = a.at < b.at || (a.at = b.at && a.ord < b.ord)

(* Sift [e] up from the hole at [i]. *)
let rec sift_up h i e =
  let p = (i - 1) / 2 in
  if i > 0 && before e (Array.unsafe_get h p) then begin
    Array.unsafe_set h i (Array.unsafe_get h p);
    sift_up h p e
  end
  else Array.unsafe_set h i e

(* Sift [e] down from the hole at [i] in [h.(0 .. n-1)]. *)
let rec sift_down h n i e =
  let l = (2 * i) + 1 in
  if l >= n then Array.unsafe_set h i e
  else begin
    let c =
      if l + 1 < n && before (Array.unsafe_get h (l + 1)) (Array.unsafe_get h l)
      then l + 1
      else l
    in
    let ce = Array.unsafe_get h c in
    if before ce e then begin
      Array.unsafe_set h i ce;
      sift_down h n c e
    end
    else Array.unsafe_set h i e
  end

let push t e =
  if t.size = Array.length t.heap then begin
    let h = Array.make (2 * t.size) no_entry in
    Array.blit t.heap 0 h 0 t.size;
    t.heap <- h
  end;
  sift_up t.heap t.size e;
  t.size <- t.size + 1

(* Remove the root and put [e] in its place. *)
let replace_root t e = sift_down t.heap t.size 0 e

let pop_root t =
  let top = t.heap.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let last = t.heap.(n) in
  t.heap.(n) <- no_entry;
  if n > 0 then replace_root t last;
  top

let schedule ?(phantom = false) t ~at resume =
  if (not phantom) && at > t.horizon then t.horizon <- at;
  push t { at; ord = t.order; phantom; resume };
  t.order <- t.order + 1

let cur t =
  let th = t.current in
  if th.tid < 0 then failwith "Sim: primitive used outside a simulated thread";
  th

(* Build the closure that re-enters a parked thread. *)
let make_resume t th k () =
  t.current <- th;
  t.resumes <- t.resumes + 1;
  Effect.Deep.continue k ()

(* Park the calling thread; [f] receives the thread and its continuation
   and is responsible for scheduling it again (directly or via a waiter
   list). *)
let suspend (_ : t) f = Effect.perform (Suspend f)

(* Put [th]'s [self] entry at [(p, next ord)]: where a yield at clock
   [p] re-enters the queue. *)
let[@inline] place t th p =
  let self = th.self in
  self.at <- p;
  self.ord <- t.order;
  t.order <- t.order + 1

let[@inline] due t p = t.size > 0 && (Array.unsafe_get t.heap 0).at <= p

let push_point th p =
  let n = th.npts in
  if n = Array.length th.pts then begin
    let a = Array.make (max 16 (2 * n)) 0 in
    Array.blit th.pts 0 a 0 n;
    th.pts <- a
  end;
  Array.unsafe_set th.pts n p;
  th.npts <- n + 1

(* Consume [th]'s pending points up to the first one at which [tick]'s
   rule yields, placing [self] there; [false] (and nothing pending) when
   none does.  The queue is the one the all-[tick] program would see at
   that point: only this thread's private work lies in between. *)
let rec replay t th =
  let i = th.next in
  if i < th.npts then begin
    th.next <- i + 1;
    let p = Array.unsafe_get th.pts i in
    if due t p then begin
      place t th p;
      true
    end
    else replay t th
  end
  else begin
    th.npts <- 0;
    th.next <- 0;
    false
  end

let sync_thread t th =
  if th.npts > 0 && replay t th then Effect.perform Yield

let sync t = sync_thread t (cur t)

let spawn ?(at = 0) t body =
  if t.current.tid >= 0 then sync t;
  let rec th =
    {
      tid = t.spawned;
      clock = at;
      phase = 0;
      k = no_k;
      self;
      pts = [||];
      npts = 0;
      next = 0;
    }
  and self =
    {
      at;
      ord = 0;
      phantom = false;
      resume =
        (fun () ->
          (* A replayed yield point: go on with the replay, and resume
             the fiber only once no point is left. *)
          if th.npts > 0 && replay t th then begin
            t.held <- self;
            t.has_held <- true
          end
          else begin
            t.current <- th;
            t.resumes <- t.resumes + 1;
            Effect.Deep.continue th.k ()
          end);
    }
  in
  t.spawned <- t.spawned + 1;
  (* Preallocated so a yield allocates neither the handler nor its
     [Some]: park [k] and hold [self] (already placed) aside. *)
  let on_yield =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.k <- k;
        t.held <- self;
        t.has_held <- true)
  in
  (* A thread replays its pending points before it completes. *)
  let body () =
    body ();
    sync_thread t th
  in
  let start () =
    t.current <- th;
    t.resumes <- t.resumes + 1;
    Effect.Deep.match_with body ()
      {
        retc = (fun () -> t.completed <- t.completed + 1);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) Effect.Deep.continuation -> unit) option ->
            match eff with
            | Yield -> on_yield
            | Suspend f -> Some (fun k -> f th k)
            | _ -> None);
      }
  in
  schedule t ~at start

(* Dispatch the minimum of the held-aside entry and the queue. *)
let rec loop t =
  if t.has_held then begin
    t.has_held <- false;
    let h = t.held in
    if t.size = 0 || before h t.heap.(0) then dispatch t h
    else begin
      let e = t.heap.(0) in
      replace_root t h;
      dispatch t e
    end
  end
  else if t.size > 0 then dispatch t (pop_root t)

and dispatch t e =
  if (not e.phantom) && e.at > t.horizon then t.horizon <- e.at;
  e.resume ();
  loop t

let run t =
  (match loop t with
  | () -> ()
  | exception ex ->
      (* A fiber's exception escaped: leave no thread current and no
         yield entry pending. *)
      let bt = Printexc.get_raw_backtrace () in
      t.current <- no_thread;
      t.has_held <- false;
      Printexc.raise_with_backtrace ex bt);
  t.current <- no_thread;
  t.spawned - t.completed

let now t = (cur t).clock

let advance t th n =
  th.clock <- th.clock + n;
  if th.clock > t.horizon then t.horizon <- th.clock

(* Yield only when another thread is due at or before our new clock; this
   keeps the virtual-time ordering invariant while avoiding a switch per
   tick on quiet cores.  Reads the root without allocating. *)
let maybe_yield t th =
  if due t th.clock then begin
    place t th th.clock;
    Effect.perform Yield
  end

(* Charge [dt] of idle time to [cause], starting at the thread's current
   clock; emits a wait span when tracing.  Does not move the clock. *)
let charge_idle t th cause dt =
  t.idle <- t.idle + dt;
  t.idle_by_cause.(cause_index cause) <- t.idle_by_cause.(cause_index cause) + dt;
  if Trace.enabled t.tracer then
    Trace.span t.tracer ~tid:th.tid ~cat:"wait"
      ~name:("wait:" ^ cause_name cause)
      ~ts:th.clock ~dur:dt ()

let[@inline] charge t th n =
  t.busy <- t.busy + n;
  t.busy_by_phase.(th.phase) <- t.busy_by_phase.(th.phase) + n;
  advance t th n

(* Until the first point at which a [tick] would yield, nothing needs
   recording: the queue cannot change while this thread runs. *)
let tick_local t n =
  let th = cur t in
  charge t th n;
  if th.npts > 0 || due t th.clock then push_point th th.clock

let tick t n =
  let th = cur t in
  charge t th n;
  if th.npts = 0 then maybe_yield t th
  else begin
    push_point th th.clock;
    sync_thread t th
  end

let resumes t = t.resumes

let sleep t n =
  let th = cur t in
  sync_thread t th;
  charge_idle t th Cause_sleep n;
  advance t th n;
  maybe_yield t th

let yield t =
  let th = cur t in
  sync_thread t th;
  place t th th.clock;
  Effect.perform Yield

let set_phase t ph = (cur t).phase <- phase_index ph

let phase_of_index = function
  | 1 -> Ph_plan
  | 2 -> Ph_execute
  | 3 -> Ph_recover
  | 4 -> Ph_publish
  | _ -> Ph_other

let phase t = phase_of_index (cur t).phase
let in_thread t = t.current.tid >= 0
let busy_time t = t.busy
let busy_in t ph = t.busy_by_phase.(phase_index ph)
let idle_time t = t.idle
let idle_in t cause = t.idle_by_cause.(cause_index cause)
let horizon t = t.horizon
let threads_spawned t = t.spawned
let threads_completed t = t.completed
let tracer t = t.tracer
let current_tid t = (cur t).tid

(* The span includes wait time inside the phase; busy attribution
   ([busy_in]) counts only ticks. *)
let in_phase t ph tid f =
  set_phase t ph;
  let t0 = now t in
  let r = f () in
  if Trace.enabled t.tracer then begin
    (* Emit in the all-[tick] program's order. *)
    sync t;
    Trace.span t.tracer ~tid ~name:(phase_name ph) ~ts:t0 ~dur:(now t - t0) ()
  end;
  set_phase t Ph_other;
  r

let wake t ~cause th at resume =
  let at = if at > th.clock then at else th.clock in
  let at = at + t.wake_cost in
  schedule t ~at (fun () ->
      if at > th.clock then begin
        charge_idle t th cause (at - th.clock);
        th.clock <- at
      end;
      resume ())

(* A fast-path waiter (the value was produced at a virtual time ahead of
   the caller's clock) pays the same wake-up cost as a parked waiter
   would; without this, one thread per hand-off was systematically
   cheaper than its peers.  A value already available at or before the
   caller's clock costs nothing: no wait, no wake. *)
let catch_up t th cause target =
  if target > th.clock then begin
    let target = target + t.wake_cost in
    charge_idle t th cause (target - th.clock);
    th.clock <- target;
    if th.clock > t.horizon then t.horizon <- th.clock
  end

module Ivar = struct
  type 'a state =
    | Empty of (thread * (unit -> unit)) Vec.t
    | Full of time * 'a

  type 'a iv = { mutable st : 'a state }

  let create () = { st = Empty (Vec.create ()) }
  let is_full iv = match iv.st with Full _ -> true | Empty _ -> false

  let fill t iv v =
    sync t;
    match iv.st with
    | Full _ -> invalid_arg "Sim.Ivar.fill: already full"
    | Empty waiters ->
        let at = now t in
        iv.st <- Full (at, v);
        Vec.iter (fun (th, r) -> wake t ~cause:Cause_ivar th at r) waiters

  let rec read t iv =
    sync t;
    match iv.st with
    | Full (tf, v) ->
        catch_up t (cur t) Cause_ivar tf;
        v
    | Empty waiters ->
        suspend t (fun th k -> Vec.push waiters (th, make_resume t th k));
        read t iv

  let peek iv = match iv.st with Full (_, v) -> Some v | Empty _ -> None
end

module Chan = struct
  (* A parked receiver.  [wdeadline] is [max_int] for a plain [recv];
     for [recv_timeout] a phantom scheduler entry fires at the deadline.
     Whichever side (sender or timeout) runs first flips [cancelled] so
     the other becomes a no-op; send skips cancelled waiters lazily. *)
  type waiter = {
    wth : thread;
    wresume : unit -> unit;
    wdeadline : time;
    mutable cancelled : bool;
  }

  type 'a ch = { q : (time * 'a) Queue.t; waiters : waiter Queue.t }

  let create () = { q = Queue.create (); waiters = Queue.create () }

  let send ?(delay = 0) t ch v =
    sync t;
    let arrival = now t + delay in
    Queue.push (arrival, v) ch.q;
    let rec wake_one () =
      match Queue.take_opt ch.waiters with
      | None -> ()
      | Some w when w.cancelled -> wake_one ()
      | Some w ->
          w.cancelled <- true;
          wake t ~cause:Cause_chan w.wth (min arrival w.wdeadline) w.wresume
    in
    wake_one ()

  let park t ch ~deadline =
    suspend t (fun th k ->
        let w =
          {
            wth = th;
            wresume = make_resume t th k;
            wdeadline = deadline;
            cancelled = false;
          }
        in
        Queue.push w ch.waiters;
        if deadline < max_int then begin
          (* Timeout wake-up: phantom so an unfired (or cancelled)
             timeout never advances the horizon; the firing closure
             advances it itself via charge/clock update below. *)
          let at = deadline + t.wake_cost in
          schedule ~phantom:true t ~at (fun () ->
              if not w.cancelled then begin
                w.cancelled <- true;
                if at > th.clock then begin
                  charge_idle t th Cause_chan (at - th.clock);
                  th.clock <- at;
                  if th.clock > t.horizon then t.horizon <- th.clock
                end;
                w.wresume ()
              end)
        end)

  let rec recv t ch =
    sync t;
    if Queue.is_empty ch.q then begin
      park t ch ~deadline:max_int;
      recv t ch
    end
    else begin
      let arrival, v = Queue.pop ch.q in
      catch_up t (cur t) Cause_chan arrival;
      v
    end

  (* Wait at most [timeout] ns of virtual time for a message.  Returns
     [None] once the deadline passes with nothing delivered; a message
     that arrived by the deadline (even while we were being woken) is
     still returned. *)
  let recv_timeout t ch ~timeout =
    if timeout < 0 then invalid_arg "Sim.Chan.recv_timeout: negative timeout";
    sync t;
    let deadline = (cur t).clock + timeout in
    let rec go () =
      let th = cur t in
      match Queue.peek_opt ch.q with
      | Some (arrival, _) when arrival <= deadline || arrival <= th.clock ->
          let arrival, v = Queue.pop ch.q in
          catch_up t th Cause_chan arrival;
          Some v
      | Some _ ->
          (* Next delivery is beyond the deadline: time out in place. *)
          if deadline > th.clock then begin
            charge_idle t th Cause_chan (deadline - th.clock);
            th.clock <- deadline;
            if th.clock > t.horizon then t.horizon <- th.clock
          end;
          None
      | None ->
          if th.clock >= deadline then None
          else begin
            park t ch ~deadline;
            go ()
          end
    in
    go ()

  let try_recv t ch =
    sync t;
    match Queue.peek_opt ch.q with
    | Some (arrival, _) when arrival <= now t ->
        let _, v = Queue.pop ch.q in
        Some v
    | Some _ | None -> None

  let pending ch = Queue.length ch.q
end

module Barrier = struct
  type b = {
    parties : int;
    mutable arrived : int;
    mutable t_max : time;
    mutable waiters : (thread * (unit -> unit)) list;
  }

  let create parties =
    assert (parties > 0);
    { parties; arrived = 0; t_max = 0; waiters = [] }

  let await t b =
    let th = cur t in
    sync_thread t th;
    b.arrived <- b.arrived + 1;
    if th.clock > b.t_max then b.t_max <- th.clock;
    if b.arrived = b.parties then begin
      let release = b.t_max in
      let waiters = b.waiters in
      b.arrived <- 0;
      b.t_max <- 0;
      b.waiters <- [];
      List.iter (fun (wth, r) -> wake t ~cause:Cause_barrier wth release r)
        waiters;
      (* The last arriver pays the same wake-up cost as the waiters it
         releases: every party leaves the barrier at release + wake_cost. *)
      let target = release + t.wake_cost in
      if target > th.clock then begin
        charge_idle t th Cause_barrier (target - th.clock);
        th.clock <- target;
        if th.clock > t.horizon then t.horizon <- th.clock
      end
    end
    else
      suspend t (fun th k ->
          b.waiters <- (th, make_resume t th k) :: b.waiters)
end

module Gate = struct
  type g = { mutable remaining : int; iv : unit Ivar.iv }

  let create n =
    assert (n >= 0);
    let g = { remaining = n; iv = Ivar.create () } in
    if n = 0 then g.iv.Ivar.st <- Ivar.Full (0, ());
    g

  let arrive t g =
    sync t;
    if g.remaining <= 0 then invalid_arg "Sim.Gate.arrive: already open";
    g.remaining <- g.remaining - 1;
    if g.remaining = 0 then Ivar.fill t g.iv ()

  let await t g = Ivar.read t g.iv
  let pending g = g.remaining
end
