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

(* The run queue is a calendar queue private to the scheduler (Brown,
   CACM 1988), ordered on [(at, ord)]: [ord] numbers every
   (re)scheduling, so the dispatch order is "smallest [at], then
   earliest scheduled", whatever the layout.

   Entries are int ids into flat arrays ([e_at], [e_ord], ...), so
   queueing one writes no pointer.  An entry whose [at] lies in the
   window [base, base + window) sits in the FIFO bucket [at land mask],
   which then holds only entries of that exact [at]; a bitmap marks the
   non-empty buckets.  Every other entry (a sleep, timeout or latency
   beyond the window, or a [spawn ~at] before [base]) waits in a small
   binary heap, [ovf].  [base] is the last dispatched time and never
   moves back; when it advances, the overflow entries the window now
   reaches move into their buckets in [(at, ord)] order, before any new
   entry can land there.  A new entry always takes the newest [ord], so
   each bucket's FIFO order is its [ord] order.  [bmin] and [omin] are
   the least [at] in the buckets and in the heap ([max_int] when
   empty), which makes [due] two comparisons.

   A context switch is the hot path: most [tick]s on a busy core yield
   to another core due at or before the new clock.  The yielding thread
   re-enters the queue through its own permanent [sid] entry and
   handler, and is not pushed: it is held aside in [held].  It carries
   the newest [ord], so the dispatch loop runs it directly iff its [at]
   is below the queue's minimum, and otherwise pops the minimum and
   queues it.  A switch therefore allocates only the runtime's
   continuation.  Entries for starts and wake-ups take a fresh id,
   released when they run.

   [tick_local] charges without yielding and records the clock as a
   pending yield point; [sync] replays the points in order, re-entering
   the queue through [sid] at each one where [tick]'s rule would have
   yielded.  A dispatched [sid] goes on with the replay without
   resuming the fiber, so a thread's private work costs one resume per
   sync instead of one per tick, in the dispatch order of the all-[tick]
   program. *)
(* 4,096 ns: on the bench/perf workloads at most 0.2% of queued
   entries fall beyond it (client arrival gaps, timeouts, latencies);
   head, tail and bitmap take 65 KB. *)
let window_bits = 12
let window = 1 lsl window_bits
let mask = window - 1

type t = {
  (* entry ids *)
  mutable e_at : time array;
  mutable e_ord : int array;
  mutable e_next : int array;          (* next id in the bucket, or -1 *)
  mutable e_fresh : bool array;        (* released when dispatched *)
  mutable e_resume : (unit -> unit) array;
  mutable free : int array;            (* [free.(0 .. nfree-1)]: released ids *)
  mutable nfree : int;
  mutable nids : int;                  (* ids ever handed out *)
  (* the window *)
  head : int array;                    (* per bucket: first id, or -1 *)
  tail : int array;                    (* per bucket: last id *)
  bits : int array;                    (* 32 buckets per word: non-empty *)
  mutable base : time;
  mutable nb : int;                    (* entries in buckets *)
  mutable bmin : time;
  (* the overflow heap: [ovf.(0 .. novf-1)] *)
  mutable ovf : int array;
  mutable novf : int;
  mutable omin : time;
  mutable held : int;                  (* a yielded [sid], or -1 *)
  mutable order : int;
  mutable resumes : int;               (* fiber resumptions, starts included *)
  mutable current : thread;            (* [no_thread] between dispatches *)
  mutable spawned : int;
  mutable completed : int;
  mutable busy : int;
  mutable idle : int;
  mutable horizon : time;
  wake_cost : int;
  busy_by_phase : int array;           (* indexed by phase_index *)
  idle_by_cause : int array;           (* indexed by cause_index *)
  tracer : Trace.t;
}

(* [tid < 0] only for [no_thread].  [k] is the continuation a yield
   parked; [sid] is the entry that re-enters it.  [pts.(next ..
   npts-1)] are the yield points [tick_local] recorded and [sync] has
   not replayed yet, in clock order. *)
and thread = {
  tid : int;
  mutable clock : time;
  mutable phase : int;
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable sid : int;
  mutable pts : time array;
  mutable npts : int;
  mutable next : int;
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

let no_thread =
  {
    tid = -1;
    clock = 0;
    phase = 0;
    k = no_k;
    sid = -1;
    pts = [||];
    npts = 0;
    next = 0;
  }

let create ?(wake_cost = 0) ?(tracer = Trace.null) () =
  let n = 64 in
  {
    e_at = Array.make n 0;
    e_ord = Array.make n 0;
    e_next = Array.make n (-1);
    e_fresh = Array.make n false;
    e_resume = Array.make n ignore;
    free = Array.make n 0;
    nfree = 0;
    nids = 0;
    head = Array.make window (-1);
    tail = Array.make window (-1);
    bits = Array.make (window / 32) 0;
    base = 0;
    nb = 0;
    bmin = max_int;
    ovf = Array.make n 0;
    novf = 0;
    omin = max_int;
    held = -1;
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

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A new id running [resume]; its [at] and [ord] are set when queued. *)
let alloc t ~fresh resume =
  let id =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      Array.unsafe_get t.free t.nfree
    end
    else begin
      let id = t.nids in
      let n = Array.length t.e_at in
      if id = n then begin
        t.e_at <- grow t.e_at (2 * n) 0;
        t.e_ord <- grow t.e_ord (2 * n) 0;
        t.e_next <- grow t.e_next (2 * n) (-1);
        t.e_fresh <- grow t.e_fresh (2 * n) false;
        t.e_resume <- grow t.e_resume (2 * n) ignore;
        t.free <- grow t.free (2 * n) 0;
        t.ovf <- grow t.ovf (2 * n) 0
      end;
      t.nids <- id + 1;
      id
    end
  in
  t.e_fresh.(id) <- fresh;
  t.e_resume.(id) <- resume;
  id

(* Drop [id]'s closure (and the continuation it may hold) and recycle
   the id. *)
let release t id =
  t.e_resume.(id) <- ignore;
  Array.unsafe_set t.free t.nfree id;
  t.nfree <- t.nfree + 1

(* ---- overflow heap, on [(at, ord)] ---- *)

let[@inline] before t a b =
  let at = t.e_at in
  let x = Array.unsafe_get at a and y = Array.unsafe_get at b in
  x < y || (x = y && Array.unsafe_get t.e_ord a < Array.unsafe_get t.e_ord b)

let rec sift_up t h i id =
  let p = (i - 1) / 2 in
  if i > 0 && before t id (Array.unsafe_get h p) then begin
    Array.unsafe_set h i (Array.unsafe_get h p);
    sift_up t h p id
  end
  else Array.unsafe_set h i id

let rec sift_down t h n i id =
  let l = (2 * i) + 1 in
  if l >= n then Array.unsafe_set h i id
  else begin
    let c =
      if l + 1 < n && before t (Array.unsafe_get h (l + 1)) (Array.unsafe_get h l)
      then l + 1
      else l
    in
    let cid = Array.unsafe_get h c in
    if before t cid id then begin
      Array.unsafe_set h i cid;
      sift_down t h n c id
    end
    else Array.unsafe_set h i id
  end

let ovf_push t id =
  sift_up t t.ovf t.novf id;
  t.novf <- t.novf + 1;
  t.omin <- t.e_at.(t.ovf.(0))

let ovf_pop t =
  let h = t.ovf in
  let top = h.(0) in
  let n = t.novf - 1 in
  t.novf <- n;
  if n > 0 then begin
    sift_down t h n 0 h.(n);
    t.omin <- t.e_at.(h.(0))
  end
  else t.omin <- max_int;
  top

(* ---- the window ---- *)

(* Index of the lowest set bit of a non-zero 32-bit word (de Bruijn). *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] ctz32 x =
  Char.code
    (String.unsafe_get debruijn
       ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

let bucket_push t id at =
  let b = at land mask in
  Array.unsafe_set t.e_next id (-1);
  let hd = Array.unsafe_get t.head b in
  if hd < 0 then begin
    Array.unsafe_set t.head b id;
    let w = b lsr 5 in
    Array.unsafe_set t.bits w
      (Array.unsafe_get t.bits w lor (1 lsl (b land 31)))
  end
  else Array.unsafe_set t.e_next (Array.unsafe_get t.tail b) id;
  Array.unsafe_set t.tail b id;
  t.nb <- t.nb + 1;
  if at < t.bmin then t.bmin <- at

(* The first set bit in the words after [w], circularly; one is set.
   Top-level, so a call allocates no closure. *)
let rec next_bit bits w =
  let w = (w + 1) land (Array.length bits - 1) in
  let m = Array.unsafe_get bits w in
  if m = 0 then next_bit bits w else (w lsl 5) + ctz32 m

(* The first non-empty bucket after [a]'s, which is empty, in the window
   [a, a + window): some bucket is non-empty. *)
let next_time t a =
  let ia = a land mask in
  let start = (ia + 1) land mask in
  let w0 = start lsr 5 in
  let m = Array.unsafe_get t.bits w0 land (-1 lsl (start land 31)) in
  let idx = if m <> 0 then (w0 lsl 5) + ctz32 m else next_bit t.bits w0 in
  a + ((idx - ia) land mask)

(* Remove the head of bucket [a = bmin], with [base = a]. *)
let bucket_pop t a =
  let b = a land mask in
  let id = Array.unsafe_get t.head b in
  let nx = Array.unsafe_get t.e_next id in
  Array.unsafe_set t.head b nx;
  t.nb <- t.nb - 1;
  if nx < 0 then begin
    let w = b lsr 5 in
    Array.unsafe_set t.bits w
      (Array.unsafe_get t.bits w land lnot (1 lsl (b land 31)));
    t.bmin <- (if t.nb = 0 then max_int else next_time t a)
  end;
  id

(* Move [base] up to [a]: no bucket entry lies before [a], and none in
   the heap either. *)
let advance_base t a =
  t.base <- a;
  let lim = a + window in
  while t.omin < lim do
    let id = ovf_pop t in
    bucket_push t id (Array.unsafe_get t.e_at id)
  done

let[@inline] insert t id at =
  if at >= t.base && at - t.base < window then bucket_push t id at
  else ovf_push t id

(* Remove the minimum; the queue is not empty. *)
let pop t =
  let o = t.omin in
  if o < t.bmin then
    if o < t.base then ovf_pop t
    else begin
      (* The window is empty: it moves to the heap's minimum. *)
      advance_base t o;
      bucket_pop t o
    end
  else begin
    let a = t.bmin in
    if a > t.base then advance_base t a;
    bucket_pop t a
  end

(* A [phantom] entry (a receive timeout that may never fire) leaves the
   horizon alone, so an unused timeout cannot stretch the run's elapsed
   time. *)
let schedule ?(phantom = false) t ~at resume =
  if (not phantom) && at > t.horizon then t.horizon <- at;
  let id = alloc t ~fresh:true resume in
  t.e_at.(id) <- at;
  t.e_ord.(id) <- t.order;
  t.order <- t.order + 1;
  insert t id at

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

(* Put [th]'s [sid] entry at [(p, next ord)]: where a yield at clock [p]
   re-enters the queue. *)
let[@inline] place t th p =
  let id = th.sid in
  Array.unsafe_set t.e_at id p;
  Array.unsafe_set t.e_ord id t.order;
  t.order <- t.order + 1

let[@inline] due t p = t.bmin <= p || t.omin <= p

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
   rule yields, placing [sid] there; [false] (and nothing pending) when
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
  let th =
    {
      tid = t.spawned;
      clock = at;
      phase = 0;
      k = no_k;
      sid = -1;
      pts = [||];
      npts = 0;
      next = 0;
    }
  in
  let sid =
    alloc t ~fresh:false (fun () ->
        (* A replayed yield point: go on with the replay, and resume the
           fiber only once no point is left. *)
        if th.npts > 0 && replay t th then t.held <- th.sid
        else begin
          t.current <- th;
          t.resumes <- t.resumes + 1;
          Effect.Deep.continue th.k ()
        end)
  in
  th.sid <- sid;
  t.spawned <- t.spawned + 1;
  (* Preallocated so a yield allocates neither the handler nor its
     [Some]: park [k] and hold [sid] (already placed) aside. *)
  let on_yield =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.k <- k;
        t.held <- sid)
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
        retc =
          (fun () ->
            t.completed <- t.completed + 1;
            release t sid);
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
  let h = t.held in
  if h >= 0 then begin
    t.held <- -1;
    let at = Array.unsafe_get t.e_at h in
    if at < t.bmin && at < t.omin then begin
      if at > t.base then advance_base t at;
      dispatch t h
    end
    else begin
      (* Pop first: the base it may advance lets [h] land in a bucket. *)
      let e = pop t in
      insert t h at;
      dispatch t e
    end
  end
  else if t.bmin < max_int || t.omin < max_int then dispatch t (pop t)

and dispatch t id =
  let f = Array.unsafe_get t.e_resume id in
  if Array.unsafe_get t.e_fresh id then release t id;
  f ();
  loop t

let run t =
  (match loop t with
  | () -> ()
  | exception ex ->
      (* A fiber's exception escaped: leave no thread current and no
         yield entry pending. *)
      let bt = Printexc.get_raw_backtrace () in
      t.current <- no_thread;
      t.held <- -1;
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
