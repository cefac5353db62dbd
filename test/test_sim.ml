open Quill_sim

(* ------------------------- scheduling ------------------------- *)

let test_single_thread_clock () =
  let s = Sim.create () in
  Sim.spawn s (fun () ->
      Tutil.check_int "starts at 0" 0 (Sim.now s);
      Sim.tick s 100;
      Tutil.check_int "after tick" 100 (Sim.now s);
      Sim.sleep s 50;
      Tutil.check_int "after sleep" 150 (Sim.now s));
  Tutil.check_int "no parked" 0 (Sim.run s);
  Tutil.check_int "busy" 100 (Sim.busy_time s);
  Tutil.check_int "idle" 50 (Sim.idle_time s);
  Tutil.check_int "horizon" 150 (Sim.horizon s)

let test_virtual_time_ordering () =
  (* Events execute in virtual-time order regardless of spawn order. *)
  let s = Sim.create () in
  let log = ref [] in
  Sim.spawn s (fun () ->
      Sim.tick s 300;
      log := "slow" :: !log);
  Sim.spawn s (fun () ->
      Sim.tick s 100;
      log := "fast" :: !log;
      Sim.tick s 300;
      log := "fast2" :: !log);
  ignore (Sim.run s);
  Alcotest.(check (list string))
    "order" [ "fast"; "slow"; "fast2" ] (List.rev !log)

let test_spawn_at () =
  let s = Sim.create () in
  let t = ref (-1) in
  Sim.spawn ~at:500 s (fun () -> t := Sim.now s);
  ignore (Sim.run s);
  Tutil.check_int "delayed start" 500 !t

let test_determinism () =
  let run_once () =
    let s = Sim.create () in
    let log = Buffer.create 64 in
    for i = 0 to 9 do
      Sim.spawn s (fun () ->
          for j = 0 to 9 do
            Sim.tick s ((i * 7 mod 3) + 1);
            Buffer.add_string log (Printf.sprintf "%d.%d;" i j)
          done)
    done;
    ignore (Sim.run s);
    Buffer.contents log
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())

(* ------------------------- ivar ------------------------- *)

let test_ivar_fill_then_read () =
  let s = Sim.create () in
  let iv = Sim.Ivar.create () in
  Sim.spawn s (fun () ->
      Sim.tick s 10;
      Sim.Ivar.fill s iv 7);
  Sim.spawn s (fun () ->
      Sim.tick s 100;
      (* already full: no wait beyond our own clock *)
      Tutil.check_int "value" 7 (Sim.Ivar.read s iv);
      Tutil.check_int "no extra wait" 100 (Sim.now s));
  Tutil.check_int "parked" 0 (Sim.run s)

let test_ivar_read_blocks () =
  let s = Sim.create () in
  let iv = Sim.Ivar.create () in
  Sim.spawn s (fun () ->
      Tutil.check_int "value" 9 (Sim.Ivar.read s iv);
      Tutil.check_int "woke at fill time" 250 (Sim.now s));
  Sim.spawn s (fun () ->
      Sim.tick s 250;
      Sim.Ivar.fill s iv 9);
  Tutil.check_int "parked" 0 (Sim.run s)

let test_ivar_double_fill () =
  let s = Sim.create () in
  let iv = Sim.Ivar.create () in
  Sim.spawn s (fun () ->
      Sim.Ivar.fill s iv 1;
      Alcotest.check_raises "double fill"
        (Invalid_argument "Sim.Ivar.fill: already full") (fun () ->
          Sim.Ivar.fill s iv 2));
  ignore (Sim.run s)

let test_ivar_peek_multireader () =
  let s = Sim.create () in
  let iv = Sim.Ivar.create () in
  let seen = ref 0 in
  for _ = 1 to 5 do
    Sim.spawn s (fun () -> seen := !seen + Sim.Ivar.read s iv)
  done;
  Sim.spawn s (fun () ->
      Tutil.check_bool "peek empty" true (Sim.Ivar.peek iv = None);
      Sim.tick s 5;
      Sim.Ivar.fill s iv 3;
      Tutil.check_bool "peek full" true (Sim.Ivar.peek iv = Some 3));
  Tutil.check_int "parked" 0 (Sim.run s);
  Tutil.check_int "all readers woke" 15 !seen

let test_wake_cost () =
  let s = Sim.create ~wake_cost:42 () in
  let iv = Sim.Ivar.create () in
  Sim.spawn s (fun () ->
      ignore (Sim.Ivar.read s iv);
      Tutil.check_int "wake cost added" 142 (Sim.now s));
  Sim.spawn s (fun () ->
      Sim.tick s 100;
      Sim.Ivar.fill s iv 0);
  Tutil.check_int "parked" 0 (Sim.run s)

(* ------------------------- chan ------------------------- *)

let test_chan_fifo () =
  let s = Sim.create () in
  let ch = Sim.Chan.create () in
  let got = ref [] in
  Sim.spawn s (fun () ->
      for i = 1 to 3 do
        Sim.Chan.send s ch i
      done);
  Sim.spawn s (fun () ->
      for _ = 1 to 3 do
        got := Sim.Chan.recv s ch :: !got
      done);
  Tutil.check_int "parked" 0 (Sim.run s);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_chan_delay () =
  let s = Sim.create () in
  let ch = Sim.Chan.create () in
  Sim.spawn s (fun () -> Sim.Chan.send ~delay:1000 s ch "hello");
  Sim.spawn s (fun () ->
      let m = Sim.Chan.recv s ch in
      Alcotest.(check string) "msg" "hello" m;
      Tutil.check_int "arrival time" 1000 (Sim.now s));
  Tutil.check_int "parked" 0 (Sim.run s)

let test_chan_try_recv () =
  let s = Sim.create () in
  let ch = Sim.Chan.create () in
  Sim.spawn s (fun () ->
      Sim.Chan.send ~delay:100 s ch 1;
      Tutil.check_bool "not yet arrived" true (Sim.Chan.try_recv s ch = None);
      Sim.tick s 200;
      Tutil.check_bool "arrived" true (Sim.Chan.try_recv s ch = Some 1);
      Tutil.check_int "pending" 0 (Sim.Chan.pending ch));
  Tutil.check_int "parked" 0 (Sim.run s)

let test_chan_blocked_receiver_parks () =
  let s = Sim.create () in
  let ch : int Sim.Chan.ch = Sim.Chan.create () in
  Sim.spawn s (fun () -> ignore (Sim.Chan.recv s ch));
  Tutil.check_int "one parked thread" 1 (Sim.run s)

(* ------------------------- barrier / gate ------------------------- *)

let test_barrier_max_clock () =
  let s = Sim.create () in
  let b = Sim.Barrier.create 3 in
  let times = ref [] in
  List.iter
    (fun d ->
      Sim.spawn s (fun () ->
          Sim.tick s d;
          Sim.Barrier.await s b;
          times := Sim.now s :: !times))
    [ 10; 200; 50 ];
  Tutil.check_int "parked" 0 (Sim.run s);
  List.iter (fun t -> Tutil.check_int "released at max" 200 t) !times

let test_barrier_reusable () =
  let s = Sim.create () in
  let b = Sim.Barrier.create 2 in
  let rounds = ref 0 in
  for _ = 1 to 2 do
    Sim.spawn s (fun () ->
        for _ = 1 to 5 do
          Sim.tick s 10;
          Sim.Barrier.await s b
        done;
        incr rounds)
  done;
  Tutil.check_int "parked" 0 (Sim.run s);
  Tutil.check_int "both finished" 2 !rounds

let test_gate () =
  let s = Sim.create () in
  let g = Sim.Gate.create 3 in
  let opened_at = ref (-1) in
  Sim.spawn s (fun () ->
      Sim.Gate.await s g;
      opened_at := Sim.now s);
  for i = 1 to 3 do
    Sim.spawn s (fun () ->
        Sim.tick s (i * 100);
        Sim.Gate.arrive s g)
  done;
  Tutil.check_int "parked" 0 (Sim.run s);
  Tutil.check_int "opens at last arrival" 300 !opened_at

let test_gate_zero () =
  let s = Sim.create () in
  let g = Sim.Gate.create 0 in
  Sim.spawn s (fun () ->
      Sim.Gate.await s g;
      Tutil.check_int "no wait" 0 (Sim.now s));
  Tutil.check_int "parked" 0 (Sim.run s)

(* -------------------- wake-cost uniformity -------------------- *)

(* Regression: the barrier's last arriver used to release the waiters
   (each paying wake_cost) without paying wake_cost itself, so it left
   the rendezvous ahead of everyone it woke.  All parties must leave at
   release + wake_cost. *)
let test_barrier_wake_cost_uniform () =
  let s = Sim.create ~wake_cost:7 () in
  let b = Sim.Barrier.create 2 in
  let times = ref [] in
  List.iter
    (fun d ->
      Sim.spawn s (fun () ->
          Sim.tick s d;
          Sim.Barrier.await s b;
          times := Sim.now s :: !times))
    [ 10; 30 ];
  Tutil.check_int "parked" 0 (Sim.run s);
  List.iter
    (fun t -> Tutil.check_int "all leave at release + wake_cost" 37 t)
    !times;
  (* Early arriver waited 10->37, last arriver 30->37. *)
  Tutil.check_int "barrier idle" 34 (Sim.idle_in s Sim.Cause_barrier);
  Tutil.check_int "idle total matches" 34 (Sim.idle_time s)

(* Regression: a reader hitting an already-full ivar whose fill time is
   AHEAD of the reader's clock used to catch up to the fill time for
   free, while a parked reader paid wake_cost for the same hand-off. *)
let test_ivar_fastpath_wake_cost () =
  let s = Sim.create ~wake_cost:5 () in
  let iv = Sim.Ivar.create () in
  Sim.spawn s (fun () ->
      Sim.tick s 100;
      Sim.Ivar.fill s iv 3;
      (* Reader starts at 0, finds the ivar full at 100: it genuinely
         waited, so it pays the same wake_cost as a parked reader. *)
      Sim.spawn ~at:0 s (fun () ->
          Tutil.check_int "value" 3 (Sim.Ivar.read s iv);
          Tutil.check_int "fastpath pays wake cost" 105 (Sim.now s)));
  Tutil.check_int "parked" 0 (Sim.run s);
  Tutil.check_int "charged as ivar idle" 105 (Sim.idle_in s Sim.Cause_ivar)

(* Every idle nanosecond is attributed to exactly one cause. *)
let test_idle_cause_partition () =
  let s = Sim.create ~wake_cost:11 () in
  let iv = Sim.Ivar.create () in
  let ch = Sim.Chan.create () in
  let b = Sim.Barrier.create 2 in
  Sim.spawn s (fun () ->
      Sim.sleep s 25;
      ignore (Sim.Ivar.read s iv);
      ignore (Sim.Chan.recv s ch);
      Sim.Barrier.await s b);
  Sim.spawn s (fun () ->
      Sim.tick s 40;
      Sim.Ivar.fill s iv 1;
      Sim.tick s 40;
      Sim.Chan.send s ch 2;
      Sim.tick s 40;
      Sim.Barrier.await s b);
  Tutil.check_int "parked" 0 (Sim.run s);
  let by_cause =
    Sim.idle_in s Sim.Cause_barrier
    + Sim.idle_in s Sim.Cause_ivar
    + Sim.idle_in s Sim.Cause_chan
    + Sim.idle_in s Sim.Cause_sleep
  in
  Tutil.check_int "causes partition idle" (Sim.idle_time s) by_cause;
  Tutil.check_bool "barrier idle seen" true
    (Sim.idle_in s Sim.Cause_barrier > 0);
  Tutil.check_bool "ivar idle seen" true (Sim.idle_in s Sim.Cause_ivar > 0);
  Tutil.check_bool "chan idle seen" true (Sim.idle_in s Sim.Cause_chan > 0);
  Tutil.check_int "sleep idle" 25 (Sim.idle_in s Sim.Cause_sleep)

(* ------------------------- phases / tracing ------------------------- *)

let test_phase_attribution () =
  let s = Sim.create () in
  Sim.spawn s (fun () ->
      Sim.tick s 5;
      Sim.set_phase s Sim.Ph_plan;
      Sim.tick s 10;
      Sim.set_phase s Sim.Ph_execute;
      Sim.tick s 20;
      Sim.set_phase s Sim.Ph_other;
      Sim.tick s 1);
  Tutil.check_int "parked" 0 (Sim.run s);
  Tutil.check_int "plan busy" 10 (Sim.busy_in s Sim.Ph_plan);
  Tutil.check_int "execute busy" 20 (Sim.busy_in s Sim.Ph_execute);
  Tutil.check_int "other busy" 6 (Sim.busy_in s Sim.Ph_other);
  Tutil.check_int "recover busy" 0 (Sim.busy_in s Sim.Ph_recover);
  Tutil.check_int "total" (Sim.busy_time s)
    (Sim.busy_in s Sim.Ph_plan + Sim.busy_in s Sim.Ph_execute
    + Sim.busy_in s Sim.Ph_other)

(* Tracing must never perturb virtual time: the same program with an
   enabled tracer reaches bit-identical clocks. *)
let test_tracer_zero_overhead () =
  let run tracer =
    let s = Sim.create ~wake_cost:9 ~tracer () in
    let b = Sim.Barrier.create 3 in
    for i = 0 to 2 do
      Sim.spawn s (fun () ->
          Sim.tick s (10 * (i + 1));
          Sim.Barrier.await s b;
          Sim.tick s 7)
    done;
    ignore (Sim.run s);
    (Sim.horizon s, Sim.busy_time s, Sim.idle_time s)
  in
  let tr = Quill_trace.Trace.create () in
  let plain = run Quill_trace.Trace.null in
  let traced = run tr in
  Tutil.check_bool "identical timings" true (plain = traced);
  Tutil.check_bool "wait spans recorded" true
    (Quill_trace.Trace.num_events tr > 0)

(* ------------------------- dispatch order ------------------------- *)

(* [(tid, now)] after every step of a fixed program that exercises each
   way a thread leaves and re-enters the run queue: tick, sleep and
   yield, [spawn ~at] during [run], Ivar, Chan (plain and
   [recv_timeout], timed out and served), Barrier and Gate.  The
   expected string pins the dispatch order: a scheduler change that
   alters it moves virtual results. *)
let golden_trace () =
  let s = Sim.create ~wake_cost:3 () in
  let log = Buffer.create 512 in
  let step tag =
    Buffer.add_string log
      (Printf.sprintf "%s:%d@%d " tag (Sim.current_tid s) (Sim.now s))
  in
  let iv = Sim.Ivar.create () in
  let ch = Sim.Chan.create () in
  let b = Sim.Barrier.create 3 in
  let g = Sim.Gate.create 2 in
  (* tid 0: producer; spawns tid 3 mid-run *)
  Sim.spawn s (fun () ->
      step "p0";
      Sim.tick s 5;
      step "p1";
      Sim.yield s;
      step "p2";
      Sim.Ivar.fill s iv 1;
      step "p3";
      Sim.Chan.send ~delay:7 s ch 10;
      step "p4";
      Sim.sleep s 4;
      step "p5";
      Sim.spawn ~at:(Sim.now s + 2) s (fun () ->
          step "s0";
          Sim.tick s 1;
          step "s1";
          Sim.yield s;
          step "s2";
          Sim.Gate.arrive s g;
          step "s3");
      Sim.tick s 3;
      step "p6";
      Sim.Barrier.await s b;
      step "p7";
      Sim.Gate.arrive s g;
      step "p8";
      Sim.tick s 40;
      Sim.Chan.send s ch 20;
      step "p9";
      Sim.tick s 2;
      step "p10");
  (* tid 1: consumer *)
  Sim.spawn s (fun () ->
      step "c0";
      let v = Sim.Ivar.read s iv in
      step (Printf.sprintf "c1=%d" v);
      let m = Sim.Chan.recv s ch in
      step (Printf.sprintf "c2=%d" m);
      (match Sim.Chan.recv_timeout s ch ~timeout:5 with
      | None -> step "c3=timeout"
      | Some m -> step (Printf.sprintf "c3=%d" m));
      Sim.Barrier.await s b;
      step "c4";
      Sim.Gate.await s g;
      step "c5";
      (match Sim.Chan.recv_timeout s ch ~timeout:100 with
      | None -> step "c6=timeout"
      | Some m -> step (Printf.sprintf "c6=%d" m));
      Sim.yield s;
      step "c7");
  (* tid 2: ticker, starts late *)
  Sim.spawn ~at:3 s (fun () ->
      for i = 1 to 6 do
        Sim.tick s (i * 2);
        step (Printf.sprintf "t%d" i);
        if i = 3 then Sim.yield s;
        if i = 4 then Sim.sleep s 1
      done;
      Sim.Barrier.await s b;
      step "t7";
      Sim.Gate.await s g;
      step "t8");
  let parked = Sim.run s in
  Buffer.add_string log
    (Printf.sprintf "| parked=%d busy=%d idle=%d horizon=%d" parked
       (Sim.busy_time s) (Sim.idle_time s) (Sim.horizon s));
  Buffer.contents log

let golden_expected =
  "p0:0@0 c0:1@0 p1:0@5 t1:2@5 p2:0@5 p3:0@5 p4:0@5 c1=1:1@8 c2=10:1@15 \
   t2:2@9 p5:0@9 s0:3@11 p6:0@12 s1:3@12 s2:3@12 s3:3@12 t3:2@15 \
   c3=timeout:1@23 t4:2@23 t5:2@34 t6:2@46 t7:2@49 c4:1@49 p7:0@49 \
   p8:0@49 t8:2@52 c5:1@52 p9:0@89 p10:0@91 c6=20:1@92 c7:1@92 | \
   parked=0 busy=93 idle=140 horizon=92"

let test_golden_dispatch_order () =
  Alcotest.(check string) "golden trace" golden_expected (golden_trace ())

(* Random tick/sleep/yield/local/sync/spawn programs against a
   reference scheduler: run the runnable fiber with the minimum
   [(clock, seq)], where [seq] counts (re)schedulings; after a tick,
   local tick or sleep, yield only when another fiber is due at or
   before the new clock; [yield] always reschedules; [sync] and [spawn]
   never do.  The reference reads every [Local] as a [Tick]:
   [Sim.tick_local] defers those yields to the next sync point, where
   they must replay exactly.  Each fiber logs [(fid, clock)] on start
   and after every operation but a local tick, which it performs
   without being resumed.  Fibers are numbered in spawn order.

   Durations and start times reach past [Sim.window] (up to 3x it), so
   entries go through the run queue's overflow heap and the window
   moves, sometimes with only overflow entries queued; a [Spawn] starts
   a child [d] ns before the caller's clock (at 0 at the earliest),
   usually before the window's base. *)
type op =
  | Tick of int
  | Sleep of int
  | Yield_op
  | Local of int
  | Sync_op
  | Spawn of int * op list

let reference progs =
  let log = ref [] and seq = ref 0 and q = ref [] in
  let fibers = ref (List.length progs) in
  (* [logs]: whether the fiber notes its clock when dispatched. *)
  let add clock f ops logs = q := (clock, !seq, f, ops, logs) :: !q; incr seq in
  List.iteri (fun f (start, ops) -> add start f ops true) progs;
  let rec run () =
    match List.sort compare !q with
    | [] -> ()
    | ((clock, _, f, ops, logs) as e) :: _ ->
        q := List.filter (fun e' -> e' <> e) !q;
        if logs then log := (f, clock) :: !log;
        let rec go clock = function
          | [] -> ()
          | op :: rest ->
              let clock, yields =
                match op with
                | Tick n | Sleep n | Local n ->
                    let c = clock + n in
                    (c, List.exists (fun (c', _, _, _, _) -> c' <= c) !q)
                | Yield_op -> (clock, true)
                | Sync_op -> (clock, false)
                | Spawn (d, child) ->
                    add (max 0 (clock - d)) !fibers child true;
                    incr fibers;
                    (clock, false)
              in
              let logs = match op with Local _ -> false | _ -> true in
              if yields then add clock f rest logs
              else begin
                if logs then log := (f, clock) :: !log;
                go clock rest
              end
        in
        go clock ops;
        run ()
  in
  run ();
  List.rev !log

let simulated progs =
  let s = Sim.create () in
  let log = ref [] in
  let note () = log := (Sim.current_tid s, Sim.now s) :: !log in
  let rec body ops () =
    note ();
    List.iter
      (fun op ->
        match op with
        | Tick n -> Sim.tick s n; note ()
        | Sleep n -> Sim.sleep s n; note ()
        | Yield_op -> Sim.yield s; note ()
        | Local n -> Sim.tick_local s n
        | Sync_op -> Sim.sync s; note ()
        | Spawn (d, child) ->
            Sim.spawn ~at:(max 0 (Sim.now s - d)) s (body child);
            note ())
      ops
  in
  List.iter (fun (at, ops) -> Sim.spawn ~at s (body ops)) progs;
  let parked = Sim.run s in
  (parked, List.rev !log)

let arb_progs =
  let open QCheck.Gen in
  let w = Sim.window in
  (* Mostly short, else near the window's width or up to 3x it. *)
  let span =
    frequency
      [ (6, int_bound 20); (1, int_range (w - 4) (w + 4)); (1, int_bound (3 * w)) ]
  in
  let op =
    frequency
      [
        (4, map (fun n -> Tick n) span);
        (2, map (fun n -> Sleep n) span);
        (1, return Yield_op);
        (6, map (fun n -> Local n) span);
        (1, return Sync_op);
      ]
  in
  let op_or_spawn =
    frequency
      [
        (15, op);
        (1, map2 (fun d ops -> Spawn (d, ops)) span (list_size (int_bound 6) op));
      ]
  in
  let fiber = pair span (list_size (int_bound 16) op_or_spawn) in
  let rec print_op = function
    | Tick n -> Printf.sprintf "T%d" n
    | Sleep n -> Printf.sprintf "S%d" n
    | Yield_op -> "Y"
    | Local n -> Printf.sprintf "L%d" n
    | Sync_op -> "Z"
    | Spawn (d, ops) ->
        Printf.sprintf "P%d[%s]" d (String.concat ";" (List.map print_op ops))
  in
  QCheck.make
    ~print:
      (QCheck.Print.list
         (QCheck.Print.pair string_of_int (QCheck.Print.list print_op)))
    (list_size (int_range 1 16) fiber)

let prop_matches_reference =
  QCheck.Test.make ~name:"dispatch order matches reference scheduler"
    ~count:500 arb_progs (fun progs ->
      simulated progs = (0, reference progs))

(* ------------------------- local ticks ------------------------- *)

(* Run [prog] with [local] as the charge of its private work, logging
   [tag:tid@clock] at each step. *)
let logged prog local =
  let s = Sim.create ~wake_cost:2 () in
  let log = Buffer.create 128 in
  let step tag =
    Buffer.add_string log
      (Printf.sprintf "%s:%d@%d " tag (Sim.current_tid s) (Sim.now s))
  in
  prog s (local s) step;
  Tutil.check_int "parked" 0 (Sim.run s);
  Buffer.add_string log
    (Printf.sprintf "| busy=%d idle=%d horizon=%d" (Sim.busy_time s)
       (Sim.idle_time s) (Sim.horizon s));
  Buffer.contents log

(* A runs 100 -> 200 in two private halves; B runs 120 -> 200.  With
   every tick yielding, A re-enters the queue at 150 (B is due at 120),
   B then yields to it at 200 and A at 200 again, behind B: B reaches
   the Ivar first.  A single yield at A's final clock would put A at
   (200, older) ahead of B's yield: the replay must re-enter at 150. *)
let test_local_tie () =
  (* [explicit]: A syncs before the race; otherwise [Ivar.fill] does. *)
  let prog explicit s loc step =
    let iv = Sim.Ivar.create () in
    let race name =
      match Sim.Ivar.fill s iv name with
      | () -> step ("fill-" ^ name)
      | exception Invalid_argument _ ->
          step ("read-" ^ name ^ "=" ^ Sim.Ivar.read s iv)
    in
    Sim.spawn ~at:100 s (fun () ->
        loc 50;
        loc 50;
        if explicit then Sim.sync s;
        race "A");
    Sim.spawn ~at:120 s (fun () ->
        Sim.tick s 80;
        race "B")
  in
  List.iter
    (fun explicit ->
      let prog = prog explicit in
      let local = logged prog Sim.tick_local in
      Alcotest.(check string) "local == tick" (logged prog Sim.tick) local;
      Alcotest.(check string) "B first"
        "fill-B:1@200 read-A=B:0@200 | busy=180 idle=0 horizon=200" local)
    [ true; false ]

(* [sync] with nothing pending neither yields nor resumes anyone, and a
   local tick that no thread is due before records nothing to sync. *)
let test_sync_noop () =
  let s = Sim.create () in
  let order = Buffer.create 16 in
  Sim.spawn s (fun () ->
      Buffer.add_string order "a0 ";
      let r0 = Sim.resumes s in
      Sim.sync s;
      Sim.tick_local s 5;
      Sim.sync s;
      Tutil.check_int "no resume" r0 (Sim.resumes s);
      Buffer.add_string order (Printf.sprintf "a1@%d " (Sim.now s)));
  Sim.spawn ~at:10 s (fun () -> Buffer.add_string order "b0 ");
  Tutil.check_int "parked" 0 (Sim.run s);
  Alcotest.(check string) "order" "a0 a1@5 b0 " (Buffer.contents order);
  Tutil.check_int "busy" 5 (Sim.busy_time s)

(* [spawn] and [Ivar.fill] replay the caller's pending points first: the
   spawned thread's entry and the fill's wake-up get the order numbers of
   the all-[tick] program, and a local tail is replayed at completion. *)
let test_local_then_primitives () =
  let prog s loc step =
    let iv = Sim.Ivar.create () in
    Sim.spawn s (fun () ->
        loc 3;
        loc 3;
        Sim.spawn ~at:4 s (fun () ->
            step "c0";
            loc 2;
            step (Printf.sprintf "c1=%d" (Sim.Ivar.read s iv)));
        step "a0";
        loc 2;
        loc 1;
        Sim.Ivar.fill s iv 7;
        step "a1";
        loc 4);
    Sim.spawn ~at:2 s (fun () ->
        Sim.tick s 2;
        step "b0";
        Sim.tick s 5;
        step "b1";
        step (Printf.sprintf "b2=%d" (Sim.Ivar.read s iv)));
    Sim.spawn ~at:9 s (fun () ->
        Sim.tick s 1;
        step "d0")
  in
  Alcotest.(check string) "local == tick"
    (logged prog Sim.tick) (logged prog Sim.tick_local)

(* A fiber's exception escapes [run]; afterwards no thread is current,
   and the fibers still queued run on a later [run]. *)
let test_run_after_raise () =
  let s = Sim.create () in
  Sim.spawn s (fun () ->
      Sim.tick s 1;
      failwith "boom");
  Sim.spawn s (fun () ->
      Sim.tick s 1;
      Sim.yield s;
      Sim.tick s 5);
  (match Sim.run s with
  | _ -> Alcotest.fail "expected the fiber's exception"
  | exception Failure msg -> Alcotest.(check string) "exn" "boom" msg);
  Tutil.check_bool "not in thread" false (Sim.in_thread s);
  Tutil.check_int "raised fiber stays unfinished" 1 (Sim.run s);
  Tutil.check_bool "still not in thread" false (Sim.in_thread s);
  Tutil.check_int "survivor finished" 1 (Sim.threads_completed s);
  Tutil.check_int "horizon" 6 (Sim.horizon s)

(* ------------------------- stress ------------------------- *)

let test_many_threads () =
  let s = Sim.create () in
  let n = 500 in
  let b = Sim.Barrier.create n in
  let total = ref 0 in
  for i = 0 to n - 1 do
    Sim.spawn s (fun () ->
        Sim.tick s (i mod 17);
        Sim.Barrier.await s b;
        incr total)
  done;
  Tutil.check_int "parked" 0 (Sim.run s);
  Tutil.check_int "all ran" n !total;
  Tutil.check_int "spawned" n (Sim.threads_spawned s);
  Tutil.check_int "completed" n (Sim.threads_completed s)

let prop_ivar_chain =
  QCheck.Test.make ~name:"ivar chains preserve order and values" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) (int_bound 100))
    (fun xs ->
      let s = Sim.create () in
      let n = List.length xs in
      let ivs = Array.init (n + 1) (fun _ -> Sim.Ivar.create ()) in
      List.iteri
        (fun i x ->
          Sim.spawn s (fun () ->
              let v = Sim.Ivar.read s ivs.(i) in
              Sim.tick s x;
              Sim.Ivar.fill s ivs.(i + 1) (v + x)))
        xs;
      Sim.spawn s (fun () -> Sim.Ivar.fill s ivs.(0) 0);
      let parked = Sim.run s in
      parked = 0
      && Sim.Ivar.peek ivs.(n) = Some (List.fold_left ( + ) 0 xs))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "single thread clock" `Quick
            test_single_thread_clock;
          Alcotest.test_case "virtual time ordering" `Quick
            test_virtual_time_ordering;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "many threads" `Quick test_many_threads;
          Alcotest.test_case "golden dispatch order" `Quick
            test_golden_dispatch_order;
          qc prop_matches_reference;
          Alcotest.test_case "local tick tie" `Quick test_local_tie;
          Alcotest.test_case "sync with nothing pending" `Quick
            test_sync_noop;
          Alcotest.test_case "spawn + fill after local ticks" `Quick
            test_local_then_primitives;
          Alcotest.test_case "run after a fiber raises" `Quick
            test_run_after_raise;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks" `Quick test_ivar_read_blocks;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "peek + multireader" `Quick
            test_ivar_peek_multireader;
          Alcotest.test_case "wake cost" `Quick test_wake_cost;
          qc prop_ivar_chain;
        ] );
      ( "chan",
        [
          Alcotest.test_case "fifo" `Quick test_chan_fifo;
          Alcotest.test_case "delay" `Quick test_chan_delay;
          Alcotest.test_case "try_recv" `Quick test_chan_try_recv;
          Alcotest.test_case "blocked receiver parks" `Quick
            test_chan_blocked_receiver_parks;
        ] );
      ( "barrier+gate",
        [
          Alcotest.test_case "barrier max clock" `Quick test_barrier_max_clock;
          Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
          Alcotest.test_case "gate" `Quick test_gate;
          Alcotest.test_case "gate zero" `Quick test_gate_zero;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "barrier wake cost uniform" `Quick
            test_barrier_wake_cost_uniform;
          Alcotest.test_case "ivar fastpath wake cost" `Quick
            test_ivar_fastpath_wake_cost;
          Alcotest.test_case "idle cause partition" `Quick
            test_idle_cause_partition;
          Alcotest.test_case "phase attribution" `Quick test_phase_attribution;
          Alcotest.test_case "tracer zero overhead" `Quick
            test_tracer_zero_overhead;
        ] );
    ]
