(* Wall-clock time for the benchmark: a monotonic nanosecond clock and
   the bench-side spans the traced rep exports in its "bench-wall"
   lane.  Span times are relative to process start. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let origin = now ()
let secs ns = float_of_int ns /. 1e9

let spans : (string * int * int) list ref = ref []

(* [span name f] runs [f] and records (name, start, duration). *)
let span name f =
  let t0 = now () in
  let r = f () in
  spans := (name, t0 - origin, now () - t0) :: !spans;
  r

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Wall ns per iteration of [f], which runs [n] iterations: the median
   of [reps] timings, each after [prepare]. *)
let ns_per ?(reps = 5) ?(prepare = ignore) ~n f =
  median
    (List.init reps (fun _ ->
         prepare ();
         let t0 = now () in
         f ();
         float_of_int (now () - t0) /. float_of_int (max 1 n)))
