(* The SplitMix64 state lives unboxed in an 8-byte [Bytes.t]: reading
   and writing it with the int64 primitives keeps every draw off the
   heap. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

(* Keep results non-negative by dropping the top two bits: a 62-bit range
   is plenty and avoids [abs min_int] pitfalls. *)
let[@inline] next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

(* Rejection sampling to avoid modulo bias on large bounds: a top-level
   loop, so a draw builds no closure. *)
let rec draw t bound limit =
  let v = next t in
  if v < limit then v mod bound else draw t bound limit

let int t bound =
  assert (bound > 0);
  draw t bound (0x3FFF_FFFF_FFFF_FFFF / bound * bound)

let int_incl t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  v /. 9007199254740992.0 *. bound

let chance t p = float t 1.0 < p
