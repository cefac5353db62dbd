type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  half_pow_theta : float;
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let create ?(theta = 0.99) n =
  assert (n > 0);
  assert (theta >= 0.0 && theta < 1.0);
  if theta = 0.0 then
    { n; theta; alpha = 0.0; zetan = 0.0; eta = 0.0; half_pow_theta = 0.0 }
  else begin
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; alpha; zetan; eta; half_pow_theta = 0.5 ** theta }
  end

let theta t = t.theta

let sample t rng =
  if t.theta = 0.0 then Rng.int rng t.n
  else begin
    let u = Rng.float rng 1.0 in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. t.half_pow_theta then 1
    else
      let v =
        float_of_int t.n
        *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
      in
      let k = int_of_float v in
      if k >= t.n then t.n - 1 else if k < 0 then 0 else k
  end

(* FNV-1a finalizer, as used by YCSB's ScrambledZipfian. *)
let fnv_hash x =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let x = ref (Int64.of_int x) in
  for _ = 0 to 7 do
    let octet = Int64.to_int (Int64.logand !x 0xffL) in
    x := Int64.shift_right_logical !x 8;
    h := Int64.logxor !h (Int64.of_int octet);
    h := Int64.mul !h prime
  done;
  Int64.to_int (Int64.shift_right_logical !h 2)

let sample_scrambled t rng =
  let k = sample t rng in
  if t.theta = 0.0 then k else fnv_hash k mod t.n
