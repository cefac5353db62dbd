module Hist = struct
  (* 64 power-of-two magnitude groups x 16 linear sub-buckets. *)
  let sub_bits = 4
  let sub = 1 lsl sub_bits

  type t = {
    buckets : int array;
    mutable n : int;
    mutable sum : float;
    mutable max_v : int;
  }

  let create () = { buckets = Array.make (64 * sub) 0; n = 0; sum = 0.0; max_v = 0 }

  let rec msb x acc = if x <= 1 then acc else msb (x lsr 1) (acc + 1)

  let index_of v =
    if v < sub then v
    else begin
      let m = msb v 0 in
      let shift = m - sub_bits in
      let linear = (v lsr shift) - sub in
      (((m - sub_bits) + 1) * sub) + linear
    end

  let upper_edge idx =
    if idx < sub then idx
    else begin
      let group = (idx / sub) - 1 in
      let linear = idx mod sub in
      ((sub + linear + 1) lsl group) - 1
    end

  let add t v =
    if v < 0 then invalid_arg "Stats.Hist.add: negative value";
    let idx = index_of v in
    let idx = if idx >= Array.length t.buckets then Array.length t.buckets - 1 else idx in
    t.buckets.(idx) <- t.buckets.(idx) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. float_of_int v;
    if v > t.max_v then t.max_v <- v

  let merge_into ~dst src =
    Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) src.buckets;
    dst.n <- dst.n + src.n;
    dst.sum <- dst.sum +. src.sum;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let percentile t p =
    if t.n = 0 then 0
    else begin
      let target =
        let raw = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
        if raw < 1 then 1 else if raw > t.n then t.n else raw
      in
      let rec go i seen =
        if i >= Array.length t.buckets then t.max_v
        else begin
          let seen = seen + t.buckets.(i) in
          if seen >= target then min (upper_edge i) t.max_v else go (i + 1) seen
        end
      in
      go 0 0
    end

  let max_value t = t.max_v
end
