let init = 5381

(* Four bytes per step: h*33^4 + c0*33^3 + c1*33^2 + c2*33 + c3 is four
   single-byte steps, and masking once per step keeps it below 2^32
   (the terms stay far below 2^62), so only the last mask matters. *)
let fold h b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Djb2.fold";
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let h = ref h and i = ref off in
  let stop = off + len in
  while !i + 4 <= stop do
    let j = !i in
    h :=
      ((!h * 1185921) + (byte j * 35937) + (byte (j + 1) * 1089)
       + (byte (j + 2) * 33) + byte (j + 3))
      land 0xffff_ffff;
    i := j + 4
  done;
  while !i < stop do
    h := ((!h * 33) + byte !i) land 0xffff_ffff;
    incr i
  done;
  !h
