type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create ?(capacity = 8) () = { data = [||]; len = -capacity }
(* Empty vectors carry no element witness; we stash the desired capacity in
   a negative [len] until the first push provides one. *)

let length t = if t.len < 0 then 0 else t.len
let is_empty t = length t = 0

let grow t x =
  if t.len < 0 then begin
    let cap = max 1 (-t.len) in
    t.data <- Array.make cap x;
    t.len <- 0
  end
  else begin
    let cap = max 1 (2 * Array.length t.data) in
    let data = Array.make cap x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  if t.len < 0 || t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= length t then invalid_arg "Vec.get";
  t.data.(i)

let clear t =
  if t.len > 0 then begin
    (* Drop references so the GC can reclaim elements. *)
    let keep = t.data.(0) in
    Array.fill t.data 0 t.len keep;
    t.len <- 0
  end

let iter f t =
  for i = 0 to length t - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to length t - 1 do
    f i t.data.(i)
  done

let to_array t = Array.sub t.data 0 (length t)
let to_list t = Array.to_list (to_array t)

let of_array a =
  if Array.length a = 0 then create ()
  else { data = Array.copy a; len = Array.length a }

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 (Array.length a)
