type t = { mutable data : int array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len
let clear t = t.len <- 0

let extend t n =
  let start = t.len in
  let need = start + n in
  if need > Array.length t.data then begin
    let d = Array.make (max need (max 16 (2 * Array.length t.data))) 0 in
    Array.blit t.data 0 d 0 start;
    t.data <- d
  end;
  t.len <- need;
  start

let push t x =
  if t.len = Array.length t.data then ignore (extend t 1)
  else t.len <- t.len + 1;
  Array.unsafe_set t.data (t.len - 1) x

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.get";
  Array.unsafe_get t.data i

let data t = t.data
