type value =
  | Int of int
  | Bool of bool
  | Str of string
  | Num of float
  | Fixed of int * float
  | Obj of (string * value) list

let str s = "\"" ^ Quill_trace.Trace.escape s ^ "\""

let rec to_string = function
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s -> str s
  | Num f -> Printf.sprintf "%g" f
  | Fixed (decimals, f) -> Printf.sprintf "%.*f" decimals f
  | Obj fields ->
      let field (k, v) = str k ^ ": " ^ to_string v in
      "{" ^ String.concat ", " (List.map field fields) ^ "}"

let render ~experiment ~scale ?(head = []) rows =
  let buf = Buffer.create 1024 in
  let field (k, v) = Printf.bprintf buf "  %s: %s,\n" (str k) (to_string v) in
  Buffer.add_string buf "{\n";
  List.iter field (("experiment", Str experiment) :: ("scale", Num scale) :: head);
  Buffer.add_string buf "  \"rows\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i row ->
      Printf.bprintf buf "    %s%s\n" (to_string (Obj row))
        (if i = last then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write path ~experiment ~scale ?head rows =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (render ~experiment ~scale ?head rows));
  Printf.printf "%s: wrote %s\n" experiment path
