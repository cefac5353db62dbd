type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?align ~header rows =
  let ncols = List.length header in
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | Some _ | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) header
  in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols && String.length cell > widths.(i) then
            widths.(i) <- String.length cell)
        row)
    rows;
  let buf = Buffer.create 256 in
  let sep =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let emit_row cells =
    let padded =
      List.mapi
        (fun i cell ->
          let a = List.nth aligns i in
          " " ^ pad a widths.(i) cell ^ " ")
        cells
    in
    Buffer.add_string buf ("|" ^ String.concat "|" padded ^ "|\n")
  in
  Buffer.add_string buf (sep ^ "\n");
  emit_row header;
  Buffer.add_string buf (sep ^ "\n");
  List.iter emit_row rows;
  Buffer.add_string buf (sep ^ "\n");
  Buffer.contents buf

let print ?align ~header rows = print_string (render ?align ~header rows)

let fmt_si v =
  let abs = Float.abs v in
  if abs >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if abs >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if abs >= 1e3 then Printf.sprintf "%.2fk" (v /. 1e3)
  else Printf.sprintf "%.2f" v
