(* Shared helpers for the test suites. *)

open Quill_common
open Quill_txn

(* Wrap a workload so every generated transaction is recorded per stream;
   [batch_order] then reconstructs the exact global order an engine with
   planner-major slicing processed. *)
let record (wl : Workload.t) =
  let logs : (int, Txn.t Vec.t) Hashtbl.t = Hashtbl.create 8 in
  let new_stream i =
    let s = wl.Workload.new_stream i in
    let v =
      match Hashtbl.find_opt logs i with
      | Some v -> v
      | None ->
          let v = Vec.create () in
          Hashtbl.replace logs i v;
          v
    in
    fun () ->
      let t = s () in
      Vec.push v t;
      t
  in
  ({ wl with Workload.new_stream }, logs)

(* Global batch order for a planner-major engine: batch b consists of the
   b-th slice of every stream in stream order. *)
let batch_order logs ~streams ~batch_size ~batches =
  (* Mirror the engines' slice_bounds: the remainder goes to the first
     [batch_size mod streams] planners. *)
  let base = batch_size / streams and rem = batch_size mod streams in
  let count p = base + if p < rem then 1 else 0 in
  let acc = ref [] in
  for b = 0 to batches - 1 do
    for p = 0 to streams - 1 do
      let v = Hashtbl.find logs p in
      for j = 0 to count p - 1 do
        acc := Vec.get v ((b * count p) + j) :: !acc
      done
    done
  done;
  List.rev !acc

(* Epoch order for the distributed engines: per batch, node-major, then
   planner-major within the node. *)
let epoch_order logs ~streams ~batch_size ~batches =
  batch_order logs ~streams ~batch_size ~batches

let small_ycsb ?(table_size = 4_000) ?(nparts = 4) ?(theta = 0.6)
    ?(mp_ratio = 0.2) ?(abort_ratio = 0.0) ?(chain_deps = false)
    ?(read_ratio = 0.5) ?(global_zipf = false) ?(seed = 42) () =
  {
    Quill_workloads.Ycsb.default with
    Quill_workloads.Ycsb.table_size;
    nparts;
    theta;
    mp_ratio;
    abort_ratio;
    abort_threshold = 100;
    chain_deps;
    read_ratio;
    global_zipf;
    seed;
  }

let small_tpcc ?(warehouses = 1) ?(nparts = 4) ?(seed = 9)
    ?(payment_only = false) () =
  let cfg =
    {
      Quill_workloads.Tpcc.default with
      Quill_workloads.Tpcc_defs.warehouses;
      nparts;
      items = 2_000;
      customers_per_district = 300;
      seed;
    }
  in
  if payment_only then Quill_workloads.Tpcc.payment_mix cfg else cfg

(* Sum of committed YCSB RMW deltas: the additive invariant oracle.  Every
   Rmw fragment with op op_rmw adds args.(0) to field 0; op_rmw_dep adds
   args.(0) + (dep value & 1023) which is not statically known, so the
   invariant tests use chain_deps = false workloads. *)
let ycsb_committed_delta txns =
  List.fold_left
    (fun acc (t : Txn.t) ->
      if t.Txn.status = Txn.Committed then
        Array.fold_left
          (fun acc (f : Fragment.t) ->
            if
              f.Fragment.op = Quill_workloads.Ycsb.op_rmw
              && f.Fragment.mode = Fragment.Rmw
            then acc + f.Fragment.args.(0)
            else acc)
          acc t.Txn.frags
      else acc)
    0 txns

let sum_field0 db name =
  let module Table = Quill_storage.Table in
  let tbl = Quill_storage.Db.table_by_name db name in
  let acc = ref 0 in
  for key = 0 to Table.capacity tbl - 1 do
    acc := !acc + Table.committed tbl key 0
  done;
  !acc

(* Minor-heap words allocated while [f] runs, net of the measurement's
   own boxed float. *)
let minor_words_during f =
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  measure f -. measure ignore

(* The committed image of [key] in [tbl]; [None] when absent. *)
let committed_row tbl key =
  let slot = Quill_storage.Table.find tbl key in
  if slot < 0 then None
  else Some (Quill_storage.Table.committed_image tbl slot)

(* Minimal JSON syntax checker for the trace-export tests: verifies the
   string is exactly one well-formed JSON value.  Returns [Some error]
   on malformed input, [None] when it parses. *)
let json_error s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Failure (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> fail "expected a value"
  and lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l
    else fail ("expected " ^ w)
  and number () =
    let start = !pos in
    let num c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "bad number"
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character"
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    if !pos <> n then Some (Printf.sprintf "trailing input at %d" !pos)
    else None
  with Failure msg -> Some msg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Substring test for error-message assertions. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
