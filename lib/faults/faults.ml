open Quill_common

type crash = { node : int; at : int; down : int }
type partition = { a : int; b : int; from_t : int; until_t : int }

type spec = {
  seed : int;
  drop : float;
  dup : float;
  delay_p : float;
  delay_by : int;
  crashes : crash list;
  partitions : partition list;
  max_retries : int;
  rto : int;
  torn_rec : int option;
  fsync_fail_at : int option;
  corrupt_off : int option;
}

let none =
  {
    seed = 0;
    drop = 0.0;
    dup = 0.0;
    delay_p = 0.0;
    delay_by = 100_000;
    crashes = [];
    partitions = [];
    max_retries = 8;
    rto = 50_000;
    torn_rec = None;
    fsync_fail_at = None;
    corrupt_off = None;
  }

let disk_active s =
  s.torn_rec <> None || s.fsync_fail_at <> None || s.corrupt_off <> None

let net_active s =
  s.drop > 0.0 || s.dup > 0.0 || s.delay_p > 0.0 || s.partitions <> []

let active s = net_active s || s.crashes <> [] || disk_active s

(* ------------------------------------------------------------------ *)
(* Spec string parsing                                                 *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let time_str ns =
  if ns > 0 && ns mod 1_000_000 = 0 then string_of_int (ns / 1_000_000) ^ "ms"
  else if ns > 0 && ns mod 1_000 = 0 then string_of_int (ns / 1_000) ^ "us"
  else string_of_int ns ^ "ns"

(* "5ms" -> 5_000_000 ns; bare numbers are ns.  NaN, infinities and
   anything past [max_int] ns are rejected, not wrapped. *)
let parse_time s =
  let len = String.length s in
  let split n mul = (String.sub s 0 (len - n), mul) in
  let num, mul =
    if len > 2 && String.sub s (len - 2) 2 = "ns" then split 2 1.
    else if len > 2 && String.sub s (len - 2) 2 = "us" then split 2 1e3
    else if len > 2 && String.sub s (len - 2) 2 = "ms" then split 2 1e6
    else if len > 1 && s.[len - 1] = 's' then split 1 1e9
    else (s, 1.)
  in
  match float_of_string_opt num with
  | Some f when f >= 0. && (f *. mul) +. 0.5 < float_of_int max_int ->
      Ok (int_of_float ((f *. mul) +. 0.5))
  | _ -> Error (Printf.sprintf "bad time %S (want NUM[ns|us|ms|s])" s)

let time s = match parse_time s with Ok ns -> ns | Error m -> raise (Bad m)

let parse s =
  let prob k v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 && f <= 1.0 -> f
    | _ -> failf "%s wants a probability in [0,1], got %S" k v
  in
  let nat k v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> i
    | _ -> failf "%s wants a non-negative integer, got %S" k v
  in
  let kv a =
    match String.index_opt a '=' with
    | Some i ->
        (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
    | None -> (a, "")
  in
  let sp = ref none in
  (* The clause a bare key like [node=] or [until=] attaches to. *)
  let ctx = ref `Top in
  let with_crash f =
    match (!ctx, !sp.crashes) with
    | `Crash, c :: rest -> sp := { !sp with crashes = f c :: rest }
    | _ -> failf "crash field outside a crash@ clause"
  in
  let with_part f =
    match (!ctx, !sp.partitions) with
    | `Part, p :: rest -> sp := { !sp with partitions = f p :: rest }
    | _ -> failf "partition field outside a part@ clause"
  in
  let atom a =
    match String.index_opt a '@' with
    | Some i -> (
        let head = String.sub a 0 i in
        let k, v = kv (String.sub a (i + 1) (String.length a - i - 1)) in
        let want_t () =
          if k <> "t" then failf "%s@ wants t=TIME, got %S" head a
        in
        let once what = function
          | Some _ -> failf "duplicate %s@ clause (at most one per plan)" what
          | None -> ()
        in
        match head with
        | "crash" ->
            want_t ();
            sp :=
              {
                !sp with
                crashes =
                  { node = 0; at = time v; down = 500_000 } :: !sp.crashes;
              };
            ctx := `Crash
        | "part" ->
            want_t ();
            sp :=
              {
                !sp with
                partitions =
                  { a = 0; b = 1; from_t = time v; until_t = -1 }
                  :: !sp.partitions;
              };
            ctx := `Part
        | "torn" ->
            if k <> "rec" then failf "torn@ wants rec=N, got %S" a;
            once "torn" !sp.torn_rec;
            sp := { !sp with torn_rec = Some (nat "torn@rec" v) };
            ctx := `Top
        | "fsync-fail" ->
            want_t ();
            once "fsync-fail" !sp.fsync_fail_at;
            sp := { !sp with fsync_fail_at = Some (time v) };
            ctx := `Top
        | "corrupt" ->
            if k <> "off" then failf "corrupt@ wants off=N, got %S" a;
            once "corrupt" !sp.corrupt_off;
            sp := { !sp with corrupt_off = Some (nat "corrupt@off" v) };
            ctx := `Top
        | _ -> failf "unknown fault clause %S" a)
    | None -> (
        let k, v = kv a in
        match k with
        | "drop" ->
            sp := { !sp with drop = prob k v };
            ctx := `Top
        | "dup" ->
            sp := { !sp with dup = prob k v };
            ctx := `Top
        | "delay" ->
            sp := { !sp with delay_p = prob k v };
            ctx := `Delay
        | "by" when !ctx = `Delay -> sp := { !sp with delay_by = time v }
        | "seed" -> (
            ctx := `Top;
            match int_of_string_opt v with
            | Some i -> sp := { !sp with seed = i }
            | None -> failf "seed wants an integer, got %S" v)
        | "retries" ->
            sp := { !sp with max_retries = nat k v };
            ctx := `Top
        | "rto" ->
            sp := { !sp with rto = time v };
            ctx := `Top
        | "node" -> with_crash (fun c -> { c with node = nat k v })
        | "down" -> with_crash (fun c -> { c with down = time v })
        | "a" -> with_part (fun p -> { p with a = nat k v })
        | "b" -> with_part (fun p -> { p with b = nat k v })
        | "until" -> with_part (fun p -> { p with until_t = time v })
        | _ -> failf "unknown fault key %S" a)
  in
  try
    String.split_on_char ',' s
    |> List.concat_map (String.split_on_char ':')
    |> List.map String.trim
    |> List.filter (fun a -> a <> "")
    |> List.iter atom;
    List.iter
      (fun p ->
        if p.until_t < 0 then failf "part@ clause needs until=TIME";
        if p.until_t < p.from_t then failf "part@ until before t";
        if p.a = p.b then failf "part@ wants two distinct nodes")
      !sp.partitions;
    List.iter
      (fun (c : crash) ->
        if c.at <= 0 then
          failf "crash@ wants a positive virtual time, got t=%s" (time_str c.at);
        if c.down <= 0 then
          failf "crash@ wants a positive down time, got down=%s"
            (time_str c.down))
      !sp.crashes;
    let rec check_dup_crash = function
      | [] -> ()
      | (c : crash) :: rest ->
          if List.exists (fun (c' : crash) -> c'.node = c.node) rest then
            failf "duplicate crash@ spec for node %d (one crash per node)"
              c.node;
          check_dup_crash rest
    in
    check_dup_crash !sp.crashes;
    (match !sp.fsync_fail_at with
    | Some at when at <= 0 ->
        failf "fsync-fail@ wants a positive virtual time, got t=%s"
          (time_str at)
    | _ -> ());
    Ok
      {
        !sp with
        crashes = List.rev !sp.crashes;
        partitions = List.rev !sp.partitions;
      }
  with Bad m -> Error m

let to_string s =
  let buf = Buffer.create 64 in
  let add fmt =
    Printf.ksprintf
      (fun x ->
        if Buffer.length buf > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf x)
      fmt
  in
  List.iter
    (fun c ->
      add "crash@t=%s:node=%d:down=%s" (time_str c.at) c.node (time_str c.down))
    s.crashes;
  List.iter
    (fun p ->
      add "part@t=%s:a=%d:b=%d:until=%s" (time_str p.from_t) p.a p.b
        (time_str p.until_t))
    s.partitions;
  (match s.torn_rec with Some r -> add "torn@rec=%d" r | None -> ());
  (match s.fsync_fail_at with
  | Some t -> add "fsync-fail@t=%s" (time_str t)
  | None -> ());
  (match s.corrupt_off with Some o -> add "corrupt@off=%d" o | None -> ());
  if s.drop > 0.0 then add "drop=%g" s.drop;
  if s.dup > 0.0 then add "dup=%g" s.dup;
  if s.delay_p > 0.0 then add "delay=%g:by=%s" s.delay_p (time_str s.delay_by);
  if s.max_retries <> none.max_retries then add "retries=%d" s.max_retries;
  if s.rto <> none.rto then add "rto=%s" (time_str s.rto);
  add "seed=%d" s.seed;
  Buffer.contents buf

let pp fmt s = Format.pp_print_string fmt (to_string s)

let check_nodes s ~nodes ~name =
  let chk what n =
    if n < 0 || n >= nodes then
      invalid_arg
        (Printf.sprintf "%s: fault plan %s node %d of a %d-node cluster" name
           what n nodes)
  in
  List.iter (fun c -> chk "crashes" c.node) s.crashes;
  List.iter
    (fun p ->
      chk "partitions" p.a;
      chk "partitions" p.b)
    s.partitions

let crashes_for s ~node =
  List.filter (fun c -> c.node = node) s.crashes
  |> List.sort (fun c1 c2 -> compare (c1.at, c1.down) (c2.at, c2.down))
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

type t = { sp : spec; rng : Rng.t }
type verdict = { extra_delay : int; retries : int; duplicate : bool }

let make sp = { sp; rng = Rng.create sp.seed }
let spec t = t.sp

(* Remaining ns until the src<->dst link heals, 0 when it is up. *)
let partitioned sp ~src ~dst ~now =
  List.fold_left
    (fun acc p ->
      if
        ((p.a = src && p.b = dst) || (p.a = dst && p.b = src))
        && now >= p.from_t && now < p.until_t
      then max acc (p.until_t - now)
      else acc)
    0 sp.partitions

let on_send t ~src ~dst ~now =
  let sp = t.sp in
  let retries = ref 0 and extra = ref 0 in
  (* Each drop costs one retransmit timeout; the timeout doubles per
     retry.  The guards keep the RNG untouched at zero probability so a
     drop=0 plan is draw-for-draw identical to no plan at all. *)
  if sp.drop > 0.0 then begin
    let rto = ref sp.rto in
    while !retries < sp.max_retries && Rng.chance t.rng sp.drop do
      incr retries;
      extra := !extra + !rto;
      rto := min (!rto * 2) (64 * sp.rto)
    done
  end;
  if sp.delay_p > 0.0 && Rng.chance t.rng sp.delay_p then
    extra := !extra + sp.delay_by;
  let heal = partitioned sp ~src ~dst ~now in
  if heal > !extra then extra := heal;
  let duplicate = sp.dup > 0.0 && Rng.chance t.rng sp.dup in
  { extra_delay = !extra; retries = !retries; duplicate }
