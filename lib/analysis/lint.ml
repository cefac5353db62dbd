(* Determinism lint: a Parsetree walk (compiler-libs) enforcing the repo
   invariants that keep Quill runs bit-for-bit reproducible.  Rules are
   named D1..D6; hits are suppressed by an explicit waiver: a comment
   opening with "lint: <keyword> -- justification" placed on the
   offending line or the line directly above it.  Waivers without a
   justification (W2) and waivers matching nothing (W1) are themselves
   findings, so the waiver inventory can never rot silently. *)

type finding = {
  f_file : string;
  f_line : int;
  f_rule : string;
  f_msg : string;
}

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.f_file f.f_line f.f_rule f.f_msg

let compare_finding a b =
  let c = compare a.f_file b.f_file in
  if c <> 0 then c
  else
    let c = compare a.f_line b.f_line in
    if c <> 0 then c else compare a.f_rule b.f_rule

(* keyword in a waiver comment -> rule it waives *)
let waiver_rules =
  [
    ("raw-random-ok", "D1");
    ("wall-clock-ok", "D2");
    ("order-insensitive", "D3");
    ("engine-name-ok", "D4");
    ("phys-eq-ok", "D5");
  ]

(* Per-rule file allowlists (path suffix match): the one sanctioned home
   of each construct. *)
let default_allow =
  [
    (* the deterministic seeded RNG implementation itself *)
    ("D1", "lib/common/rng.ml");
    (* trace export may stamp host wall-clock metadata; it never feeds
       back into virtual time *)
    ("D2", "lib/trace/trace.ml");
    (* the engine registry is the single place engine names live *)
    ("D4", "lib/harness/engine_registry.ml");
    (* row-identity checks on the storage's own row type *)
    ("D5", "lib/protocols/pcommon.ml");
  ]

let suffix_matches file suf =
  let lf = String.length file and ls = String.length suf in
  lf >= ls && String.sub file (lf - ls) ls = suf

let allowlisted rule file =
  List.exists
    (fun (r, suf) -> r = rule && suffix_matches file suf)
    default_allow

(* ------------------------------------------------------------------ *)
(* Waiver comments                                                     *)

type waiver = {
  w_line : int;
  w_rule : string;  (* "" when the keyword is unknown *)
  w_keyword : string;
  w_justified : bool;
  mutable w_used : bool;
}

let is_space c = c = ' ' || c = '\t'

(* Recognize a comment opener immediately followed (modulo whitespace)
   by "lint:" on one line; extract the keyword token and whether
   non-separator justification text follows it.  Requiring the marker
   to open the comment keeps prose that merely mentions the syntax
   (like this file) from registering as a waiver. *)
let scan_waiver line lnum =
  let n = String.length line in
  let rec find_marker i =
    if i + 1 >= n then None
    else if line.[i] = '(' && line.[i + 1] = '*' then begin
      let j = ref (i + 2) in
      while !j < n && is_space line.[!j] do
        incr j
      done;
      if !j + 5 <= n && String.sub line !j 5 = "lint:" then Some (!j + 5)
      else find_marker (i + 1)
    end
    else find_marker (i + 1)
  in
  match find_marker 0 with
  | Some after ->
      let i = ref after in
      while !i < n && is_space line.[!i] do
        incr i
      done;
      let start = !i in
      while
        !i < n
        && (not (is_space line.[!i]))
        && not (!i + 1 < n && line.[!i] = '*' && line.[!i + 1] = ')')
      do
        incr i
      done;
      let keyword = String.sub line start (!i - start) in
      let rest_end =
        let rec f j =
          if j + 1 < n && line.[j] = '*' && line.[j + 1] = ')' then j
          else if j >= n then n
          else f (j + 1)
        in
        f !i
      in
      let rest = String.sub line !i (max 0 (rest_end - !i)) in
      let justified =
        String.exists
          (fun c ->
            not (is_space c) && c <> '-' && c <> ':' && c <> ','
            && Char.code c < 128)
          rest
      in
      Some
        {
          w_line = lnum;
          w_rule =
            (match List.assoc_opt keyword waiver_rules with
            | Some r -> r
            | None -> "");
          w_keyword = keyword;
          w_justified = justified;
          w_used = false;
        }
  | _ -> None

let split_lines s =
  let out = ref [] and start = ref 0 in
  String.iteri (fun i c -> if c = '\n' then begin
        out := String.sub s !start (i - !start) :: !out;
        start := i + 1
      end) s;
  if !start <= String.length s - 1 then
    out := String.sub s !start (String.length s - !start) :: !out;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* AST walk                                                            *)

let lident_path li = String.concat "." (Longident.flatten li)

let last2 li =
  match List.rev (Longident.flatten li) with
  | x :: y :: _ -> Some (y, x)
  | _ -> None

let wall_clock_fns =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Unix.gmtime" ]

(* [me] applies [Hashtbl.Make] or [Hashtbl.MakeSeeded]: the module it
   binds iterates in the same unspecified bucket order as [Hashtbl]. *)
let rec hashtbl_functor (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) -> (
      match last2 txt with
      | Some ("Hashtbl", ("Make" | "MakeSeeded")) -> true
      | _ -> false)
  | Pmod_constraint (me, _) -> hashtbl_functor me
  | _ -> false

let lint_structure ~file ~engine_names structure =
  (* [Hashtbl] and the modules bound to its functors so far: a binding
     precedes its uses, and the walk is in source order. *)
  let hashtbls = ref [ "Hashtbl" ] in
  let found = ref [] in
  let add ~line ~rule ~msg =
    if not (allowlisted rule file) then
      found := { f_file = file; f_line = line; f_rule = rule; f_msg = msg } :: !found
  in
  let check_string ~line s =
    if List.mem s engine_names then
      add ~line ~rule:"D4"
        ~msg:
          (Printf.sprintf
             "engine name literal %S outside lib/harness/engine_registry.ml \
              — dispatch through Engine_registry instead"
             s)
  in
  let on_expr (e : Parsetree.expression) =
    let line = e.pexp_loc.loc_start.pos_lnum in
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let path = lident_path txt in
        (match Longident.flatten txt with
        | [ "Random" ] | "Random" :: _ ->
            add ~line ~rule:"D1"
              ~msg:
                (Printf.sprintf
                   "stdlib Random (%s) is seeded from ambient state — use \
                    Common.Rng"
                   path)
        | _ -> ());
        if List.mem path wall_clock_fns then
          add ~line ~rule:"D2"
            ~msg:
              (Printf.sprintf
                 "wall-clock call %s outside the tracer export path — \
                  virtual time only"
                 path);
        (match last2 txt with
        | Some (m, ("iter" | "fold" as fn)) when List.mem m !hashtbls ->
            add ~line ~rule:"D3"
              ~msg:
                (Printf.sprintf
                   "%s.%s iterates in unspecified order — sort the \
                    bindings, or waive with a 'lint: order-insensitive' \
                    comment saying why"
                   m fn)
        | Some ("Obj", "magic") ->
            add ~line ~rule:"D5" ~msg:"Obj.magic defeats the type system"
        | _ -> ());
        match txt with
        | Longident.Lident "==" | Longident.Ldot (Longident.Lident "Stdlib", "==") ->
            add ~line ~rule:"D5"
              ~msg:
                "physical equality (==) on mutable storage is \
                 representation-dependent — use structural equality or an \
                 explicit id field"
        | _ -> ())
    | Pexp_constant (Pconst_string (s, _, _)) -> check_string ~line s
    | _ -> ()
  in
  let on_pat (p : Parsetree.pattern) =
    let line = p.ppat_loc.loc_start.pos_lnum in
    match p.ppat_desc with
    | Ppat_constant (Pconst_string (s, _, _)) -> check_string ~line s
    | _ -> ()
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          on_expr e;
          default_iterator.expr it e);
      pat =
        (fun it p ->
          on_pat p;
          default_iterator.pat it p);
      module_binding =
        (fun it mb ->
          (match mb.pmb_name.txt with
          | Some name when hashtbl_functor mb.pmb_expr ->
              hashtbls := name :: !hashtbls
          | _ -> ());
          default_iterator.module_binding it mb);
    }
  in
  it.structure it structure;
  !found

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let lint_source ~file ?(engine_names = []) ?(expect_mli = false) src =
  let lines = split_lines src in
  let waivers =
    List.concat
      (List.mapi
         (fun i line ->
           match scan_waiver line (i + 1) with
           | Some w -> [ w ]
           | None -> [])
         lines)
  in
  let waiver_findings =
    List.concat_map
      (fun w ->
        if w.w_rule = "" then
          [
            {
              f_file = file;
              f_line = w.w_line;
              f_rule = "W1";
              f_msg =
                Printf.sprintf "unknown lint waiver keyword %S" w.w_keyword;
            };
          ]
        else if not w.w_justified then
          [
            {
              f_file = file;
              f_line = w.w_line;
              f_rule = "W2";
              f_msg =
                Printf.sprintf
                  "waiver %S has no justification — say why the hit is \
                   safe"
                  w.w_keyword;
            };
          ]
        else [])
      waivers
  in
  let ast_findings =
    let lexbuf = Lexing.from_string src in
    Location.init lexbuf file;
    match Parse.implementation lexbuf with
    | ast -> lint_structure ~file ~engine_names ast
    | exception _ ->
        [
          {
            f_file = file;
            f_line = 1;
            f_rule = "E0";
            f_msg = "parse error — file could not be linted";
          };
        ]
  in
  (* A justified waiver on the finding's line (or the line above it)
     suppresses the finding and is marked used. *)
  let survives f =
    match
      List.find_opt
        (fun w ->
          w.w_rule = f.f_rule
          && (w.w_line = f.f_line || w.w_line = f.f_line - 1))
        waivers
    with
    | Some w ->
        w.w_used <- true;
        false
    | None -> true
  in
  let ast_findings = List.filter survives ast_findings in
  let stale =
    List.concat_map
      (fun w ->
        if w.w_rule <> "" && not w.w_used then
          [
            {
              f_file = file;
              f_line = w.w_line;
              f_rule = "W1";
              f_msg =
                Printf.sprintf
                  "stale waiver %S: no %s finding on this or the next line"
                  w.w_keyword w.w_rule;
            };
          ]
        else [])
      waivers
  in
  let mli =
    if expect_mli then
      [
        {
          f_file = file;
          f_line = 1;
          f_rule = "D6";
          f_msg =
            "library module has no .mli — make the public surface explicit";
        };
      ]
    else []
  in
  List.sort compare_finding (waiver_findings @ ast_findings @ stale @ mli)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?(engine_names = []) path =
  let expect_mli =
    (* library modules (under lib/) must export an interface; executables
       and tests have no public surface *)
    let norm = String.concat "/" (String.split_on_char '\\' path) in
    let in_lib =
      let rec has_lib = function
        | "lib" :: _ -> true
        | _ :: tl -> has_lib tl
        | [] -> false
      in
      has_lib (String.split_on_char '/' norm)
    in
    in_lib && not (Sys.file_exists (Filename.chop_extension path ^ ".mli"))
  in
  lint_source ~file:path ~engine_names ~expect_mli (read_file path)
