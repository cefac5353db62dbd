(** Determinism lint over OCaml sources (compiler-libs Parsetree walk).

    Rules (hits exit the lint driver with status 1 unless waived):

    - {b D1} no stdlib [Random.*] — randomness goes through the seeded
      [Common.Rng] (allowlisted: [lib/common/rng.ml]).
    - {b D2} no wall-clock ([Unix.gettimeofday], [Unix.time],
      [Sys.time]) — engines live in virtual time (allowlisted:
      [lib/trace/trace.ml], the export path).
    - {b D3} no [Hashtbl.iter]/[Hashtbl.fold], nor [iter]/[fold] of a
      module the same file binds to [Hashtbl.Make]/[MakeSeeded] —
      iteration order is unspecified and would leak into committed
      state.
    - {b D4} no engine-name string literals outside
      [lib/harness/engine_registry.ml] — the PR 5 registry invariant.
    - {b D5} no [Obj.magic] / physical equality [(==)], anywhere and
      unwaivable: rows are named by (table, slot), so no code compares
      storage by identity.
    - {b D6} library [.ml] under [lib/] must have an [.mli].
    - {b W1} stale or unknown waiver; {b W2} waiver without a
      justification; {b E0} file failed to parse.

    A finding is waived by [(* lint: <keyword> -- justification *)] on
    the offending line or the line directly above.  Keywords:
    [raw-random-ok] (D1), [wall-clock-ok] (D2), [order-insensitive]
    (D3), [engine-name-ok] (D4). *)

type finding = {
  f_file : string;
  f_line : int;
  f_rule : string;
  f_msg : string;
}

val pp_finding : Format.formatter -> finding -> unit
val compare_finding : finding -> finding -> int

val lint_source :
  file:string ->
  ?engine_names:string list ->
  ?expect_mli:bool ->
  string ->
  finding list
(** Lint a source text.  [engine_names] drives D4 (pass
    [Engine_registry.names ()]); [expect_mli] (default false) adds a D6
    finding, used by {!lint_file} for interface-less library modules. *)

val lint_file : ?engine_names:string list -> string -> finding list
(** Lint a file on disk; computes [expect_mli] from the path (under
    [lib/] with no sibling [.mli]). *)
