(** Plain-text table rendering for benchmark reports and examples. *)

type align = Left | Right

val render : ?align:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays the table out with box-drawing rules and
    per-column widths.  [align] defaults to [Left] for the first column and
    [Right] for the rest (the usual label-then-numbers layout). *)

val print : ?align:align list -> header:string list -> string list list -> unit

val fmt_si : float -> string
(** Engineering notation with an SI suffix: [fmt_si 1.23e6 = "1.23M"]. *)
