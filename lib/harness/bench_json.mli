(** The one writer behind every [BENCH_*.json] file:
    [{"experiment", "scale", <head fields>, "rows": [...]}], one row
    object per line, fields in the order given. *)

type value =
  | Int of int
  | Bool of bool
  | Str of string  (** JSON-escaped with {!Quill_trace.Trace.escape} *)
  | Num of float  (** printed with [%g] *)
  | Fixed of int * float  (** [Fixed (d, f)] prints [f] with [d] decimals *)
  | Obj of (string * value) list  (** one line, fields in order *)

val render :
  experiment:string ->
  scale:float ->
  ?head:(string * value) list ->
  (string * value) list list ->
  string
(** The file contents: [head] fields follow ["scale"], then the rows. *)

val write :
  string ->
  experiment:string ->
  scale:float ->
  ?head:(string * value) list ->
  (string * value) list list ->
  unit
(** [write path ...] writes {!render}'s output to [path] and prints
    ["<experiment>: wrote <path>"]. *)
