(** A touched set: the rows a thread wrote since its last publish, as
    (table, slot) pairs in touch order.  Each row's [dirty] flag keeps
    it in at most one touched set.  One flat int vector
    ({!Quill_common.Ivec}) holds the pairs, so adding allocates nothing
    and writes no pointer once it has grown to a batch's size. *)

type t

val create : unit -> t

val add : Db.t -> t -> table:int -> int -> unit
(** [add db t ~table slot]: add the row unless its dirty flag says it
    is already in a touched set, and set the flag. *)

val iter : (int -> int -> unit) -> t -> unit
(** [f table slot] for every row, in touch order. *)

val clear : t -> unit

val publish : Db.t -> t -> unit
(** {!Table.publish} every row, then {!clear}. *)

val revert : Db.t -> t -> unit
(** {!Table.revert} every row, then {!clear}. *)
