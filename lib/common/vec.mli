(** Growable arrays ([Dynarray] is stdlib 5.2+; this container fills the
    gap for OCaml 5.1).  Amortized O(1) push; O(1) random access. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val clear : 'a t -> unit
(** Resets length to 0 (keeps capacity; releases element references). *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_array : 'a array -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit
