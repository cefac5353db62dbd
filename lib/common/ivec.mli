(** Growable int arrays: flat scratch buffers that allocate nothing once
    they have grown to a batch's size.  Unlike ['a Vec.t], a block of
    ints can be reserved in one step and filled in place. *)

type t

val create : unit -> t
val length : t -> int

val clear : t -> unit
(** Length 0; the capacity is kept. *)

val push : t -> int -> unit

val extend : t -> int -> int
(** [extend v n] appends [n] unspecified ints and returns the index of
    the first, so a caller can fill them in {!data}. *)

val get : t -> int -> int

val data : t -> int array
(** The backing array: index [i < length v] is element [i].  It is
    replaced when the vector grows, so read it again after a {!push} or
    an {!extend}. *)
