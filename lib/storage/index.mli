(** Secondary index: maps a secondary key to the primary keys that carry
    it.  Built at load time (TPC-C customer-by-last-name). *)

type t

val create : name:string -> t
val name : t -> string

val add : t -> int -> int -> unit
(** [add idx skey pkey] appends [pkey] under [skey] (duplicates kept, in
    insertion order). *)

val find : t -> int -> int list
(** All primary keys under [skey], oldest first; [] when absent. *)

val clone : t -> t
(** Deep copy; deterministic regardless of hash-bucket layout. *)

val overwrite_from : src:t -> t -> unit
(** Make [dst]'s entries identical to [src]'s (post-failover sync). *)
