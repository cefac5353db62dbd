(** The djb2 string hash (h := h * 33 + byte), masked to 32 bits: the
    WAL's record checksum and the CDC feed's running digest. *)

val init : int
(** 5381, the hash of no bytes. *)

val fold : int -> Bytes.t -> int -> int -> int
(** [fold h b off len] rolls [h] over [b.[off .. off+len-1]]; the result
    is below 2{^32}.  [fold init] of a whole record is its checksum, and
    folding consecutive pieces equals folding their concatenation. *)
