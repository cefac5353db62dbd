type outcome = Ok | Abort | Blocked

type ctx = {
  read : Fragment.t -> int -> int;
  write : Fragment.t -> int -> int -> unit;
  add : Fragment.t -> int -> int -> unit;
  insert : Fragment.t -> key:int -> int array -> unit;
  input : int -> int;
  output : int -> int -> unit;
  found : Fragment.t -> bool;
}

exception Blocked_exn

