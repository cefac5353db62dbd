type t = {
  key : int;
  committed : int array;
}

type version = {
  v_data : int array;
  v_wts : int;
  mutable v_rts : int;
}
