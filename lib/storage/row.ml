type t = {
  key : int;
  data : int array;
  committed : int array;
  mutable lock : int;
  mutable lock_tx : int;
  mutable tid : int;
  mutable wts : int;
  mutable rts : int;
  mutable versions : version list;
  mutable inserter : int;
  mutable dirty : bool;
}

and version = {
  v_data : int array;
  v_wts : int;
  mutable v_rts : int;
}

let make ~key ~nfields =
  {
    key;
    data = Array.make nfields 0;
    committed = Array.make nfields 0;
    lock = 0;
    lock_tx = max_int;
    tid = 0;
    wts = 0;
    rts = 0;
    versions = [];
    inserter = -1;
    dirty = false;
  }

let nfields t = Array.length t.data

let publish t =
  Array.blit t.data 0 t.committed 0 (Array.length t.data);
  t.dirty <- false

let restore t saved = Array.blit saved 0 t.data 0 (Array.length t.data)

let revert t =
  Array.blit t.committed 0 t.data 0 (Array.length t.data);
  t.dirty <- false
