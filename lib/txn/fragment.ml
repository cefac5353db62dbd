type mode = Read | Write | Rmw | Insert

type t = {
  fid : int;
  table : int;
  key : int;
  mode : mode;
  abortable : bool;
  early : bool;
  mutable commit_dep : bool;
  data_deps : int array;
  op : int;
  args : int array;
}

let make ?(abortable = false) ?(early = false) ?(data_deps = [||])
    ?(args = [||]) ~fid ~table ~key ~mode ~op () =
  {
    fid;
    table;
    key;
    mode;
    abortable;
    early;
    commit_dep = false;
    data_deps;
    op;
    args;
  }

let updates t =
  match t.mode with Write | Rmw | Insert -> true | Read -> false
