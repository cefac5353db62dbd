(** The cross-node batch runtime shared by {!Dist_quecc} and
    {!Dist_calvin}: value fills for cross-node data dependencies, abort
    votes and the resolution broadcast, one done message per node per
    batch to node 0, which accounts the batch and broadcasts its commit
    with the stop decision, lag-1 pipelining, and crash rollback and
    replay.  Each engine supplies its planning, its own message payload,
    its executor and what a crash replays (DESIGN.md §8, §10). *)

open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn

(** One transaction's cross-node runtime. *)
type rt = {
  txn : Txn.t;
  inputs : int Sim.Ivar.iv array array;  (** [fid].[dep_idx] *)
  producers : (int * int Sim.Ivar.iv) list array;  (** [fid] -> (node, iv) *)
  resolved : unit Sim.Ivar.iv array;  (** per node *)
  aborted_local : bool array;  (** per node view *)
  participants : int list;  (** ascending *)
  mutable pending_aborters : int;
  mutable aborted : bool;  (** authoritative *)
  centry : Quill_clients.Clients.entry option;  (** admission provenance *)
}

(** [Own] carries the engine's payload; the other arms are shared. *)
type 'p msg =
  | Own of 'p
  | Fill of { iv : int Sim.Ivar.iv; v : int }
  | Resolve of { rt : rt; aborted : bool }
  | Done  (** a node finished the current batch (to node 0) *)
  | Commit of { batch : int; stop : bool }  (** [stop]: no further batch *)
  | Stop

type 'p t = {
  name : string;  (** prefix of error messages, e.g. ["Dist_quecc.run"] *)
  sim : Sim.t;
  costs : Costs.t;
  wl : Workload.t;
  db : Db.t;
  nodes : int;
  node_of : Fragment.t -> int;  (** the node homing a fragment's row *)
  net : 'p msg Net.t;
  metrics : Metrics.t;
  clients : Quill_clients.Clients.t option;
  pipeline : bool;
  batch_size : int;
  total_batches : int;
  crash_plan : Quill_faults.Faults.crash array array;  (** per node *)
  commits : (int * int, bool Sim.Ivar.iv) Hashtbl.t;  (** (batch, node) *)
  slots : rt option array array;  (** [batch parity].[global slot] *)
  mutable done_count : int;
  mutable batches_done : int;
}

val create :
  name:string ->
  ?sim:Sim.t ->
  ?faults:Quill_faults.Faults.spec ->
  ?clients:Quill_clients.Clients.t ->
  ?fail_stop:bool ->
  costs:Costs.t ->
  nodes:int ->
  pipeline:bool ->
  batch_size:int ->
  batches:int ->
  node_of:(Fragment.t -> int) ->
  Workload.t ->
  'p t
(** Raises [Invalid_argument] if the fault plan names a node outside the
    cluster, or if [pipeline] is asked for with open-loop clients (a
    batch can only close against the previous batch's completions).
    With [fail_stop] the plan's crashes are left to the engine instead
    of being replayed. *)

val get_iv : ('k, 'v Sim.Ivar.iv) Hashtbl.t -> 'k -> 'v Sim.Ivar.iv

val fill : 'p t -> 'v Sim.Ivar.iv -> 'v -> unit  (** unless already full *)

val slice : 'p t -> parts:int -> int -> int * int
(** [(first slot, count)] of part [i] when a batch is split evenly into
    [parts] contiguous slices. *)

val admit : 'p t -> ?centry:Quill_clients.Clients.entry -> Txn.t -> rt
(** Charge a transaction's admission and build its runtime. *)

val set_slot : 'p t -> batch:int -> int -> rt -> unit

(** {2 Execution} *)

type exec
(** One executing thread's state. *)

val executor :
  ?replay:bool -> 'p t -> node:int -> Row.t Vec.t -> exec * Exec.ctx
(** An executing thread's state and the context over it, dirtying rows
    into the given touched set (rows written since the last publish).
    A [replay] executor re-runs work completed before a crash: it sends
    no value fills, casts no abort votes, and skips inserts that
    survived the crash. *)

val run_frag : 'p t -> exec -> Exec.ctx -> rt -> Fragment.t -> Exec.outcome
(** Execute one fragment, with no resolution logic. *)

val step : 'p t -> exec -> Exec.ctx -> rt -> Fragment.t -> bool
(** Execute one local fragment under conservative gating: wait for the
    abort resolution if it has a commit dependency, then vote or abort.
    [false] if the transaction is aborted at this node and the fragment
    was skipped. *)

val consume_crashes :
  'p t ->
  node:int ->
  int ref ->
  touched:Row.t Vec.t ->
  replay:(unit -> unit) ->
  unit
(** For each of [node]'s planned crashes from the cursor on whose time
    has passed, in the recover phase: revert [touched], sleep until the
    restart, pay the reboot and call [replay].  Leaves the phase at
    [Ph_other] after a crash. *)

(** {2 Batch loops} *)

val batch_loop : 'p t -> (int -> bool) -> unit
(** Call [f b] for each batch: [total_batches] of them, or with clients
    until [f] returns the stop decision. *)

val plan_loop :
  'p t -> node:int -> ?live:(unit -> bool) -> (int -> unit) -> unit
(** Call [plan b] for every batch and wait for its commit or, pipelined,
    call it once batch [b-2] committed (charged as drain stall).
    [live] is checked before each batch and each plan; a dead node
    stops planning. *)

val await_work : 'p t -> ('k, 'v Sim.Ivar.iv) Hashtbl.t -> 'k -> 'v
(** Read and retire a batch's planned work, charged as fill stall when
    pipelined. *)

val report_done : 'p t -> node:int -> unit

val publish : 'p t -> node:int -> int -> Row.t Vec.t -> bool
(** Wait for batch [b]'s commit, publish and clear [touched]; returns
    the stop decision. *)

(** {2 Commit coordination} *)

val commit : ?committed:(int -> unit) -> 'p t -> bool
(** Node 0's commit step for the next batch: account every runtime in
    its slots, call [committed b], decide whether to stop, and fan out
    [Commit] (and [Stop]).  Returns the stop decision. *)

val demux :
  'p t -> node:int -> own:('p -> unit) -> ?commit:(unit -> bool) -> unit ->
  unit
(** A node's network thread until [Stop]: fills, resolutions, done
    counting and commits are handled here, the engine's payload by
    [own].  Once every node reported done, node 0 calls [commit]
    (default {!commit}), which returns [true] to stop. *)

val run :
  ?recorder:Quill_analysis.Access_log.t ->
  'p t ->
  threads:int ->
  fill_threads:int ->
  drain_threads:int ->
  Metrics.t
(** Run the simulation (failing on deadlock) and record the simulator,
    pipeline-stall contributor and network totals. *)
