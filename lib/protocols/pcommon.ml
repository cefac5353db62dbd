(* Shared helpers for the protocol implementations: row-identity maps for
   access sets, and the commit-time publish of the lock-based engines. *)

open Quill_storage
open Quill_txn

(* Association by physical row identity; access sets are small (tens of
   entries), linear scan beats hashing. *)
module Rowmap = struct
  type 'a t = (Row.t * 'a) list ref

  let create () : 'a t = ref []

  let find (t : 'a t) row =
    let rec go = function
      | [] -> None
      | (r, v) :: rest -> if r == row then Some v else go rest
    in
    go !t

  let add (t : 'a t) row v = t := (row, v) :: !t

  let replace (t : 'a t) row v =
    let rec go = function
      | [] -> [ (row, v) ]
      | (r, _) :: rest when r == row -> (row, v) :: rest
      | e :: rest -> e :: go rest
    in
    t := go !t
  let iter_rev f (t : 'a t) = List.iter (fun (r, v) -> f r v) (List.rev !t)
  let elements (t : 'a t) = !t
end

let run_locked direct txn =
  let r = Direct.run direct txn in
  if r = Exec.Ok then
    List.iter (fun (row, _) -> Row.publish row) (Direct.undo direct);
  r
