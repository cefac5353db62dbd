(** Strict two-phase locking with the NoWait and WaitDie
    deadlock-avoidance policies (the classic pessimistic baselines of
    Yu et al., VLDB'14).  Transactions run in place through
    {!Quill_txn.Direct}, whose [locate] takes the row locks: writes land
    under exclusive locks and are undone on abort; NoWait aborts on any
    conflict, WaitDie lets older transactions wait (spin) and kills
    younger ones. *)

type policy = No_wait | Wait_die

module Make (_ : sig
  val policy : policy
end) : Nd_driver.CC

module No_wait_cc : Nd_driver.CC
module Wait_die_cc : Nd_driver.CC
