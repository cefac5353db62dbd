(** Multi-version timestamp ordering — the representative of the
    multi-version engine class the paper compares against (Cicada,
    ERMIA, FOEDUS; DESIGN.md section 1 gives the substitution argument)
    — as an {!Occ} policy timestamped by attempt number.  Readers never
    block (older snapshots live on the row's version chain, at most 8
    deep); writers abort on timestamp-order violations, with
    Cicada-style early aborts on doomed writes.  Plugs into
    {!Nd_driver}. *)

include Nd_driver.CC
