(** TicToc timestamp-ordering OCC (Yu et al., SIGMOD'16), an {!Occ}
    policy: rows carry a [wts, rts] validity interval; the commit
    timestamp is derived from the access set and read intervals are
    extended at validation, which admits schedules classic OCC aborts.
    Plugs into {!Nd_driver}. *)

include Nd_driver.CC
