(** Silo-style optimistic concurrency control (Tu et al., SOSP'13), an
    {!Occ} policy: invisible reads record per-row TIDs, writes are
    buffered, and commit validates that every TID read is unchanged and
    not latched by another committer, then installs under a TID above
    every one seen.  Plugs into {!Nd_driver}. *)

include Nd_driver.CC
