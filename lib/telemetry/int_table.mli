(** The int-keyed hash table of the per-packet path.

    [Hashtbl.Make] over [int] with an inline hash: a lookup makes no call
    to the polymorphic hash and boxes no key.  Switch provenance and hit
    counters, the TCAM's by-id index and the congestion model's ports use
    it.  It lives in the lowest library those callers share.  Use [find]
    with a [Not_found] handler where [find_opt]'s [Some] would allocate
    per packet. *)

include Hashtbl.S with type key = int
