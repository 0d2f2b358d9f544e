(** Concrete packet headers: one point of the flowspace.

    A header assigns a concrete value to every field of a schema.  This is
    the thing a switch matches against its TCAM banks. *)

type t

val make : Schema.t -> int64 array -> t
(** [make schema values] builds a header.  Each value is truncated to its
    field's width.  @raise Invalid_argument on arity mismatch. *)

val schema : t -> Schema.t
val field : t -> int -> int64
val values : t -> int64 array

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Precomputed at {!make}; constant-time on every per-packet path. *)

(** {2 Int-packed key}

    [make] packs the header's fields, little-endian by schema position,
    into two 63-bit lanes held as native ints.  When {!lanes_exact}
    holds for the schema (up to 126 total bits, including the ACL 5-tuple's
    104), the packing is injective: two headers of the same schema are
    equal iff their [(key_lo, key_hi)] pairs are, so hot paths can key
    hash tables on two ints with no per-packet allocation.  Wider schemas
    get a mixed fingerprint instead — still a valid hash, but not
    injective. *)

val key_lo : t -> int
val key_hi : t -> int

val lanes_exact : Schema.t -> bool
(** [Schema.total_bits schema <= 126]: headers of [schema] have exact
    lanes, and {!lane_lo} and {!lane_hi} place every field. *)

val lane_lo : pos:int -> int -> int
(** [lane_lo ~pos v]: the low-lane bits of a field value [v] that [make]
    places at bit offset [pos] (the sum of the widths of the fields
    before it). *)

val lane_hi : pos:int -> bits:int -> int -> int
(** [lane_hi ~pos ~bits v]: the high-lane bits of a [bits]-wide field
    value [v] at bit offset [pos].  OR-ing {!lane_lo} and [lane_hi] over
    the fields gives [key_lo] and [key_hi].  Each field owns its own lane
    bits, so packing a predicate's per-field masks and values the same
    way ({!Pred.lanes}) yields lane masks and values with
    [key_lo h land mask_lo = value_lo && key_hi h land mask_hi = value_hi]
    exactly when every field matches. *)

val pp : Format.formatter -> t -> unit
