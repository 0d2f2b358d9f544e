(** Concrete packet headers: one point of the flowspace.

    A header assigns a concrete value to every field of a schema.  This is
    the thing a switch matches against its TCAM banks. *)

type t

val make : Schema.t -> int64 array -> t
(** [make schema values] builds a header.  Each value is truncated to its
    field's width.  @raise Invalid_argument on arity mismatch. *)

val of_fields : Schema.t -> (string * int64) list -> t
(** Named construction; unnamed fields default to [0].
    @raise Not_found on an unknown field name. *)

val schema : t -> Schema.t
val field : t -> int -> int64
val get : t -> string -> int64
val values : t -> int64 array

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Precomputed at {!make}; constant-time on every per-packet path. *)

(** {2 Int-packed key}

    [make] packs the header's fields, little-endian by schema position,
    into two 63-bit lanes held as native ints.  When {!key_exact} is
    [true] (schemas up to 126 total bits, including the ACL 5-tuple's
    104), the packing is injective: two headers of the same schema are
    equal iff their [(key_lo, key_hi)] pairs are, so hot paths can key
    hash tables on two ints with no per-packet allocation.  Wider schemas
    get a mixed fingerprint instead — still a valid hash, but not
    injective. *)

val key_lo : t -> int
val key_hi : t -> int
val key_exact : t -> bool

val lanes_exact : Schema.t -> bool
(** [Schema.total_bits schema <= 126]: headers of [schema] have exact
    lanes, and {!pack_lanes} applies. *)

val pack_lanes : Schema.t -> (int -> int64) -> int * int
(** [pack_lanes schema get] places [get i] (a value within field [i]'s
    width) where [make] puts field [i], and returns the two lanes.  The
    layout gives each field its own lane bits, so packing a predicate's
    per-field masks and values yields lane masks and values with
    [key_lo h land mask_lo = value_lo && key_hi h land mask_hi = value_hi]
    exactly when every field matches.
    @raise Invalid_argument unless [lanes_exact schema]. *)

val pp : Format.formatter -> t -> unit
