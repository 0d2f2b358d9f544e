(** Ternary bit-vectors: the atoms of flowspace.

    A ternary value of width [w] assigns to each of its [w] bit positions
    one of [0], [1] or [x] ("don't care").  It denotes the set of concrete
    [w]-bit values obtained by substituting [0]/[1] for every [x].  TCAM
    entries, IP prefixes and OpenFlow wildcard fields are all ternary
    values, and the DIFANE partitioning and cache-splicing algorithms are
    built on the algebra below (intersection, subsumption, disjoint
    subtraction).

    Bit positions are numbered from the most significant bit: the first
    character of [to_string t] is bit [width t - 1].  Widths up to 62 bits
    are supported, which covers every OpenFlow 1.0 header field. *)

type t

val max_width : int
(** Largest supported width (62). *)

(** {1 Construction} *)

val make : width:int -> value:int64 -> mask:int64 -> t
(** [make ~width ~value ~mask] is the ternary value whose bit [i] is
    specified (as bit [i] of [value]) when bit [i] of [mask] is set, and
    is [x] otherwise.  Value bits outside the mask or the width are
    ignored.  @raise Invalid_argument if [width] is not in [1..max_width]. *)

val any : int -> t
(** [any w] is the all-wildcard value of width [w]: it matches everything. *)

val exact : width:int -> int64 -> t
(** [exact ~width v] has every bit specified; it matches only [v]. *)

val prefix : width:int -> int64 -> int -> t
(** [prefix ~width v len] specifies the [len] most significant bits to the
    corresponding bits of [v]; the rest are wildcards.  [prefix ~width:32 v
    24] is the IPv4 prefix [v/24].  @raise Invalid_argument if [len] is not
    in [0..width]. *)

val of_string : string -> t
(** [of_string "01xx"] parses a ternary value, most significant bit first.
    Accepts ['0'], ['1'], ['x'], ['X'] and ignores ['_'] separators.
    @raise Invalid_argument on other characters or unsupported widths. *)

val of_ipv4 : string -> t
(** [of_ipv4 "10.1.2.0/24"] is the 32-bit prefix; a bare address
    ("10.1.2.3") is an exact /32 match.
    @raise Invalid_argument on malformed addresses or prefix lengths. *)

val of_value_string : width:int -> string -> t
(** Operator-friendly field syntax, by shape: [*] → {!any}; dotted quad
    or CIDR → {!of_ipv4} (width must be 32); a [0/1/x] string whose digit
    count equals [width] → {!of_string}; a decimal integer → {!exact}.
    An all-[01] token is binary exactly when its digit count equals the
    field width, decimal otherwise.
    @raise Invalid_argument when the shape and width clash or nothing
    parses. *)

(** {1 Accessors} *)

val width : t -> int
val value : t -> int64
(** Specified bits; wildcard positions read as [0]. *)

val mask : t -> int64
(** Set bits are specified positions. *)

val bit : t -> int -> [ `Zero | `One | `Any ]
(** [bit t i] is the symbol at position [i] (0 = least significant).
    @raise Invalid_argument if [i] is outside [0..width-1]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Predicates} *)

val equal : t -> t -> bool

val matches : t -> int64 -> bool
(** [matches t v] is true iff the concrete value [v] is in the set
    denoted by [t]. *)

val is_any : t -> bool
val is_exact : t -> bool

val specified_bits : t -> int
(** Number of non-wildcard positions. *)

val wildcard_bits : t -> int

(** {1 Algebra} *)

val inter : t -> t -> t option
(** [inter a b] is the ternary value denoting the set intersection of [a]
    and [b], or [None] when they are disjoint.  The intersection of two
    ternary values is always itself ternary. *)

val overlaps : t -> t -> bool
(** [overlaps a b] iff [inter a b <> None], decided without allocating.
    @raise Invalid_argument on width mismatch. *)

val subsumes : t -> t -> bool
(** [subsumes a b] iff the set of [a] contains the set of [b]. *)

val buddy_union : t -> t -> t option
(** [buddy_union a b] is the ternary value denoting {e exactly} the union
    of [a] and [b], when one exists and is distinct from both: the two
    values must share a mask and differ in exactly one specified bit,
    which the result wildcards (two adjacent /32s into one /31).  [None]
    otherwise — in particular when [a] and [b] are equal, overlap, or are
    not mergeable without covering extra values.
    @raise Invalid_argument on width mismatch. *)

val subtract : t -> t -> t list
(** [subtract a b] is a list of {e pairwise-disjoint} ternary values whose
    union is exactly the set difference [a - b].  Returns [[a]] when the
    operands are disjoint and [[]] when [b] subsumes [a].  The list has at
    most [width a] elements. *)

val piece_holding : t -> t -> int64 -> t
(** [piece_holding a b v]: the element of [subtract a b] that contains
    [v], built without the others.
    @raise Invalid_argument unless [v] lies in [a] and not in [b], or on
    width mismatch. *)

val split : t -> int -> (t * t) option
(** [split t i] refines the wildcard at bit [i] into the two halves with
    that bit fixed to [0] and to [1].  [None] if bit [i] is already
    specified.  This is the cut primitive of the DIFANE partitioner. *)

val first_wildcard_msb : t -> int option
(** Position of the most significant wildcard bit, if any. *)

val random_point : (int -> int) -> t -> int64
(** [random_point rand_bits t] draws a uniform member of [t]; [rand_bits n]
    must return [n] uniformly random bits as a non-negative int. *)
