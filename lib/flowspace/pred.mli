(** Predicates: ternary tuples over a schema.

    A predicate denotes a hyper-rectangular region of the flowspace — one
    ternary value per schema field.  Rules, partitions and cache entries
    all carry predicates; the DIFANE partitioner cuts them, and the
    cache-splicing algorithm subtracts them. *)

type t

(** {1 Construction} *)

val any : Schema.t -> t
(** The whole flowspace. *)

val exact : Schema.t -> Header.t -> t
(** The exact-match predicate of a header: every field pinned to the
    header's value — a microflow entry. *)

val make : Schema.t -> Ternary.t list -> t
(** One ternary value per field, in schema order.
    @raise Invalid_argument on arity or width mismatch. *)

val init : Schema.t -> (int -> Ternary.t) -> t
(** [init schema f] has field [i] = [f i], computed in schema order.
    @raise Invalid_argument on width mismatch. *)

val of_fields : Schema.t -> (string * Ternary.t) list -> t
(** Named construction; unnamed fields are fully wildcarded.
    @raise Not_found on an unknown field name,
    @raise Invalid_argument on width mismatch. *)

val of_strings : Schema.t -> (string * string) list -> t
(** [of_fields] with {!Ternary.of_string} applied to each value. *)

val with_field : t -> int -> Ternary.t -> t
(** Functional update of one field. *)

(** {1 Accessors} *)

val schema : t -> Schema.t
val field : t -> int -> Ternary.t
val arity : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Predicates} *)

val equal : t -> t -> bool

val matches : t -> Header.t -> bool
val is_any : t -> bool

val lanes : t -> int * int * int * int
(** [lanes p] is [(mask_lo, value_lo, mask_hi, value_hi)]: the
    predicate's field masks and values packed into the two lanes of the
    header key ({!Header.lane_lo}, {!Header.lane_hi}), with
    [matches p h] ⇔
    [Header.key_lo h land mask_lo = value_lo
     && Header.key_hi h land mask_hi = value_hi] for headers of [p]'s
    schema.  Allocates only the result.
    @raise Invalid_argument unless {!Header.lanes_exact} holds for the
    schema. *)

val size : t -> float
(** Number of concrete headers denoted (product of field sizes). *)

val size_log2 : t -> int
(** [log2 (size t)]: total wildcard bits.  Exact, and safer than [size]
    for comparisons. *)

(** {1 Algebra} *)

val inter : t -> t -> t option
(** The intersection, or [None] for a disjoint pair.  A field where one
    operand's value holds the other's is the inner operand's own
    {!Ternary.t}: a disjoint pair allocates nothing, and a nested one only
    the result's record and field array. *)

val overlaps : t -> t -> bool
val subsumes : t -> t -> bool

val buddy_union : t -> t -> t option
(** [buddy_union a b] is the predicate denoting {e exactly} the union of
    [a] and [b], when the two hyper-rectangles are adjacent: equal on
    every field but one, where the ternary values are buddies
    ({!Ternary.buddy_union}).  Merging such a pair into the result covers
    no header the operands did not — the legality core of cache-rule
    aggregation.  [None] when no exact single-rectangle union exists
    (including when [a] = [b]). *)

val subtract : t -> t -> t list
(** [subtract a b] is a pairwise-disjoint list of predicates whose union
    is [a - b].  At most [Schema.total_bits] pieces. *)

val subtract_all : t -> t list -> t list
(** [subtract_all a bs] is a disjoint cover of [a - union bs].  Piece
    count can grow with [List.length bs]; used on the short
    higher-priority-overlap lists of cache splicing. *)

val diff_nonempty : t -> t list -> bool
(** [diff_nonempty a bs] iff some header lies in [a] but in no [b] —
    i.e. [subtract_all a bs <> []], decided by depth-first witness search
    with early exit instead of materialising the cover.  This is the
    predicate dependency analysis actually needs, and it stays fast where
    the full cover would fragment combinatorially. *)

val clip_to_holder : t -> Header.t -> t -> t
(** [clip_to_holder a h b]: given [Pred.matches a h] and
    [not (Pred.matches b h)], the disjoint piece of [a - b] that contains
    [h].  One subtraction step of the splicing walk.
    @raise Invalid_argument if the preconditions fail. *)

val split : t -> int -> int -> (t * t) option
(** [split p field bit] cuts predicate [p] along one wildcard bit of one
    field; [None] if that bit is specified.  The halves are disjoint and
    their union is [p]. *)

val random_point : (int -> int) -> t -> Header.t
(** Uniform concrete header inside the predicate, given a [rand_bits]
    source. *)
