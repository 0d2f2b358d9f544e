(** Header schemas: the named dimensions of a flowspace.

    A schema fixes the ordered list of packet-header fields that rules may
    match on (an OpenFlow-style tuple).  Predicates, packet headers,
    partitions and rules are all arrays indexed by schema position. *)

type field = { name : string; bits : int }

type t

val create : field list -> t
(** @raise Invalid_argument on an empty list, duplicate names, or a field
    width outside [1..Ternary.max_width]. *)

val fields : t -> field array
val arity : t -> int
val field_bits : t -> int -> int
val field_name : t -> int -> string

val index : t -> string -> int
(** Position of a field by name.  @raise Not_found if absent. *)

val total_bits : t -> int
(** Sum of all field widths: the dimensionality of the flowspace. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Stock schemas} *)

val ip_pair : t
(** [src_ip/32, dst_ip/32] — the two-field space used for routing-style
    policies. *)

val acl_5tuple : t
(** [src_ip/32, dst_ip/32, src_port/16, dst_port/16, proto/8] — the
    classic ACL 5-tuple. *)

val tiny2 : t
(** Two 8-bit fields [f1], [f2] — handy for tests and worked examples. *)
