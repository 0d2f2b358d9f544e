(** Range-to-prefix expansion.

    ACLs express port conditions as integer ranges; TCAMs only hold
    ternary values.  A range [lo..hi] on a [w]-bit field expands to at
    most [2w - 2] prefixes (the classic "range expansion" blow-up that
    motivates rule-space work such as DIFANE). *)

val to_prefixes : width:int -> int64 -> int64 -> Ternary.t list
(** [to_prefixes ~width lo hi] is the minimal list of maximal prefixes
    whose disjoint union is exactly [lo..hi] (inclusive).
    @raise Invalid_argument if [lo > hi] or the bounds exceed the width. *)

val of_ternary : Ternary.t -> (int64 * int64) option
(** Inverse for prefix-shaped ternaries: the contiguous range a prefix
    covers.  [None] when the ternary is not a prefix (has a wildcard above
    a specified bit). *)
