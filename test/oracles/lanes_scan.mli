(** Lane packing by closure: the two-lane packer {!Pred.lanes} replaced.
    [pack schema get] walks the schema once per call, asking [get i] for
    field [i]'s value and placing it in [int64] arithmetic; a predicate's
    lanes are one call over its masks and one over its values.  The
    differential tests hold {!Pred.lanes} and the header key
    ({!Header.key_lo}, {!Header.key_hi}) to these answers. *)

val pack : Schema.t -> (int -> int64) -> int * int
(** [pack schema get]: the low and high lanes with field [i] holding
    [get i] (a value within the field's width).
    @raise Invalid_argument when the schema is over 126 bits. *)

val pred_lanes : Pred.t -> int * int * int * int
(** [(mask_lo, value_lo, mask_hi, value_hi)], as {!Pred.lanes}. *)
