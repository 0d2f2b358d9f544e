(** The control-frame decoder as a chain of [result]s: {!Message.decode}
    and {!Message.rules_of_bytes} replaced.  Every read returns [Ok] or
    [Error "truncated frame"], each field is bound with [let*], a
    predicate is built from a list of fields, and every rule list (a
    partition table or {!rules_of_bytes}' list) is checked for table
    order and repeated ids with [List.sort_uniq].  The differential
    tests hold
    the raising cursor to these answers.

    One divergence is deliberate: this decoder reads a rule's priority
    as an unsigned 32-bit value, so a negative priority comes back as
    [p + 2^32]; {!Message} sign-extends it.  Callers compare through
    {!signed}. *)

val decode : Schema.t -> Bytes.t -> (int * int * Message.t, string) result
val rules_of_bytes : Schema.t -> Bytes.t -> (Rule.t list, string) result

val signed_rule : Rule.t -> Rule.t
(** The rule with its priority read back as a signed 32-bit value. *)

val signed : Message.t -> Message.t
(** Every rule priority of a message read back as a signed 32-bit value:
    what {!Message.decode} returns for the same bytes. *)
