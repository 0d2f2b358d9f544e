(** Packed tuple-space search: the lookup kernel behind {!Indexed} and
    the TCAM model.

    Every rule is reduced, once, when it enters the table, to four ints
    over the two-lane header key ({!Pred.lanes}): [mask_lo],
    [value_lo], [mask_hi], [value_hi], with
    [Pred.matches p h] ⇔
    [key_lo h land mask_lo = value_lo && key_hi h land mask_hi = value_hi].
    Rules sharing a lane mask form one group (Srinivasan et al.'s tuple);
    a group hashes the masked lanes to a chain of candidates in table
    order, and each candidate is checked against its own values, so a
    hash collision can never change the verdict.  When nearly every rule
    has its own mask, probing costs more than scanning, and {!find}
    scans the packed lanes of every rule instead ({!degenerate}).

    A lookup allocates nothing.  Only rules of schemas with exact lanes
    ({!Header.lanes_exact}, at most 126 bits) can enter; callers keep
    their per-field path for wider schemas. *)

type 'a t
(** A table of rules, each carrying a payload of type ['a]. *)

type 'a slot
(** One rule's place in a table; the handle {!remove} takes. *)

val create : ?size:int -> unit -> 'a t
(** [size] (default 8) is the rule count the dense arrays first grow to:
    a table filled from a known rule list grows once. *)

val add : 'a t -> Rule.t -> 'a -> 'a slot
(** Index a rule with its payload.  Rule ids must be unique in the
    table (priority ties are broken by id).
    @raise Invalid_argument when the rule's schema is over 126 bits. *)

val remove : 'a t -> 'a slot -> unit
(** Remove a slot previously returned by {!add} on this table, at most
    once. *)

val clear : 'a t -> unit

val swap : 'a t -> Rule.t -> 'a -> unit
(** [swap t r x] makes [r] and [x] the rule and payload of the slot
    holding [r]'s id, in place: the OpenFlow modify-exact-flow of a rule
    whose action changed.  The old rule's predicate and priority must
    equal [r]'s, so the slot's group, chain, position and table order
    all stay valid.  The slot is found through the chain of [r]'s lanes.
    @raise Invalid_argument when no slot at [r]'s lanes holds [r]'s id,
    or that slot's predicate or priority differs from [r]'s. *)

val find : 'a t -> lo:int -> hi:int -> int
(** [find t ~lo ~hi] is the position of the highest-priority rule
    matching the header with lanes [(lo, hi)], or [-1] if none does.  The
    position is valid for {!get} until the table next changes. *)

val get : 'a t -> int -> 'a
(** The payload at a position {!find} returned. *)

val groups : 'a t -> int
(** Distinct lane masks: the probe count of one tuple-space lookup. *)

val degenerate : 'a t -> bool
(** True when {!find} scans every rule's lanes rather than probing one
    hash chain per group: the groups are too many for probing to win. *)

val fold_equal : 'a t -> Pred.t -> ('b -> 'a -> 'b) -> 'b -> 'b
(** Fold over the payloads of the rules whose predicate has the lanes of
    the given one: its group's chain at its values.  Equal predicates
    have equal lanes; a schema differing from the rule's could share
    them, so callers keep their {!Pred.equal} check.
    @raise Invalid_argument when the schema is over 126 bits. *)

val fold_buddies : 'a t -> Pred.t -> ('b -> 'a -> 'b) -> 'b -> 'b
(** Fold over the payloads of the rules whose lanes are the given
    predicate's with one masked bit flipped — one chain of its group per
    masked bit of either lane.  Every buddy ({!Pred.buddy_union}) is
    among them; callers keep their exact check.
    @raise Invalid_argument when the schema is over 126 bits. *)
