(** Exact-predicate index over a cache bank.

    Maps an int key of each indexed rule's predicate to the rules that
    carry it, so the aggregation queries — "is this exact predicate
    already live?" and "which live entries are buddies of this one?" —
    cost a few hash probes instead of a walk over the whole bank.  The
    key hashes each field's (value, mask) pair; a buddy differs from its
    partner in one specified bit of one field ({!Pred.buddy_union}), so
    one probe per specified bit finds every buddy.  Probes allocate
    nothing; the callback sees only the rules whose key matched.

    The index only narrows the candidates: keys can collide, so callers
    keep their exact checks ({!Pred.equal}, {!Pred.buddy_union}) and
    the index can never change a verdict. *)

type 'm t

val create : unit -> 'm t

val add : 'm t -> Rule.t -> 'm -> unit
(** Index a live rule with its metadata.  The caller removes any earlier
    node with the same rule id first. *)

val remove : 'm t -> Rule.t -> unit
(** Drop the node of [rule]'s id, found under [rule]'s predicate; a
    no-op when that rule was not indexed. *)

val fold_equal : 'm t -> Pred.t -> ('a -> Rule.t -> 'm -> 'a) -> 'a -> 'a
(** Fold over the nodes whose key equals the predicate's: every indexed
    rule with an equal predicate, plus rare collisions. *)

val fold_buddies : 'm t -> Pred.t -> ('a -> Rule.t -> 'm -> 'a) -> 'a -> 'a
(** Fold over the nodes whose key equals that of the predicate with one
    specified bit flipped, for each specified bit: every indexed buddy
    of the predicate, plus rare collisions. *)
