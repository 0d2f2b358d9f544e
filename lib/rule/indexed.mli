(** Indexed classifiers: packed tuple-space lookup.

    A linear scan over a big rule table is fine for semantics but not for
    a hot data-plane path.  [of_classifier] loads the table into the
    packed tuple-space kernel ({!Tuple_space}): rules are grouped by lane
    mask, so a lookup is one hash probe per group, visiting groups in
    table order and stopping as soon as no remaining group can beat the
    current winner.

    Tuple space search only pays off when rules {e share} masks (as in
    multi-length prefix tables with few distinct lengths, or microflow
    tables).  On rule sets where nearly every rule has its own mask —
    e.g. ClassBench-style ACLs with random prefix lengths — the kernel
    scans the rules' packed lanes instead ({!degenerate}).  Schemas over
    126 bits cannot be packed; their lookups use {!Classifier.first_match}.

    Semantics are identical to {!Classifier.first_match} (property-tested
    against it); authority switches build one index per partition table. *)

type t

val of_classifier : Classifier.t -> t
val table : t -> Classifier.t
(** The table [t] indexes: the one it was built from, or the last
    {!swap}ped in. *)

val swap : t -> Classifier.t -> Rule.t list -> unit
(** [swap t table rules] makes [t] the index of [table], in place.
    [table] must be [t]'s table with each of [rules] replacing the rule
    of its id at an equal predicate and priority: only actions change,
    so each rule is swapped into its slot ({!Tuple_space.swap}) and no
    other slot moves.
    @raise Invalid_argument when some rule has no slot of its id,
    predicate and priority; [t] is then unusable. *)

val groups : t -> int
(** Number of distinct lane masks — the probe count; [0] for a schema
    over 126 bits. *)

val degenerate : t -> bool
(** True when a lookup scans rather than probes: too many distinct lane
    masks for tuple search to win, or a schema over 126 bits. *)

val first_match : t -> Header.t -> Rule.t option
(** Exactly {!Classifier.first_match} on the underlying table. *)
