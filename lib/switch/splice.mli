(** Cache-rule splicing: DIFANE's dependency-aware wildcard caching.

    Caching the rule a packet matched is unsafe when a higher-priority
    rule overlaps it — the cached copy would steal that rule's packets at
    the ingress switch.  DIFANE's answer is to cache not the rule but the
    {e independent piece} of the rule that the packet actually fell into:
    the rule's predicate clipped to the authority partition, minus every
    higher-priority overlapping predicate, restricted to the disjoint
    fragment containing the packet.  Pieces spliced this way never overlap
    each other (across rules {e and} across partitions), so the ingress
    cache bank needs no internal priorities and can never corrupt the
    policy — the correctness property the test suite checks exhaustively.

    Misses are served from a {!plan}: one per authority table, holding
    the table's CacheFlow dependency graph (blockers, direct-dependency
    edges, cover sets, ranks), each rule's share built on first use and
    then kept. *)

type piece = {
  origin : Rule.t;  (** the partition-table rule the packet matched *)
  pred : Pred.t;  (** the independent fragment containing the packet *)
}

(** {1 Splice plans} *)

type plan
(** One table's splicing structure.  It holds the table-order rule
    array and each rule's rank; per rule, built lazily and memoised, the
    rule's blockers (the earlier rules overlapping it), its direct
    dependencies ({!Classifier.direct_dependencies}, computed from the
    blockers) and its cover set.  Edges are shared: a cover-set walk
    reuses the edges of every member it reaches, whichever origin
    reached them first.

    A plan is valid for as long as the table's predicates, priorities
    and order stand.  An action-only {!Indexed.swap} keeps them, so a
    plan survives it through {!swap}; any other change to the table
    needs a new plan. *)

val plan : Indexed.t -> plan
(** [plan idx]: an empty plan for [idx]'s table; nothing per rule is
    computed yet.  Lookups go through [idx]. *)

val swap : plan -> Rule.t list -> unit
(** [swap p rules] puts each rule at the slot of its id, as
    {!Indexed.swap} does to the plan's index: cover members then carry
    the swapped actions.  Each rule must keep its slot's predicate and
    priority; blockers, edges and cover sets stay valid.
    @raise Invalid_argument when some rule's id is not in the plan. *)

val for_header : plan -> Header.t -> piece option
(** [for_header p h]: the independent piece of the table's winning rule
    that contains [h]; [None] when no rule matches.  The piece satisfies
    [Pred.matches piece.pred h] and overlaps no rule that beats
    [piece.origin]. *)

val piece : plan -> Rule.t -> Header.t -> piece
(** [piece p origin h]: {!for_header}'s piece when [origin] is already
    known to be the table's first match for [h].  Clips [origin]'s
    predicate against its memoised blockers only. *)

val rank : plan -> Rule.t -> int
(** The cache-bank priority for rules spliced or covered from [origin] in
    this partition table: the origin's rank counted from the table's
    bottom (last rule = 1, first = table length).  Explicit, dependency-
    aware priorities replace the old "all cache rules share priority 0"
    constant, whose hidden assumption — that cached rules never overlap —
    the cover-set and aggregation machinery breaks on purpose: ranks make
    any overlap between cached entries resolve exactly as the authority
    table would.  Exact-match fallback entries keep priority 0, below
    every rank.
    @raise Not_found when the rule's id is not in the table. *)

val cache_rule : next_id:(unit -> int) -> plan -> piece -> Rule.t
(** Materialise a piece as an installable cache rule carrying the origin's
    action at the {!rank} of its origin. *)

val fold_cover : plan -> Rule.t -> (int -> Rule.t -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_cover p r f init] folds [f k member rank] over the cover set
    of [r], from its last member to its first, where [k] counts the
    members from [0] in table order.  The cover set is [r] plus the
    transitive closure of its direct dependencies, in table order (best
    first) — the Infinite-CacheFlow cover set; [r] is its last member.
    Installing every member at its {!rank} caches [r]'s {e whole}
    predicate safely: each member's overlap structure is reproduced
    inside the cache, so the highest-priority cached member matching a
    header is the rule the authority table would pick.  Worth installing
    when {!closure_size} is small.  Members carry the actions of the last
    {!swap}. *)

val closure_size : plan -> Rule.t -> int
(** The number of members of the cover set ({!fold_cover}):
    {!dependent_set_cost} read from the plan. *)

(** {1 Whole-table analysis} *)

val pieces_of_rule : Classifier.t -> Rule.t -> Pred.t list
(** All independent pieces of one rule (its effective region as disjoint
    predicates) — used by the ablation bench to count worst-case cache
    cost per rule. *)

val dependent_set_cost : Classifier.t -> Rule.t -> int
(** Size of the naive alternative: cache the rule plus every rule in its
    transitive direct-dependency closure (the CacheFlow "dependent set").
    The A-SPLICE ablation compares this against splicing. *)
