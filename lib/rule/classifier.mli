(** Classifiers: prioritised rule tables with linear-scan semantics.

    A classifier is the canonical, centralised form of a network policy:
    the highest-priority matching rule decides each packet.  DIFANE's
    correctness criterion is that the distributed deployment forwards
    every packet exactly as the original classifier would, and the
    analyses here (first-match, effective regions, overlap structure,
    dependency depth) are what the partitioner, the cache-splicing
    algorithm and the test suite are built on. *)

type t

(** {1 Construction} *)

val create : Schema.t -> Rule.t list -> t
(** Rules are sorted into table order ({!Rule.compare_priority}).  For
    rules made in the program or read from a policy file: [Policy_io],
    [Policy_gen], {!of_specs}, and a switch's partition bank assembled
    from flow-mods.
    @raise Invalid_argument if any rule's predicate has a different
    schema, or if two rules share an id. *)

val of_table_order : Schema.t -> Rule.t list -> t
(** The classifier of rules already in table order, of the schema and
    with unique ids: a table derived from a checked one (each rule
    keeping its id), or a list [Message.read_rules] decoded, which checks
    exactly this.  Nothing is checked or sorted again. *)

val clip : t -> Pred.t -> t
(** Every rule intersected with the region, empty intersections dropped:
    the table a partition of that region holds. *)

val of_specs : Schema.t -> (int * (string * string) list * Action.t) list -> t
(** [(priority, named ternary strings, action)] triples; ids are assigned
    in list order.  Convenience for tests and examples. *)

val schema : t -> Schema.t
val rules : t -> Rule.t list
(** In table order (highest priority first). *)

val length : t -> int
val find : t -> int -> Rule.t option
(** Rule by id. *)

val add : t -> Rule.t -> t
val remove : t -> int -> t
(** Remove by id; unchanged if absent. *)

(** {1 Semantics} *)

val first_match : t -> Header.t -> Rule.t option
(** The rule that decides this header, if any. *)

val action : t -> Header.t -> Action.t option

val is_total : t -> bool
(** Every header matches some rule.  Decided exactly via region algebra. *)

(** {1 Analyses} *)

val effective_region : t -> Rule.t -> Region.t
(** The set of headers this rule actually decides: its predicate minus all
    rules that beat it and overlap it.  Empty iff the rule is dead. *)

val shadowed : t -> Rule.t list
(** Rules shadowed by a {e single} earlier rule (cheap syntactic check). *)

val dead_rules : t -> Rule.t list
(** Rules whose effective region is empty — includes rules killed only by
    a {e combination} of earlier rules.  Exact but costlier. *)

val direct_dependencies : t -> Rule.t -> Rule.t list
(** Rules that beat [r], overlap it, and whose overlap is not already
    fully hidden by an even-earlier overlapping rule — the edges of the
    CacheFlow-style dependency graph, restricted to direct ancestors.
    These are exactly the rules whose absence from a cache would corrupt
    [r]'s semantics. *)

val dependency_depth : t -> int
(** Length of the longest direct-dependency chain in the table (1 = all
    rules independent).  The "depth" statistic of evaluation Table 1.
    Exact; cost grows with the overlap structure — see {!overlap_depth}
    for an upper bound that stays cheap on very large tables. *)

val overlap_depth : t -> int
(** Longest chain in the plain overlap DAG (edges: earlier rule overlaps
    later rule), an upper bound on {!dependency_depth} computable with
    O(n²) cheap intersection tests and no subtraction. *)

val overlap_count : t -> int
(** Number of ordered pairs (a beats b, a overlaps b). *)

val pp : Format.formatter -> t -> unit
