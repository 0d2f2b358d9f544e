(** The DIFANE flowspace partitioner.

    The controller carves the flowspace into [k] disjoint
    hyper-rectangular regions and gives each to an authority switch.  A
    rule whose predicate spans several regions is {e split}: each region
    holds the rule clipped to the region, so per-region tables stay
    semantically self-contained but the total TCAM count grows.  The
    partitioner is a decision tree of single-bit cuts (in the spirit of
    HiCuts): it repeatedly splits the fullest region along the cut that
    best balances the two halves while duplicating the fewest rules.

    The cut search counts by bit tests.  A leaf's candidate cuts are each
    field's most significant wildcard bit.  Every rule of a leaf overlaps
    the leaf's region, and ternary overlap is independent per bit, so a
    rule overlaps the child on one side of a cut exactly when its own bit
    at the cut is a wildcard or equals that side's value.  One pass over
    the leaf's rules counts both children of every candidate at once; the
    cut with the least (max child, total) wins, the lowest field on a
    tie, and the chosen leaf's rules are split into its two children
    keeping their order.  No child region is built to score a cut.

    Invariants (property-tested):
    {ul
    {- regions are pairwise disjoint and cover the whole flowspace;}
    {- for every header, looking up the clipped table of the covering
       region gives exactly the action of the original classifier;}
    {- every partition's table is non-empty whenever the original
       classifier is total.}} *)

type partition = {
  pid : int;
  region : Pred.t;
  table : Classifier.t;  (** original rules clipped to [region] *)
}

type heuristic =
  | Best_cut  (** per-split search over all fields' next wildcard bit (paper) *)
  | Fixed_dimension of int  (** always cut the same field — the ablation baseline *)

type t = {
  partitions : partition list;
  heuristic : heuristic;
  source_rules : int;  (** rules in the input classifier *)
  total_entries : int;  (** sum of clipped-table sizes over all partitions *)
  max_entries : int;  (** largest partition table *)
  duplication : float;  (** [total_entries / source_rules] — splitting overhead *)
  next_pid : int;
      (** the high-water mark of pids: every pid this layout or one it
          was derived from ({!refit}, {!patch}) ever held is below it.
          {!split_region} draws from it and a re-partitioning update
          numbers {!compute}'s layout from it, so a retired pid is never
          handed out again and cache provenance keyed by pid stays
          unambiguous. *)
}

val compute : ?heuristic:heuristic -> ?first_pid:int -> Classifier.t -> k:int -> t
(** Partition into at most [k] regions ([k >= 1]), numbered in order from
    [first_pid] (default 0).  Fewer than [k] regions
    are returned only when the flowspace cannot be cut further (all
    wildcard bits exhausted).  @raise Invalid_argument if [k < 1] or the
    classifier is empty. *)

val compute_bounded :
  ?heuristic:heuristic -> ?max_partitions:int -> Classifier.t -> max_entries:int -> t
(** The paper's actual sizing rule: split until {e every} partition's
    clipped table fits in an authority switch's TCAM budget
    ([max_entries]), rather than to a fixed region count.  Stops early
    when an oversized region has no productive cut left (rules that
    cannot be separated by any bit), or at [max_partitions]
    (default 4096).  @raise Invalid_argument if [max_entries < 1]. *)

val refit : t -> Classifier.t -> regions:(int * Pred.t) list -> t
(** Rebuild the partition set over {e exactly} the given [(pid, region)]
    list — the incremental path: regions come from a prior compute plus
    explicit splits, not from re-running the decision tree (which could
    land on a different cut and desynchronise replicas).  Tables are the
    classifier's rules clipped per region; the heuristic is kept for
    future splits, and [next_pid] rises past the largest pid given.
    Callers maintain the disjoint-cover invariant.
    @raise Invalid_argument on an empty classifier or region list. *)

val patch : t -> (int -> Rule.t option) -> t * (partition * Rule.t list) list
(** [patch t edit] swaps new definitions into the tables in place of
    re-clipping: each rule [r] with [edit r.id = Some r'] becomes [r']
    clipped to [r]'s predicate.  Every [r'] must keep its rule's id and
    predicate; a table is re-sorted only where a priority moved.  Since
    {!compute} reads only predicates, when [t] is [compute]'s result for
    a policy, the patched [t] is exactly
    [compute]'s result for the policy with the edits applied: same
    pids, regions and statistics, and tables equal rule for rule.
    Also returns each partition whose table changed, with its swapped
    (clipped) rules; the other partitions are kept as they are. *)

val split_region :
  t -> Classifier.t -> pid:int -> ((int * Pred.t) * (int * Pred.t)) option
(** Re-cut one region with the same HiCuts heuristic used at build time:
    the best single-bit cut of [pid]'s region over the classifier's rules.
    Returns [((lo_pid, lo), (hi_pid, hi))] with fresh pids ([next_pid]
    and [next_pid + 1]: a {!refit} to the split layout moves the mark
    past both, so retired pids are never reused and cached-rule
    provenance stays unambiguous), or [None] when the pid is unknown or
    no productive cut remains. *)

val find : t -> Header.t -> partition
(** The unique partition whose region contains the header. *)

val partition_rules : t -> assignment:(int -> int) -> Rule.t list
(** The low-priority partition rules every switch carries: region [pid]
    maps to [To_authority (assignment pid)].  Rule ids are fresh
    (>= 1_000_000), priorities all equal (regions are disjoint). *)
