(** Cache-rule aggregation: fewer, wider TCAM entries for the same
    forwarding behaviour.

    Sits between the authority's miss reply ({!Switch.serve_miss}) and
    the ingress TCAM install, applying two transformations — each
    provably forwarding-equivalent, so a deployment with aggregation on
    decides every packet as the policy does (the exact oracle
    [Deployment.counterexample], run by the test suite and by [difane
    gate aggregate] on random policies, checks every cache entry):

    - {b suppression}: an install whose predicate is subsumed by a live
      entry with the same action at no lower priority is skipped — the
      subsumer already decides every header the new entry could win;
    - {b cover sets} ({!cover_limit}, threaded to
      {!Switch.serve_miss}): a rule with a small CacheFlow dependent set
      is cached whole, together with its higher-priority dependencies at
      correct relative ranks, instead of per-packet clipped fragments.
      A member with an equal live cover entry shares that entry instead
      of installing a copy.

    Every installed entry stands for the one policy rule it came from
    ({!Switch.cache_meta}). *)

type config = { enabled : bool  (** [false] reproduces seed behaviour *) }

val default : config
(** Disabled — bit-identical to the un-aggregated cache path. *)

val enabled_default : config
(** Aggregation on: suppression, and cover sets for rules with at most
    4 dependents. *)

val cover_limit : config -> int option
(** The [?cover_limit] to pass to {!Switch.serve_miss}: [Some 4] when
    enabled, [None] otherwise. *)

type stats = {
  installs : int;  (** entries actually written to a TCAM *)
  merges : int;
      (** always 0: nothing merges entries.  Kept because the perfbench
          counters line reports it. *)
  suppressed : int;  (** installs skipped as subsumed *)
  cover_installs : int;  (** installs that were cover-set members *)
}

type t
(** Aggregation engine: configuration plus counters.  One per
    deployment; safe to share across its ingress switches (an install
    only ever consults the switch being installed into). *)

val create : config -> t
val config : t -> config
val stats : t -> stats

val equivalent_live_cover : Switch.t -> Rule.t -> Switch.cache_meta -> int option
(** The id of a live cover entry with the rule's predicate, priority,
    action and the meta's partition — the entry a cover-set member is
    shared with instead of being installed again.  One probe of the bank
    ({!Tcam.fold_equal}); ties go to the entry {!Rule.compare_priority}
    ranks first. *)

val install :
  ?idle_timeout:float -> ?hard_timeout:float -> t -> Switch.t -> now:float ->
  (Rule.t * Switch.cache_meta) list -> Rule.t list
(** Install a miss reply's rules ({!Switch.miss_reply.installs}) into an
    ingress switch's cache through the aggregation pipeline: cover
    sharing, suppression, then a provenance-carrying
    {!Switch.install_cache_meta} per rule, then
    {!Switch.drop_cover_orphans} at the batch boundary.  Returns LRU
    evictions.  With aggregation disabled this is exactly a sequence of
    plain meta installs and the scrub. *)
