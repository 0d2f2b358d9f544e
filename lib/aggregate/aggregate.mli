(** Cache-rule aggregation: fewer, wider TCAM entries for the same
    forwarding behaviour.

    Sits between the authority's miss reply ({!Switch.serve_miss}) and
    the ingress TCAM install, applying three transformations — each
    provably forwarding-equivalent, so a deployment with aggregation on
    and one with it off decide every packet identically (the
    differential gate in the test suite and [difane gate aggregate]
    enforce this on random policies):

    - {b suppression}: an install whose predicate is subsumed by a live
      entry with the same action at no lower priority is skipped — the
      subsumer already decides every header the new entry could win;
    - {b buddy merging}: two entries of the same kind, partition and
      action whose predicates are adjacent (equal on every field but
      one, where the ternary values are buddies) are replaced by their
      exact union, iterated to fixpoint.  Multi-part provenance
      ({!Switch.cache_meta}) keeps per-origin hit attribution exact
      across merges;
    - {b cover sets} (configured via {!cover_limit} and threaded to
      {!Switch.serve_miss}): a rule with a small CacheFlow dependent set
      is cached whole, together with its higher-priority dependencies at
      correct relative ranks, instead of per-packet clipped fragments.

    Legality is kind-aware: fragments merge across ranks (they exclude
    everything that beats their origins), cover rules only at equal rank
    (reordering would invert a dependency), exact entries at their
    shared priority 0. *)

type config = {
  enabled : bool;  (** master switch; [false] reproduces seed behaviour *)
  cover_limit : int option;
      (** install the whole cover set when the dependent set has at most
          this many members; [None] never covers *)
  merge_fragments : bool;
  merge_exact : bool;
  merge_covers : bool;
}

val default : config
(** Disabled — bit-identical to the un-aggregated cache path. *)

val enabled_default : config
(** Aggregation on, all merges on, [cover_limit = Some 4]. *)

val cover_limit : config -> int option
(** The [?cover_limit] to pass to {!Switch.serve_miss}: the configured
    limit when enabled, [None] otherwise. *)

type stats = {
  installs : int;  (** entries actually written to a TCAM *)
  merges : int;  (** buddy-union steps performed (= entries absorbed) *)
  suppressed : int;  (** installs skipped as subsumed *)
  cover_installs : int;  (** installs that were cover-set members *)
}

type t
(** Aggregation engine: configuration plus counters.  One per
    deployment; safe to share across its ingress switches (merging only
    ever consults the switch being installed into). *)

val create : config -> t
val config : t -> config
val stats : t -> stats

val install :
  ?idle_timeout:float -> ?hard_timeout:float -> t -> Switch.t -> now:float ->
  (Rule.t * Switch.cache_meta) list -> Rule.t list
(** Install a miss reply's rules ({!Switch.miss_reply.installs}) into an
    ingress switch's cache through the aggregation pipeline:
    suppression, then buddy-merge to fixpoint (absorbed entries leave
    via {!Switch.absorb_cache_rule}, reporting [Replaced] with final
    counters), then a provenance-carrying install.  Returns LRU
    evictions, as {!Switch.install_cache_rule} does.  With aggregation
    disabled this is exactly a sequence of plain meta installs. *)
