(** The DIFANE data-plane switch.

    Each switch holds three priority banks, consulted in order:

    + {b cache} — reactively installed, bounded TCAM ({!Tcam});
    + {b authority} — the partitions this switch is authority for
      (clipped rule tables installed by the controller);
    + {b partition} — one rule per flowspace region mapping it to that
      region's authority switch (installed everywhere).

    Processing a header yields a {!verdict}: either the policy action
    (cache hit, or this switch is the authority for the header's region)
    or an instruction to tunnel the packet to an authority switch.  When
    an authority switch serves a miss it also emits the spliced cache rule
    that the ingress switch should install ({!serve_miss}). *)

type t

type bank_hit = Cache_bank | Authority_bank

type verdict =
  | Local of Action.t * bank_hit  (** decided here, and by which bank *)
  | Tunnel of int  (** partition-rule match: send to this authority switch *)
  | Unmatched  (** no bank matched (non-total policy) *)
  | Misconfigured
      (** a partition rule claimed the header but cannot tunnel it (its
          action is not [To_authority]) — a broken partition bank, kept
          distinct from genuinely uncovered flowspace so drop reporting
          upstream can tell operator error from policy gaps *)

val create : id:int -> cache_capacity:int -> t

(** {1 Control-plane installs} *)

type partition_bank
(** A partition bank checked once, for installing at many switches. *)

val partition_bank : Rule.t list -> partition_bank
(** Every rule's action must be [To_authority];
    @raise Invalid_argument otherwise. *)

val install_partition_bank : t -> partition_bank -> unit
(** Replace the partition bank.  A no-op when the committed bank already
    holds exactly these rules, in this order.  Every switch that installs
    one [partition_bank] looks it up through one shared index, built by
    the first install that needs it. *)

(** Each held authority table comes with two structures over it, kept
    in one entry so they cannot drift apart: the tuple-space index
    ({!Indexed}) that packets and misses look the table up through, and
    the splice plan ({!Splice.plan}) that {!serve_miss} builds its cache
    rules from.  The plan is made on the table's first miss, not at
    install, and grows per rule as misses reach it. *)

val install_authority : t -> Partitioner.partition -> unit
(** Add (or replace, by partition id) an authority table, indexing it
    afresh.  Any plan held for the replaced table goes with it. *)

val authority_table : t -> int -> (Partitioner.partition * Indexed.t) option
(** The authority table held for a partition id, with the index the
    data plane looks it up through. *)

val patch_authority : t -> Partitioner.partition -> Rule.t list -> unit
(** [patch_authority t p rules] replaces the table held for [p.pid] by
    [p], whose table is the held one with each of [rules] swapped in at
    an equal predicate and priority.  The held index is patched in place
    ({!Indexed.swap}), not rebuilt, and so is the table's splice plan
    ({!Splice.swap}): predicates, priorities and order are unchanged, so
    every blocker, dependency edge and cover set it memoised stays
    valid, and only the actions it hands out change.
    @raise Invalid_argument when no table for [p.pid] is held, or as
    {!Indexed.swap} does. *)

val drop_authority : t -> int -> unit
(** Remove the authority table for a partition id, with its index and
    plan. *)

val authority_partitions : t -> Partitioner.partition list

val partition_rules : t -> Rule.t list
(** The committed partition bank (staged rules excluded) — used by the
    HA experiment's duplicate-install audit. *)

val apply_flow_mod : t -> now:float -> Message.flow_mod -> unit
(** OpenFlow-style entry point used by the controller: [Add]/[Delete] on
    the cache bank ([Authority]/[Partition] banks are replaced wholesale
    via the functions above; flow-mods to them raise). *)

val handle_control : ?xid:int -> ?epoch:int -> t -> now:float -> Message.t -> Message.t list
(** The switch's control-protocol state machine: echo requests get
    replies; cache-bank flow-mods apply immediately; partition-bank
    flow-mod adds are {e staged} and committed as one atomic bank
    replacement by the next barrier (whose reply then acknowledges
    them) — the commit applies whatever the channel delivered, so a
    staged rule with a non-tunnel action does not crash the switch: it
    sits in the bank and {!process} counts packets it claims as
    [misconfigured]; [Install_partition]/[Drop_partition] replace or remove an
    authority table and are acknowledged with [Ack xid] (an installed
    table is taken as {!Message.decode} delivers it, in table order with
    distinct ids, and is not re-checked); stats requests
    are answered from the cache TCAM's live counters.  Unsolicited
    replies and data-plane messages yield no response.

    The handler is {e idempotent per xid} (when [xid <> 0]): a request
    whose xid was already processed — a controller retransmission or a
    channel duplicate — returns the original responses without
    re-applying its effect.  [xid = 0] (the default) marks an untracked
    request: no dedup, no ack.

    It is also {e epoch-fenced} (when [epoch <> 0]): a frame carrying an
    epoch older than the highest this switch has seen is refused without
    being applied (counted in {!stale_rejected}) but still acked, so the
    deposed master's retransmission machinery terminates — and since
    every reply frame carries the switch's current epoch, the deposed
    master learns it lost.  A frame from a {e newer} epoch advances the
    switch, clears the xid replay memory (the new master allocates xids
    from its own space) and abandons any staged partition updates (the
    deposed master's open transaction must not leak into the new
    master's batch).  [epoch = 0] (the default) is unfenced:
    single-controller deployments never reject. *)

val epoch : t -> int
(** Highest master epoch seen since the last {!reset} (0 = unfenced). *)

val stale_rejected : t -> int
(** Control frames refused for carrying a stale epoch. *)

val stale_accepted : t -> int
(** Stale-epoch frames that were nonetheless applied — the fencing
    invariant is that this is always 0; the E-HA experiment asserts it. *)

val reset : t -> unit
(** Crash semantics: the device reboots blank — all three banks, staged
    partition updates, counters, notifications and the xid replay memory
    are cleared.  Identity and cache capacity survive.  Pair with a
    controller-side resync ({!Control_plane.restart_switch}). *)

val fresh_cache_id : t -> int
(** Allocate a cache-rule id from this switch's id space — used by
    controller-path (degraded-mode) reactive installs, which build the
    cache rule outside {!serve_miss}. *)

(** {1 Data plane} *)

val process : t -> now:float -> Header.t -> verdict
(** One lookup through the three banks, updating cache statistics.  The
    cache and partition banks are probed through incrementally maintained
    tuple-space indexes, so the per-packet cost is sub-linear in both
    table sizes.  A header claimed by a partition rule that cannot tunnel
    (its action is not [To_authority]) yields [Misconfigured] and is
    tallied as [misconfigured], not [unmatched]. *)

(** {1 Cache-entry provenance}

    Every installed cache entry carries a {!cache_meta}: the serving
    partition, the entry kind, and the one policy rule the entry stands
    for, to which each of its cache hits is attributed. *)

type cache_kind =
  | Fragment  (** a spliced independent piece (DIFANE's default) *)
  | Cover  (** a whole rule installed as part of a CacheFlow cover set *)
  | Exact  (** a fully specified entry (microflow / degraded fallback) *)

type cache_meta = {
  pid : int;  (** serving partition id; [-1] when unknown *)
  kind : cache_kind;
  origin : int;  (** the policy rule id the entry stands for *)
  group : (int * int list) option;
      (** cover-set atomicity tag: [(group id, member cache-rule ids)]
          shared by every member of one installed cover set, [None] for
          ungrouped entries.  A cover set decides packets correctly only
          while complete — the broad low-rank rule relies on its
          higher-rank dependencies being resident — so
          {!drop_cover_orphans} scrubs the survivors of any group that
          lost a member, and a hit on any member refreshes the idle
          deadlines of them all ({!Tcam.touch}) so unhit dependencies
          don't idle out from under the group. *)
}

type miss_reply = {
  action : Action.t;  (** the policy action to apply to the packet *)
  cache_rule : Rule.t;  (** primary rule the ingress switch should install *)
  origin_id : int;  (** policy rule the cache rule was spliced from *)
  pid : int;  (** authority partition that served the miss — with
                  [origin_id], the provenance pair the ingress install
                  records so every later cache hit stays attributable to
                  both the policy rule and the flowspace region *)
  installs : (Rule.t * cache_meta) list;
      (** everything the ingress switch should install, with provenance:
          the singleton [cache_rule] for a plain spliced or microflow
          miss, or the full cover set (each member at its own rank) when
          the cover path fired.  Install these via {!Aggregate.install}
          or {!install_cache_meta}. *)
}

val serve_miss :
  ?mode:[ `Spliced | `Microflow ] -> ?cover_limit:int -> t -> now:float ->
  Header.t -> miss_reply option
(** Authority-switch path for a tunnelled miss packet: look up the
    header in this switch's authority tables; return the policy action
    together with the cache rules for the ingress switch — DIFANE's
    spliced wildcard piece by default, or an exact-match microflow entry
    with [~mode:`Microflow] (the Ethane-style ablation).  With
    [~cover_limit:n] (spliced mode only), a rule whose CacheFlow
    dependent set has at most [n] members is cached as its whole cover
    set instead of a clipped fragment: every member installs at its own
    {!Splice.rank}, reproducing the authority table's
    overlap resolution inside the cache while covering the rule's entire
    predicate.  [None] if this switch is not authority for the header (a
    misrouted packet).

    One {!Indexed.first_match} finds the origin rule; everything else is
    read from the table's splice plan: the origin's blockers to clip
    against, its cover set and size, and every rank.  The plan builds
    what a miss needs on first use and keeps it, so a warm table serves
    a miss without walking the table. *)

val install_cache_meta :
  ?idle_timeout:float -> ?hard_timeout:float -> t -> now:float -> Rule.t ->
  cache_meta option -> Rule.t list
(** Install a cache entry recording the given provenance ([None]:
    without provenance), evicting LRU entries when full; returns
    evictions.  Every displaced entry — LRU victim or a same-id entry
    replaced by the reinstall — is reported through
    {!drain_notifications} with its final counters ([Evicted] or
    [Replaced] reason), so provenance accounting never loses packets to
    churn.  A hard timeout bounds how long a stale entry can survive a
    policy change (hits keep postponing an idle timeout indefinitely).
    A cover group an eviction breaks is left for the caller's
    {!drop_cover_orphans} at the batch boundary. *)

val expire_cache : t -> now:float -> Rule.t list

val drop_cover_orphans : t -> now:float -> int
(** Scrub the surviving members of every cover set that is no longer
    complete (see {!cache_meta.group}): a broad cover rule left without
    its higher-rank dependencies would answer packets those dependencies
    must decide.  Every internal removal path (expiry, invalidation,
    explicit delete) already calls this; installers
    ({!Aggregate.install}, the controller's fallback) call it at batch
    boundaries, where an eviction may have broken a group.  Scrubbed entries report [Replaced] with final
    counters, like other displacements, in {!Rule.compare_priority}
    order.  Returns entries removed.

    Only groups touched since the last scrub are checked: a removal
    marks the entry's own group and every group listing it as a member,
    and an install marks its own group.  The cost is that of the touched
    groups, not of the bank.  A scrubbed entry another group shares
    dirties that group, so the scrub repeats until no group is dirty:
    when it returns, every cover set in the bank is complete. *)

val entries_of_origins : t -> (int -> bool) -> Tcam.entry list
(** The live cache entries standing for some origin the selector picks,
    in table order.  One walk over the switch's provenance table finds them: the
    test allocates nothing per entry, and only the selected entries are
    looked up in the bank and sorted.  Entries without provenance stand
    for no origin. *)

val invalidate_origins : t -> now:float -> (int -> bool) -> int
(** Remove every cache entry whose origin the selector picks, with its
    provenance, then
    {!drop_cover_orphans}.  No notification is queued for the selected
    entries.  Returns entries removed, orphans included. *)

val flush_cache : t -> unit
(** Empty the cache bank and drop all of its provenance; counters and
    the other banks are kept. *)

val invalidate_cache_pids : t -> now:float -> int list -> int
(** Evict every cache entry whose provenance pid is in the list — the
    migration scrub: a retired source region's splices (or an aborted
    split's sub-region splices) must not keep firing under a dead pid.
    Each eviction is reported via {!drain_notifications} with reason
    [Replaced] (final counters intact) so the controller retires its
    provenance records; the next miss re-splices under the live pid.
    Returns the number of entries evicted. *)

val attach : t -> unit
(** A control plane now drains this switch: from here on every cache
    entry that expires or is evicted queues a flow-removed notification.
    Before, none is queued — a run without a controller has nobody to
    read them.  {!reset} keeps the attachment. *)

val drain_notifications : t -> Message.t list
(** Flow-removed notifications queued since the last drain: one per cache
    entry that expired or was evicted after {!attach}, carrying its final
    counters.  The control plane forwards these to the controller so
    per-rule statistics stay exact across cache churn. *)

(** {1 Introspection} *)

val cache : t -> Tcam.t
val cache_occupancy : t -> int

val origin_of_cache_rule : t -> int -> int option
(** Map a cache-rule id back to the policy rule it was spliced from —
    how flow counters stay attributable to original rules
    (transparency). *)

val cache_meta_of_rule : t -> int -> cache_meta option
(** Full provenance of a cache entry. *)

val aggregate_counters : t -> (int * int64) list
(** Per-origin-rule packet counts accumulated by this switch's cache bank
    (including entries since evicted), plus authority-table hits. *)

val origin_breakdown : t -> (int * int64 * int64) list
(** Per-origin-rule [(id, cache-bank packets, authority-bank packets)] —
    the split behind {!aggregate_counters}, which the monitor's
    heavy-hitter report uses to show how much of a rule's load the
    ingress caches absorbed. *)

val partition_load : t -> (int * int64) list
(** Misses this switch has served per partition id — the measurement the
    controller's traffic-aware rebalancing consumes (paper §5). *)

val cache_load : t -> (int * int64) list
(** Cache-bank hits per serving partition id — pairs with the
    authorities' {!partition_load} to measure per-region cache efficacy
    (how much traffic each region's spliced entries absorbed vs how many
    misses its authority still served). *)

type stats = {
  cache_hits : int64;
  authority_hits : int64;
  tunnelled : int64;
  unmatched : int64;
  misconfigured : int64;
      (** packets that matched a partition rule whose action was not
          [To_authority] — a broken partition bank, counted apart from
          genuinely uncovered flowspace ([unmatched]) *)
}

val stats : t -> stats
(** Per-switch packet-verdict tallies since {!create}.
    Every increment also bumps the process-wide registry (labelled
    [switch=<id>]), so {!Telemetry.snapshot} and this accessor agree. *)

val pp : Format.formatter -> t -> unit
