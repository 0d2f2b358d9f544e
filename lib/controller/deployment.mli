(** A deployed DIFANE network.

    Gathers the pieces — topology, per-node switches, the partitioner's
    output and the partition→authority assignment — and implements the
    packet walk of the paper's Figure 1: ingress cache lookup, tunnel to
    the authority switch on a miss, reactive cache install back at the
    ingress.  This module is the {e functional} data plane (exact
    behaviour, path taken, hop latency along shortest paths); the
    discrete-event simulator in [difane_sim] layers queueing and service
    times on top of it for the timing experiments. *)

type t
(** A value: a decision that changes what a splice returns (an update,
    failover, rebalance, migration stage or takeover) yields a new [t];
    the switches and reachability table stay shared.  [Flowsim] fences
    its in-flight cache installs on [==]. *)

type config = {
  k : int;  (** number of flowspace partitions *)
  heuristic : Partitioner.heuristic;
  cache_capacity : int;  (** per-switch cache TCAM entries *)
  cache_idle_timeout : float option;  (** seconds; [None] = never expire *)
  cache_hard_timeout : float option;
      (** upper bound on any cache entry's lifetime; the knob that bounds
          staleness across lazy policy updates (experiment F-DYN) *)
  balance : [ `Rules | `Volume ];
      (** what the partition→authority assignment balances: TCAM usage
          ([`Rules]) or expected miss traffic under uniform headers
          ([`Volume], weight = flowspace volume of each region) *)
  replication : int;
      (** authority replicas per partition (>= 1).  Backups hold the
          partition's rules ahead of time, so failover is a partition-rule
          swap with no rule transfer (paper §5). *)
  cache_mode : [ `Spliced | `Microflow ];
      (** what authority switches install at the ingress on a miss:
          DIFANE's spliced wildcard piece, or an Ethane-style exact-match
          entry covering only that header; F-MISS ([difane missrate])
          replays one packet stream at each mode *)
  tunnel_to : [ `Primary | `Nearest_replica ];
      (** which replica a miss is tunnelled to: the partition's primary,
          or the replica closest to the ingress switch (the controller
          installs per-ingress partition rules; with replication >= 2
          this converts authority placement spread into shorter
          detours) *)
  congestion : Congestion.config;
      (** the data-plane congestion model ({!Congestion.default} = off:
          infinite buffers, zero serialization).  Only the discrete-event
          simulator ([Flowsim]) reads it: there every leg books time on
          per-port virtual-clock queues, queueing delay adds to the
          packet's latency, a full buffer drops the packet, and in
          [Credit] mode a miss that finds the credit pool exhausted is
          deferred to the controller path ({!controller_serve}
          [~cause:`Backpressure]).  {!inject} is untimed and ignores it. *)
  aggregation : Aggregate.config;
      (** cache-rule aggregation ({!Aggregate.default} = off: the plain
          one-install-per-miss path, bit-identical to the seed).  When
          enabled, miss installs flow through {!Aggregate.install}
          (subsumption suppression and cover sharing) and rules with small
          dependent sets are cached as CacheFlow cover sets
          ({!Aggregate.cover_limit}) — fewer, wider TCAM entries deciding every
          packet identically. *)
}

val default_config : config
(** k = 4, best-cut, 1000-entry caches, 10 s idle timeout, no hard
    timeout. *)

val build :
  ?config:config ->
  ?install:bool ->
  policy:Classifier.t ->
  topology:Topology.t ->
  authority_ids:int list ->
  unit ->
  t
(** Partition the policy, assign partitions to [authority_ids], install
    authority tables there and partition rules everywhere.  With
    [install = false] the switches are left blank — the configuration is
    then pushed over the control channels with
    {!Control_plane.push_deployment}, which is how a real controller
    would do it.
    @raise Invalid_argument on an empty [authority_ids] or ids outside
    the topology. *)

val policy : t -> Classifier.t
val topology : t -> Topology.t
val partitioner : t -> Partitioner.t
val assignment : t -> Assignment.t
val switch : t -> int -> Switch.t
val switches : t -> Switch.t array
val authority_ids : t -> int list
val config : t -> config

(** {1 Packet walk} *)

type outcome = {
  action : Action.t;  (** what the policy says happens to the packet *)
  path : int list;  (** switches traversed, ingress first *)
  latency : float;  (** propagation latency along [path] *)
  cache_hit : bool;  (** decided by the ingress cache bank *)
  authority : int option;  (** authority switch visited, when missed *)
  installed : Rule.t option;  (** cache rule installed at the ingress *)
  degraded : bool;
      (** served via the controller fallback — NOX-style reactive setup,
          the mode a run degrades to instead of wedging.  Reached either
          because no replica of the header's partition was alive
          ({!degraded_misses}) or, in [Flowsim]'s credit mode, because
          backpressure deferred the miss ({!controller_serve}) *)
}

val inject : t -> now:float -> ingress:int -> Header.t -> outcome
(** Walk one packet through the network, mutating switch state (cache
    counters and reactive installs) exactly as DIFANE would.  When every
    replica of the header's partition is unreachable the miss is served
    degraded: the controller answers from the policy directly and
    installs an exact-match entry at the ingress (see {!outcome.degraded}
    and {!degraded_misses}).  Each call opens a fresh {!Ptrace} packet
    context. *)

val expire_caches : t -> now:float -> int
(** Run cache timeouts on every switch; returns entries expired. *)

val flush_caches : t -> unit

(** {1 Dynamics} *)

val update_policy : ?flush:bool -> t -> now:float -> Classifier.t -> t
(** Install a new policy, doing only the work the change needs.  The two
    policies are diffed by rule id once ({!diff_policies}; {!last_update}
    keeps the result).
    - When every rule id is in both policies with an equal predicate
      (only actions and priorities changed) and the current layout is
      {!Partitioner.compute}'s, the layout is kept: [compute] reads only
      predicates, so it would return the same pids and regions.  Each
      table holding a changed rule is patched ({!Partitioner.patch}),
      and every replica holding the old table swaps the changed rules
      into its index in place ({!Switch.patch_authority}); a table in
      which a priority moved has only its own index rebuilt.  Swapped
      tables keep their splice plans (see {!Switch.patch_authority});
      rebuilt ones start new plans on their next miss.  Partition
      banks are left alone where they already hold the new rules.
    - Any other change (a predicate edit, an added or removed rule), or
      a layout a migration or snapshot restore refitted, re-partitions
      with [compute] and reinstalls every authority table and partition
      bank.  The new layout is numbered from the old one's
      [Partitioner.next_pid], so no pid an earlier layout held is handed
      out again.
    Either way the regions, assignment and tables are exactly those of
    a from-scratch re-partition (pids aside, after a re-partition); the
    path taken is logged.  With
    [flush = true] (default) every reactive cache entry is dropped too —
    strict consistency.  With [flush = false] stale spliced entries
    linger until their idle timeout (the paper's lazy-expiry mode,
    measured by experiment F-DYN).  Switch identities and statistics
    carry over. *)

type update = {
  changed : int list;  (** {!diff_policies}'s [changed] ids, ascending *)
  kept_layout : bool;  (** the layout was kept and the tables patched *)
}

val last_update : t -> update
(** What the most recent {!update_policy} changed and which path it
    took; [{ changed = []; kept_layout = false }] before any update. *)

val mark_unreachable : t -> int -> unit
(** Data-plane failure model: tunnels to this switch stop working (link or
    device down), {e before} any controller reaction.  With replication
    >= 2 a miss then falls back to the partition's backup replica purely
    in the data plane — the paper's zero-controller failover.  Without a
    live replica the miss degrades to the controller path (see
    {!inject}). *)

val mark_reachable : t -> int -> unit

val resolve_authority : t -> ?ingress:int -> Header.t -> nominal:int -> int option
(** Where a miss packet tunnelled toward [nominal] actually lands.  With
    [tunnel_to = `Primary]: the nominal authority when reachable, else
    the first reachable replica of the header's partition.  With
    [`Nearest_replica] and an [ingress]: the reachable replica closest to
    the ingress. *)

val invalidate_origins : ?now:float -> t -> origins:(int -> bool) -> int
(** Remove every cached entry spliced from a policy rule selected by
    [origins], across all switches; returns entries removed (including
    cover-set members scrubbed because their group lost a member — see
    {!Switch.drop_cover_orphans}).  The targeted-invalidation
    consistency mode: after a policy change only the affected rules'
    cache entries need to go. *)

val cache_entries_of_origins :
  t -> live:(int -> bool) -> int list -> (int * Rule.t) list
(** [cache_entries_of_origins d ~live ids] lists, as [(switch, cache
    rule)], the entries of the [live] switches' cache banks that stand
    for any of the distinct policy rule ids [ids] (each entry stands for
    one).  The order is that of a walk per id: by position in [ids],
    then by switch, then in table order.  One walk
    over each live switch's provenance ({!Switch.entries_of_origins})
    finds the entries, with an int-keyed set of [ids]; only those
    entries are sorted and bucketed.  This is what a strict update
    deletes. *)

type diff = {
  changed : int list;
      (** rule ids whose definition differs (changed predicate, action or
          priority, or present in only one policy), ascending — what a
          controller invalidates on an incremental update *)
  edits : (Rule.t * Rule.t) list option;
      (** when every id is in both policies with an equal predicate, the
          (old, new) definitions of each changed rule, in no particular
          order; [None] otherwise *)
}

val diff_policies : old_policy:Classifier.t -> Classifier.t -> diff
(** The id diff {!update_policy} takes.  The two tables are walked in
    lockstep while they hold the same id at the same position, which
    costs one comparison per unchanged rule and allocates nothing for
    it; only the suffixes after the first position where the ids differ
    (a priority moved past another rule, or a rule was added or
    removed) are sorted by id and merged.  An action-only update thus
    costs one pass plus work in proportion to what changed. *)

val fail_authority : t -> int -> t
(** Authority-switch failover: promote backups for the failed switch's
    partitions (or re-place them when no backup exists) and reinstall
    partition rules.  The failed switch keeps forwarding cached flows but
    no longer serves misses.
    @raise Invalid_argument when it was the only authority. *)

val adopt : model:t -> network:t -> t
(** Controller takeover: [model] is a deployment a standby rebuilt by
    journal replay over scratch switches; [network] is the deployment
    wired to the physical network.  The result keeps [model]'s controller
    decisions (policy, partitioner, assignment, authority pool, in-flight
    migration) and [network]'s physical state (the switch array,
    reachability table and degraded counter — shared mutable references,
    so physical facts keep accumulating in place).  Pair with a reliable
    {!Control_plane.push_deployment}: switch-side xid idempotency and
    replace-by-id banks make the re-push converge without duplicate
    installs. *)

val degraded_misses : t -> int
(** Misses served via the controller fallback (no live replica) since
    [build] — the separate accounting the fault experiments report. *)

val controller_serve :
  ?cause:[ `Failure | `Backpressure ] -> t -> now:float -> ingress:int -> Header.t -> outcome
(** Serve a miss on the controller path directly (the NOX-style fallback
    {!inject} reaches when no replica is alive).  This is also the NOX
    baseline's whole flow setup: [Experiments.nox_baseline] is a
    deployment whose one authority is down.  Answer from the policy,
    install an exact-match entry at the ingress unless the ingress cache
    already decides the header (another packet of the flow, answered
    first, installed it; [installed] is then [None]).  [cause] selects the
    accounting — [`Failure] (default) counts toward {!degraded_misses},
    [`Backpressure] toward the [deployment_backpressured_misses]
    registry counter.  The DES answers every
    miss that reaches its controller path this way, without looking the
    packet up at the ingress a second time. *)

val serve_miss : t -> now:float -> authority:int -> Header.t -> Switch.miss_reply option
(** A tunnelled miss's splice: {!Switch.serve_miss} at [authority]
    under [t]'s cache mode and cover limit. *)

val install : t -> now:float -> ingress:int -> (Rule.t * Switch.cache_meta) list -> unit
(** Install a miss reply's rules at [ingress] through {!Aggregate.install}
    with [t]'s cache timeouts and aggregation engine. *)

val aggregator : t -> Aggregate.t
(** The deployment's aggregation engine and its counters. *)

val aggregate_stats : t -> Aggregate.stats
(** Aggregation counters since [build]: installs performed, suppressed
    installs (subsumed, or a cover member shared with an equal live
    entry), cover-set members installed. *)

val last_new_authority_installs : t -> int
(** Authority tables newly pushed to a switch by the most recent
    [build]/[update_policy]/[fail_authority], including background backup
    replenishment.  A re-partitioning update pushes every table afresh;
    a layout-kept update counts only the replicas that did not hold the
    old table.  A table patched in place, or re-indexed after a priority
    moved, is not a new install. *)

val measured_partition_loads : t -> (int * float) list
(** Misses served per partition id, aggregated over every authority
    switch — the live traffic measurement rebalancing uses. *)

val rebalance : t -> loads:(int * float) list -> t
(** Re-place partitions on the {e same} authority set using measured
    per-partition loads instead of static weights (the paper's periodic
    load rebalancing).  The flowspace partitions themselves are
    unchanged — only partition rules move, and pre-installed tables are
    kept where the new assignment agrees with the old. *)

val last_new_primary_installs : t -> int
(** The subset of {!last_new_authority_installs} that was on the serving
    path (a table pushed to a partition's new {e primary}).  With
    replication >= 2 a failover promotes warm backups, so this is
    typically zero — the point of pre-installed backups. *)

(** {1 The journal's interpreter} *)

type migration_stage =
  | Installed  (** sub-region tables installed; ingress banks still at the source *)
  | Flipped  (** ingress banks point at the sub-regions; the source table lingers *)

val apply : t -> now:float -> Journal.entry -> t
(** What a journal entry does to a deployment — the only code that says
    so.  The live controller journals each decision and then applies it
    here; a standby replays the journal over a {!build} of its [Build]
    entry through the same function, so the two reach the same
    deployment.  [Policy_update] is {!update_policy} without a flush
    (the controller deletes stale cache entries itself) of its rules,
    taken unchecked as a table: live ones come from a classifier,
    replayed ones through {!Message.read_rules}.  [Fail_authority] is
    {!fail_authority}, [Restore_authority] undoes one (re-placing
    partitions over the enlarged pool), [Declared_dead]/[Recovered]
    {!mark_unreachable}/{!mark_reachable}, [Rebalance] {!rebalance}, a
    [Partition_layout] snapshot refits the recorded regions and replica
    lists verbatim, and [Epoch] changes nothing.

    Staged region migration moves a sub-region of an overloaded
    partition to another authority.  After each stage a miss in the
    migrating region still reaches an authority switch holding its
    rules:
    - [Migration_begin]: the source partition becomes its two journaled
      sub-regions in the partitioner and assignment, and their tables
      are installed at their replicas; ingress partition banks still
      point at the source, whose table stays.  Stage {!Installed}.
    - [Migration_flip]: every switch's partition bank is rewritten from
      the split layout.  Stage {!Flipped}.
    - [Migration_commit]: the source's tables are retired; [Migration_abort]
      first rolls the layout back to the source and retires the
      sub-regions' tables instead.  Either way cache entries spliced
      under the retired pids are evicted ({!Switch.invalidate_cache_pids}),
      {!last_evicted} counts them, and no migration is in flight.
    @raise Invalid_argument on a [Build] entry, which constructs a
    deployment rather than changing one. *)

val migration : t -> (Journal.migration * migration_stage) option
(** The staged migration in flight and the stage it reached. *)

val last_evicted : t -> int
(** Cache entries evicted by the most recent migration commit or
    abort. *)

(** {1 Global checks (used by tests)} *)

val semantically_equal : t -> Header.t list -> bool
(** Every probe header gets exactly the original classifier's action. *)

val counterexample : t -> (int * Header.t) option
(** The exact oracle: a switch and a header on which the network
    disagrees with the policy ([None]: it agrees on every header at
    every ingress).  Changes no state.  Checks, with
    {!Equiv.counterexample} on tables clipped to the region or entry (so
    the header lies inside it), that every held copy of a partition's
    table decides its region as the policy does, and that within each
    live cache entry's predicate the switch's cache bank decides as the
    policy does (a header no rule matches counts as a drop).  An entry
    the policy's first overlapping rule covers with the entry's own
    action, as every spliced fragment is, skips the region algebra. *)

val total_cache_entries : t -> int
