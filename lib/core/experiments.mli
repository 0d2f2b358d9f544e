(** The paper's evaluation, experiment by experiment.

    Each submodule reproduces one table or figure of {e Scalable
    Flow-Based Networking with DIFANE} (SIGCOMM 2010) on the simulated
    substrate (see DESIGN.md §2 for the substitution table and §4 for the
    experiment index).  Every [run] is deterministic given its [seed];
    [quick] shrinks workload sizes for use in the test suite.  [render]
    formats the same rows the bench harness and EXPERIMENTS.md use. *)

(** Table 1 — characteristics of the evaluation rule sets. *)
module T1 : sig
  type row = {
    label : string;
    description : string;
    rules : int;
    fields : int;
    depth : int;  (** longest priority-dependency chain *)
    overlaps : int;  (** overlapping rule pairs *)
  }

  val run : ?seed:int -> ?quick:bool -> unit -> row list
  val render : row list -> string
end

val nox_baseline : policy:Classifier.t -> topology:Topology.t -> unit -> Deployment.t
(** The reactive-controller baseline (NOX/Ethane style) the timing
    figures compare against: a default-config deployment whose one
    authority switch, 1, is marked unreachable, so every ingress miss
    takes the controller path ({!Deployment.controller_serve}) — half an
    RTT up, a controller service slot, half an RTT back and an
    exact-match entry installed at the ingress.  Replay it with
    {!Flowsim.run}.  No flow may enter at switch 1: its own authority
    bank would answer the miss locally. *)

(** Fig. "Throughput of flow setup": DIFANE (1 authority switch) vs NOX,
    achieved setup throughput as the offered rate of single-packet flows
    sweeps past both systems' capacities. *)
module F_tput : sig
  type point = {
    offered_rate : float;
    difane : Flowsim.result;
    nox : Flowsim.result;
  }

  val run : ?seed:int -> ?quick:bool -> unit -> point list
  val render : point list -> string
end

(** Fig. "Throughput with multiple authority switches": peak setup
    throughput as authority switches scale 1→4 (near-linear). *)
module F_scale : sig
  type point = { authority_switches : int; throughput : float; per_switch : float }

  val run : ?seed:int -> ?quick:bool -> unit -> point list
  val render : point list -> string
end

(** Fig. "First-packet delay CDF": DIFANE's extra data-plane hop vs NOX's
    controller round trip, at low load. *)
module F_delay : sig
  type t = {
    difane_delays : Cdf.t;
    nox_delays : Cdf.t;
    difane_median : float;
    nox_median : float;
    ratio : float;  (** nox median / difane median *)
  }

  val run : ?seed:int -> ?quick:bool -> unit -> t
  val render : t -> string
end

(** Fig. "TCAM entries vs number of authority switches": partitioning
    overhead for each Table-1 rule set. *)
module F_part : sig
  type point = {
    label : string;
    k : int;
    max_entries : int;  (** biggest per-authority table *)
    total_entries : int;
    duplication : float;
  }

  val run : ?seed:int -> ?quick:bool -> unit -> point list
  val render : point list -> string
end

(** Fig. "Cache miss rate vs cache size": spliced wildcard caching vs
    microflow caching under Zipf traffic, both through the shipped
    ingress cache.  Gated: wildcard never misses more than microflow,
    OPT never more than wildcard LRU, and microflow misses over 1.5x
    wildcard at the largest cache. *)
module F_miss : sig
  type point = {
    alpha : float;
    cache_size : int;
    wildcard_miss_rate : float;
    wildcard_opt_miss_rate : float;  (** Belady floor for the same keys *)
    microflow_miss_rate : float;
  }

  val sweep :
    Classifier.t -> alpha:float -> cache_sizes:int list -> Header.t array -> point list
  (** Replay the packet stream (Zipf skew [alpha], for the record) into
      switch 0's ingress cache of a 4-switch line whose authorities are 1
      and 2, once per cache size and {!Deployment.config.cache_mode},
      with no timeouts: a packet the cache does not decide is a miss.
      OPT is Belady's replacement over the spliced pieces the packets
      hit in a cache too big to evict. *)

  val run : ?seed:int -> ?quick:bool -> unit -> point list
  val render : point list -> string
end

(** Fig. "Stretch CDF": the detour of miss packets through their authority
    switch under three placement strategies. *)
module F_stretch : sig
  type series = { placement : string; stretch : Cdf.t; mean : float; p95 : float }

  val run : ?seed:int -> ?quick:bool -> unit -> series list
  val render : series list -> string
end

(** Fig./§ "Network dynamics": after a policy change, how long stale
    cached decisions linger as a function of the cache idle timeout
    (lazy expiry), and that strict flushing removes them entirely. *)
module F_dyn : sig
  type mode =
    | Lazy_expiry  (** stale entries drain via their hard timeout *)
    | Strict_flush  (** the update flushes every reactive entry *)
    | Targeted  (** only entries spliced from changed rules are deleted *)

  type point = {
    timeout : float;  (** cache hard timeout: the lazy mode's staleness bound *)
    mode : mode;
    stale_packets : int;  (** packets served with the old policy's action *)
    post_update_packets : int;
    stale_fraction : float;
    stale_window : float;  (** time of last stale packet after the update *)
    invalidated : int;  (** cache entries removed by a targeted update *)
    preserved : int;  (** cache entries that survived a targeted update *)
  }

  val run : ?seed:int -> ?quick:bool -> unit -> point list
  val render : point list -> string
end

(** Ablation: the best-cut split heuristic vs always cutting one fixed
    dimension (an informed choice, src_ip, and a poor one, proto). *)
module A_cut : sig
  type point = {
    k : int;
    best_max : int;
    best_total : int;
    src_max : int;  (** always cutting src_ip — an informed fixed choice *)
    src_total : int;
    proto_max : int;  (** always cutting proto — a poor fixed choice *)
    proto_total : int;
  }

  val run : ?seed:int -> ?quick:bool -> unit -> point list
  val render : point list -> string
end

(** Ablation: spliced cache cost vs CacheFlow-style dependent-set cost,
    per cached rule, on a deep-chain ACL. *)
module A_splice : sig
  type t = {
    rules_sampled : int;
    splice_mean : float;
    splice_p95 : float;
    dependent_mean : float;
    dependent_p95 : float;
    worst_dependent : int;
    worst_splice : int;
  }

  val run : ?seed:int -> ?quick:bool -> unit -> t
  val render : t -> string
end

(** Supplementary: control-plane overhead of a DIFANE deployment — the
    proactive install cost, the steady-state keepalive/statistics load,
    and the cost of a full policy update, all measured in encoded control
    frames and bytes. *)
module E_ctrl : sig
  type row = { scenario : string; frames : int; bytes : int }

  val run : ?seed:int -> ?quick:bool -> unit -> row list
  val render : row list -> string
end

(** Supplementary: how the ingress cache budget shifts load off the
    authority switches — hit rate and authority-served misses as the
    cache size sweeps, under fixed Zipf traffic.  Each capacity now runs
    two arms on the identical workload: the seed install path and the
    aggregation pipeline ({!Aggregate.enabled_default}: subsumption
    suppression, buddy merging, cover sets), reporting the TCAM writes
    each needed and the hit rate each achieved. *)
module E_cache : sig
  type point = {
    cache_size : int;
    hit_rate : float;  (** fraction of packets served by ingress caches *)
    authority_load : float;  (** misses per offered packet *)
    evictions : int64;  (** LRU victims — capacity pressure only *)
    expirations : int64;  (** idle/hard timeouts — churn, counted apart *)
    installed_rules : int64;  (** cumulative TCAM writes, seed path *)
    agg_hit_rate : float;  (** hit rate with aggregation on *)
    agg_installed_rules : int64;  (** TCAM writes with aggregation on *)
    compression : float;
        (** 1 - aggregated/seed installs: fraction of writes saved *)
  }

  val run : ?seed:int -> ?quick:bool -> unit -> point list
  val render : point list -> string
end

val fault_cp_config : Control_plane.config
(** The fault sweeps' reliable-channel timers: 1 s echoes, retransmit
    after 50 ms doubling up to 8 attempts. *)

(** Supplementary: the chaos sweep — frame loss rate vs recovery.  Each
    point replays the same seeded scenario (two of three authority
    switches crash mid-run and later restart, traffic probes before,
    during and after) over control channels that drop, duplicate,
    corrupt and reorder frames at the given rate, and reports the
    failure-detection and resync-convergence times, the retransmission
    work, the degraded (controller-served) misses while no replica was
    alive, and whether the final state recovered exactly. *)
module E_chaos : sig
  type row = {
    loss : float;
    dropped : int;  (** frames lost in flight (injector + downed links) *)
    corrupted : int;
    decode_errors : int;
    retransmissions : int;
    giveups : int;
    detect_time : float;  (** crash -> declared dead (echo detection) *)
    converge_time : float;  (** last restart -> no pending requests *)
    degraded : int;  (** misses served by the controller fallback *)
    recovered : bool;  (** semantics intact and nothing pending at the end *)
  }

  val run :
    ?seed:int ->
    ?quick:bool ->
    ?cp_config:Control_plane.config ->
    unit ->
    (row * (float * string * string) list) list
  (** One run per loss point, each row with its control-plane timeline
      (as {!replay}'s).  [cp_config] (default {!fault_cp_config}) carries
      the reliable-channel timers the CLI's [--echo-interval]/[--retx-*]
      flags set.  Probes walk the untimed {!Deployment.inject}, so there
      is no queueing to configure: buffers and backpressure are
      {!E_incast}'s subject. *)

  val check : row list -> string list
  (** Violated fault-tolerance invariants, [[]] when all hold: per row,
      zero give-ups and full recovery. *)

  val render : row list -> string
end

(** Supplementary: the controller high-availability sweep.  One seeded
    scenario per loss rate: a 3-replica controller cluster deploys,
    two authority switches crash, and mid-way through pushing a policy
    update the leader process dies — a standby rebuilds the deployment
    from the shared journal (snapshot + replay) and takes over at epoch
    2.  After the switches restart and the crashed controller returns,
    the {e new} leader is partitioned away: the next election seats
    epoch 3 while the isolated leader keeps mastering until the
    switches' epoch fencing deposes it (split brain).  Reported per
    point: both takeover latencies, journal entries replayed and
    snapshots taken, the duplicate-install and stale-epoch audits (both
    must show zero accepted), fenced journal appends and degraded
    misses. *)
module E_ha : sig
  type row = {
    loss : float;
    dropped : int;
    retransmissions : int;
    giveups : int;
    takeover1 : float;  (** leader crash -> standby seated (s) *)
    takeover2 : float;  (** leader isolated -> next leader seated (s) *)
    replayed : int;  (** journal entries replayed across both takeovers *)
    snapshots : int;
    dup_installs : int;  (** duplicate ids across all switch banks; must be 0 *)
    stale_rejected : int;  (** stale-epoch frames the switches fenced *)
    stale_accepted : int;  (** fencing violations; must be 0 *)
    fenced_appends : int;  (** journal writes refused from stale leaders *)
    degraded : int;
    recovered : bool;
  }

  val run :
    ?seed:int ->
    ?quick:bool ->
    ?cp_config:Control_plane.config ->
    unit ->
    (row * ((float * string * string) list * string)) list
  (** As {!E_chaos.run}; each row also carries its run's encoded
      journal. *)

  val check : row list -> string list
  (** Violated HA invariants, [[]] when all hold: per row, zero
      give-ups, zero duplicate installs, zero stale-epoch acceptances
      and full recovery. *)

  val render : row list -> string

  val journal : seed:int -> quick:bool -> loss:float -> string
  (** The encoded journal one run at frame loss [loss] leaves behind. *)
end

(** Supplementary: the incast/overload sweep behind the congestion
    model.  Eight ingresses fan distinct-flow misses into a single
    authority switch over links that serialize one packet per 100 µs —
    the authority's inbound port and its setup queue saturate together
    near 10k flows/s.  Each offered rate replays the identical seeded
    workload twice: under drop-tail port buffers (misses shed at the
    full buffer) and under credit-based flow control (saturation
    backpressures the ingresses, which defer re-splicing and take the
    slower lossless controller path).  The loss-vs-latency curves are
    the tentpole's graceful-degradation evidence; [check] encodes the
    claims the [incast] gate enforces.  Not part of {!run_all} —
    it exercises the congestion model that every legacy experiment must
    run without. *)
module E_incast : sig
  type row = {
    offered_rate : float;  (** offered distinct-flow arrival rate, flows/s *)
    mode : string;  (** ["drop-tail"] or ["credit"] *)
    result : Flowsim.result;
  }

  val run : ?seed:int -> ?quick:bool -> unit -> row list

  val check : row list -> string list
  (** Graceful-degradation invariants at the sweep's top (saturating)
      rate: drop-tail actually shed at a port buffer, credit mode
      actually backpressured, and credit mode both dropped a strictly
      smaller fraction of flows and completed strictly more than
      drop-tail.  Returns the violated claims, [[]] when all hold. *)

  val render : row list -> string
end

(** Supplementary: flow-level monitoring on a skewed Zipf workload.  A
    star of edge switches feeds three authority switches through small
    ingress caches, so the hot rules' regions keep missing and the
    authority that owns them runs hot.  The run is monitored end to end
    ({!Monitor}): [difane monitor] reports the top heavy-hitter rules
    with their provenance chains (policy rule → partition → authority
    switch), dead rules, per-region cache efficacy, the per-authority
    load timeline and every hotspot window flagged.  The [monitor] entry
    of {!scenarios} prints that report in [difane all], gates it and
    replays it for [difane paths]. *)
module E_mon : sig
  val run_monitored :
    ?seed:int ->
    ?quick:bool ->
    alpha:float ->
    ?sample_rate:int ->
    ?interval:float ->
    ?threshold:float ->
    ?top_k:int ->
    unit ->
    Monitor.t * Flowsim.result
  (** One monitored run of the scenario — the hook [difane monitor]
      drives directly, with the monitor left full of the run's data.
      [alpha] is the Zipf skew of the steady traffic: [difane monitor]'s
      [--alpha] (1.0 by default, which the [monitor] entry uses). *)

  val render : ?hotspot_window:int -> Monitor.t * Flowsim.result -> string
  (** What [difane monitor] prints: after a blank line, the delivered
      packets and cache hit rate, {!Monitor.pp}, and the hotspots that
      persisted for [hotspot_window] (default 3) windows
      ({!Monitor.pp_persistent}). *)
end

(** Supplementary: closed-loop adaptive repartitioning under a flash
    crowd.  At t=3 s a sustained crowd confined to one flowspace region
    offers 1.5x its authority's setup capacity; the region's tail
    first-packet delay grows without bound.  Three runs of the identical
    seeded workload: a static baseline (no rebalancing, never recovers),
    an adaptive run (the cluster's hotspot detector re-cuts the hot
    region and migrates the split-off half via the staged journaled
    protocol; the tail drains back under 2x the pre-crowd baseline), and
    a master-crash run (the leader dies between the migration's flip and
    commit; the elected replica replays the journal and finishes the
    retirement with every gate still green).  [check] encodes the claims
    the [rebalance] gate enforces.  Not part of {!run_all}. *)
module E_rebalance : sig
  type row = {
    label : string;  (** ["static"], ["adaptive"] or ["adaptive+crash"] *)
    offered : int;
    completed : int;
    dropped : int;
    baseline_p99 : float;  (** pre-crowd window *)
    crowd_p99 : float;  (** during the crowd, before recovery *)
    final_p99 : float;  (** last window of the run *)
    recovered : bool;  (** [final_p99 < 2 * baseline_p99] *)
    migrations_started : int;
    migrations_committed : int;
    migrations_aborted : int;
    rules_moved : int;
    takeovers : int;
    violations : string list;  (** per-run invariant failures; [] = green *)
  }

  val run :
    ?seed:int ->
    ?quick:bool ->
    ?hotspot_threshold:float ->
    ?hotspot_window:int ->
    unit ->
    (row * ((float * string * string) list * string * (float * float) array)) list
  (** The three runs, each row with its cluster timeline, encoded
      journal and per-flow (start, delay) samples.  [hotspot_threshold]
      (default 2.0) and [hotspot_window] (default 3) are the adaptive
      controller's detection knobs ({!Control_plane.config}). *)

  val check : row list -> string list
  (** Violated claims across the three rows ([[]] when all hold): every
      per-run invariant and the static baseline {e not} recovering. *)

  val render : row list -> string
end

(** Supplementary: multicore ingress sharding at scale.  The network
    decomposes into independent authority stars (one per shard, no
    cross-shard links), each replaying its own seeded workload on its own
    engine via {!Flowsim.run_sharded}; the default spec offers over a
    million flows across 256 switches.  The decomposition is a function
    of the shard index alone and shards merge in index order, so the
    merged result — and hence {!E_scale.digest} — is byte-identical at
    any domain count.  Not part of {!run_all}; driven by [difane scale]
    and the [scale] gate. *)
module E_scale : sig
  type spec = {
    shards : int;
    spokes : int;  (** per-shard star spokes; switches = shards * (spokes + 1) *)
    flows_per_shard : int;
    domains : int;  (** worker domains for {!Flowsim.run_sharded} *)
  }

  val default_spec : spec
  (** 32 shards of 8 switches (256 switches), 32768 flows each
      (1,048,576 flows), one domain. *)

  val quick_spec : spec
  (** Small enough for unit tests (8 shards of 4 switches, 512 flows
      each), same decomposition shape. *)

  val switches : spec -> int

  val sized : quick:bool -> domains:int -> spec
  (** {!quick_spec} or {!default_spec}, run on [domains] workers. *)

  val run : ?seed:int -> spec -> Flowsim.result
  (** @raise Invalid_argument if [spec.spokes < 3] (a shard needs a hub,
      an authority and at least one ingress). *)

  val digest : Flowsim.result -> string
  (** Canonical fingerprint covering every result field including the raw
      per-flow sample arrays: two runs agree iff byte-identical. *)

  val check : ?floors:bool -> spec -> Flowsim.result -> string list
  (** Violated scale claims ([[]] when all hold): the spec's flow count
      was offered, no flow leaked, nonzero throughput, delays recorded —
      plus, with [floors] (the default), at least one million flows and
      200 switches.  Pass [~floors:false] for quick-spec runs. *)

  val render : spec -> Flowsim.result -> string
end

(** {1 The scenario table}

    Every experiment subcommand, every member of [difane all], every CI
    gate and every replay target of [difane paths], in one list. *)

type outcome = {
  report : string;  (** what the run prints *)
  failures : string list;  (** violated invariants; [[]] when all hold *)
  fingerprint : string;
      (** hex digest of the run's deterministic output; two runs agree iff
          it is byte-identical *)
}

(** One seeded run of a scenario, recorded by whichever tracing is on. *)
type replay_args = {
  seed : int;
  quick : bool;
  domains : int;  (** worker domains, for the sharded scenario *)
  loss : float;  (** control-frame loss, for the fault scenarios *)
  reliability : Control_plane.config;  (** reliable-channel timers, likewise *)
}

(** What one replay leaves for rendering beside the postcard rings. *)
type replay = {
  describe : (origin:int -> pid:int -> string option) option;
      (** the provenance join for path rendering, if the run has one *)
  timeline : (float * string * string) list;
      (** (simulated time, source, detail) control-plane events, in
          non-decreasing time; [[]] for a run without a control plane *)
}

(** An experiment's report, by the options it takes beyond seed and
    quick; each becomes that subcommand's flags. *)
type render =
  | Plain of (seed:int -> quick:bool -> string)
  | Faults of (seed:int -> quick:bool -> cp_config:Control_plane.config -> string)
      (** the reliable-channel timers *)
  | Sharded of (seed:int -> quick:bool -> domains:int -> string)
  | Hotspot of
      (seed:int -> quick:bool -> hotspot_threshold:float -> hotspot_window:int -> string)
      (** the adaptive controller's detection knobs *)

type scenario = {
  name : string;  (** subcommand, gate and replay name *)
  doc : string;
  render : render option;  (** the experiment subcommand's report *)
  all : (seed:int -> quick:bool -> string) option;
      (** the report [difane all] prints, every option at its default *)
  gate : (seed:int -> quick:bool -> domains:int -> outcome) option;
      (** the CI gate; scenarios that do not shard ignore [domains] *)
  replay : (replay_args -> replay) option;  (** one traced run *)
}

val scenarios : scenario list
(** Reports in DESIGN.md order, the [difane all] members ([table1] …
    [cache-sweep], [chaos], [ha]) first, then [incast], [rebalance],
    [scale], the path gates, [aggregate] and last [monitor], also a
    member of [difane all].  Gates: [missrate], [chaos], [ha], [incast],
    [rebalance], [scale], [paths-chaos], [paths-rebalance], [paths-scale],
    [aggregate], [monitor].  Replays: [chaos], [ha], [rebalance], [scale], [monitor].
    The [chaos], [ha] and [rebalance] fingerprints cover the report and
    every run's trace ({!E_chaos.run}, {!E_ha.run}, {!E_rebalance.run}),
    so {!run_gate}'s second run must reproduce both. *)

val run_all : ?seed:int -> ?quick:bool -> (string -> unit) -> unit
(** [run_all print] passes [print] the report of every [difane all]
    member, in table order, each with its options at their defaults. *)

val replay_args : seed:int -> quick:bool -> replay_args
(** One domain, the 10% loss point, {!fault_cp_config}. *)

val run_gate :
  ?print:(string -> unit) ->
  scenario ->
  seed:int ->
  quick:bool ->
  domains:int ->
  string list
(** Run [s]'s gate twice, at one domain and then at [domains] (for a
    scenario that does not shard, a plain seeded replay), each from a
    reset telemetry registry.  [print]s (default stdout) the first run's
    report and a one-line verdict, and returns every failure either run
    reported plus a fingerprint divergence between them; [[]] means the
    gate holds.
    @raise Invalid_argument if [s] has no gate. *)
