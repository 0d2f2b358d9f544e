(** The controller's runtime control plane.

    Wraps a {!Deployment} with per-switch {!Channel}s and drives the
    live duties the paper gives the DIFANE controller beyond initial rule
    placement:

    - {b liveness}: periodic echo requests; a switch that misses enough
      replies is declared failed, triggering authority failover;
    - {b statistics}: periodic cache-bank stats polling, aggregated back
      to {e original policy rule ids} so per-rule counters survive
      splicing and eviction (the transparency property);
    - {b cache management}: explicit deletion of cache entries by origin
      rule (used by strict policy updates);
    - {b reliability}: every state-changing request (flow-mod, barrier,
      partition transfer) is xid-tracked and retransmitted with
      exponential backoff until the switch acknowledges it.  Paired with
      the switch side's per-xid idempotency, installs converge over
      channels that drop, duplicate, corrupt and reorder frames;
    - {b recovery}: scheduled {!Fault.event}s (crash/restart, link flap)
      are applied during {!tick}; a restarted switch is resynced from
      scratch and, if failover had demoted it, rejoins the authority
      pool.

    All traffic crosses the channels encoded, so the byte/frame counters
    here are the control-plane overhead of the deployment. *)

type t

val channel_latency : float
(** One-way controller↔switch latency (1 ms), also used for the
    inter-controller channels of a {!Cluster}. *)

type config = {
  echo_interval : float;
  stats_interval : float;
  rebalance_interval : float option;
      (** when set, adaptive load rebalancing (paper §5, automated):
          each window of this length runs the hotspot detector over the
          measured miss load, and a persistent hotspot triggers a staged,
          journaled sub-region migration (re-cut the hot region, move the
          split-off half to the least-loaded authority; when the hot
          region has no productive cut, re-place whole partitions on
          measured load instead).  [None] (the default) never
          rebalances. *)
  retx_timeout : float;  (** first retransmission after this long unacked *)
  retx_backoff : float;  (** interval multiplier per retransmission *)
  retx_limit : int;  (** retransmissions before giving a request up *)
  hotspot_threshold : float;
      (** an authority is hot in a window by {!Hotspot.hot} at this
          multiple of fair share (default 2.0; {!create} raises
          [Invalid_argument] unless > 1.0) *)
  hotspot_window : int;
      (** consecutive hot windows before a migration triggers (default 3) *)
  migration_step : float;
      (** seconds between migration stages (install → flip → commit) —
          long enough for the previous stage's reliable installs to be
          acknowledged (default 0.05) *)
}

val default_config : config
(** 1 s echoes, 5 s stats, retransmit after 100 ms doubling up to 6
    attempts; rebalancing off (threshold 2.0, window 3, 50 ms stages
    when on). *)

val migration_active : t -> bool
(** A staged migration is in flight (begun, not yet committed/aborted).
    The cluster defers snapshot compaction while true — the compacted
    history must not straddle an unresolved migration. *)

val migrations_started : t -> int
val migrations_committed : t -> int
val migrations_aborted : t -> int

val rules_moved : t -> int
(** Authority-table rules shipped to migration destinations so far. *)

val finish_inherited_migration : t -> now:float -> unit
(** Takeover resolution: when the deployment this plane was created over
    has a migration in flight ({!Deployment.migration}, replayed from a
    crashed leader's journal), abort it if it never flipped and commit it
    if it did — the same journal-then-{!Deployment.apply} step as a live
    commit or abort, without the [Drop_partition] sends.  Called by
    {!Cluster.elect}. *)

val create :
  ?config:config ->
  ?faults:Fault.plan ->
  ?epoch:int ->
  ?journal:(at:float -> Journal.entry -> unit) ->
  ?channel_offset:int ->
  ?demoted:int list ->
  ?presumed_dead:int list ->
  ?next_mid:int ->
  Deployment.t ->
  t
(** Attaches every switch of the deployment ({!Switch.attach}), so their
    flow-removed notifications queue for {!tick} to forward.

    With [faults], every channel gets its own deterministic fault stream
    from the plan (switch [i]'s controller→switch channel is fault
    channel [channel_offset + 2i], the reverse direction
    [channel_offset + 2i + 1]) and the plan's scheduled events fire
    during {!tick} (controller crash/restart events are ignored — they
    are the {!Cluster}'s business).

    The remaining options serve replicated controllers:
    - [epoch] (default 0 = unfenced) is stamped on every outgoing frame;
    - [journal] receives a {!Journal.entry} for every state-changing
      decision (liveness verdicts, failovers, restorations, policy
      updates, rebalances, migration stages), written before the
      decision is applied with {!Deployment.apply} — the cluster passes
      a fenced appender;
    - [demoted] and [presumed_dead] seed the failover bookkeeping when a
      standby takes over from a rebuilt deployment: [presumed_dead]
      switches start declared-dead (the echo machinery keeps probing
      them, so a live one recovers), [demoted] ones rejoin the authority
      pool when they answer again;
    - [next_mid] seeds migration-id allocation above every mid the
      journal already holds, keeping mids unique across takeovers. *)

val deposed : t -> bool
(** A reply frame carried an epoch above our own: a newer master exists.
    A deposed control plane stops mastering — {!tick} only drains
    channels (in-flight frames still deliver and get fenced switch-side),
    sends nothing, and runs no failure detection. *)

val demoted_authorities : t -> int list
(** Authorities failed over away from and not yet restored (sorted) —
    with {!failed_switches}, the state a standby needs to seed
    [demoted]/[presumed_dead] at takeover. *)

val halt : t -> now:float -> (int -> string) -> unit
(** Stop mastering: drop every pending request and log the line the
    function renders from the number dropped.  {!tick} calls it when a
    reply shows a newer epoch (deposed); the cluster calls it when the
    controller process crashes.  Frames already on the wire still
    deliver during subsequent {!tick}s (the cluster keeps ticking a
    halted control plane as pure transport).  A no-op once stopped. *)

val deployment : t -> Deployment.t
(** The current deployment (changes after failover). *)

val push_deployment : t -> now:float -> unit
(** Transmit the deployment's entire configuration over the control
    channels as encoded messages: every switch gets its partition rules
    as staged flow-mods closed by a barrier, and each authority replica
    gets its tables as [Install_partition] transfers.  The switches apply
    everything as the frames arrive (during subsequent {!tick}s).  This
    is the message-driven equivalent of [Deployment.build]'s direct
    installation — pair it with [Deployment.build ~install:false].  All
    of it is sent reliably (tracked + retransmitted). *)

val tick : t -> now:float -> unit
(** Advance the control plane to [now]: fire due fault events, emit due
    echoes and stats requests, deliver due frames in both directions,
    process replies, run failure detection (possibly failing over
    authorities), and retransmit unacknowledged requests.  Call it
    periodically from the simulation loop; it is idempotent within a
    tick period.
    @raise Invalid_argument if [now] is below the previous tick's: the
    control plane's clock never runs back. *)

val rule_counters : t -> (int * int64) list
(** Packets per original policy rule id, as of the last stats
    collection, aggregated over every switch's cache bank. *)

val failed_switches : t -> int list
(** Switches declared dead so far (in failure order). *)

val update_policy : t -> now:float -> ?strict:bool -> Classifier.t -> unit
(** A journaled decision like every other: the [Policy_update] entry is
    written, then applied by {!Deployment.apply}, which installs it
    through {!Deployment.update_policy}: the layout
    is kept and the changed tables patched in place when no predicate
    changed, and re-partitioned otherwise.  With [strict] (default)
    every cache entry spliced from a changed rule (the deployment's id
    diff, {!Deployment.last_update}) is then deleted via reliable
    flow-mods ({!delete_cached_origins}), so the strict-consistency
    guarantee holds even when the deletions race a lossy channel or an
    authority failover.  The timeline records the number of changed
    rules and the path taken. *)

val delete_cached_origins : t -> now:float -> int list -> int
(** Send cache-bank deletions for every cached piece spliced from any of
    these distinct policy rule ids, to every switch not declared dead;
    returns deletions sent.  One walk over each switch's cache
    provenance finds them ({!Deployment.cache_entries_of_origins}); they
    go out by id, then switch, then table order, and a merged entry
    standing for several of the ids is deleted once for each.  This is
    the targeted invalidation used by strict policy updates. *)

val control_frames : t -> int
val control_bytes : t -> int
(** Total control-plane traffic so far, both directions. *)

(** {1 Faults and reliability} *)

type stats = {
  dropped : int;  (** frames the fault injector swallowed *)
  duplicated : int;
  corrupted : int;
  reordered : int;
  decode_errors : int;  (** frames discarded at decode (corruption) *)
  link_dropped : int;  (** frames killed by an administratively-down link *)
}

val stats : t -> stats
(** Loss counters aggregated over every channel in both directions.
    Every underlying increment also bumps the process-wide registry
    ([channel_*], [ctrl_*]), so {!Telemetry.snapshot} agrees. *)

val sum_stats : t list -> stats
(** {!stats} summed over several control planes (a cluster's current
    and retired leaders). *)

val retransmissions : t -> int
val giveups : t -> int
(** Requests abandoned after [retx_limit] retransmissions. *)

val pending_requests : t -> int
(** Requests still awaiting acknowledgement — 0 once installs converge. *)

val in_flight : t -> int
(** Frames sitting on this control plane's channels in either direction
    (sent but not yet polled). *)

val timeline : t -> (float * string * string) list
(** Timestamped record of fault events, failovers, give-ups and
    recoveries, in time order — the replayable event sequence a seeded
    run reproduces exactly — as [(simulated time, "control", detail)]
    entries, the form replay timelines print. *)

val crash_switch : t -> now:float -> int -> unit
(** The device dies losing all state ({!Switch.reset}); tunnelled misses
    to it start failing immediately.  Failure detection will declare it
    dead after 3 missed echoes (triggering authority failover) unless it
    restarts first. *)

val restart_switch : t -> now:float -> int -> unit
(** The device comes back blank: liveness state clears, it rejoins the
    authority pool if failover had demoted it, and the controller
    re-pushes its whole configuration reliably (state resync). *)

val set_link : t -> now:float -> int -> bool -> unit
(** Administratively flap the control link: while down, frames already
    in flight and new sends in both directions are dropped (and
    counted); the data plane is unaffected. *)

val kill_switch : t -> int -> unit
(** Test hook: the device stops responding to control messages (its
    data plane may keep running on stale state).  Failure detection will
    notice after 3 missed echoes. *)
