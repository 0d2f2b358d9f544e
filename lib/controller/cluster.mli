(** Replicated DIFANE controllers.

    A cluster of [controllers] replicas shares one write-ahead
    {!Journal}.  At any time exactly one replica — the {e leader} —
    masters the network through a {!Control_plane}; the rest are
    standbys exchanging heartbeats with it over their own (faultable)
    channels.  When a standby misses enough heartbeats it starts an
    election: the lowest-id live, connected replica wins, the cluster
    epoch increments, and the winner rebuilds the leader's exact
    deployment by decoding the journal and replaying every entry through
    the same deployment code the old leader ran, adopts the physical
    switches into it ({!Deployment.adopt}), and re-pushes the
    configuration reliably.

    Split brain is prevented by {e epoch fencing}: every control frame
    carries its sender's epoch, switches reject stale-epoch masters
    (acking with their current epoch so the deposed leader learns it
    lost), and journal appends from a superseded leader are refused
    ({!fenced_appends}).  Because the re-push rides the xid-idempotent
    reliable channel onto replace-by-id switch banks, a takeover
    installs nothing twice — {!duplicate_installs} audits that.

    The cluster owns the fault plan's event schedule: switch and link
    events are forwarded to the live control plane (and physical truth
    is re-seeded into each new leader's), controller crash/restart
    events flip replicas up and down. *)

type t

type config = {
  controllers : int;  (** replicas (>= 1); replica 0 leads initially *)
  snapshot_every : int;
      (** compact the journal when its tail grows past this many entries *)
  cp : Control_plane.config;
}

val default_config : config
(** 3 controllers, snapshot every 64 entries,
    {!Control_plane.default_config} underneath.  Replicas heartbeat every
    150 ms; a standby that misses 3 in a row starts an election. *)

val create :
  ?config:config ->
  ?faults:Fault.plan ->
  ?dconfig:Deployment.config ->
  policy:Classifier.t ->
  topology:Topology.t ->
  authority_ids:int list ->
  unit ->
  t
(** Build the initial deployment (uninstalled), journal it, and seat
    replica 0 as leader at epoch 1.  Nothing is transmitted yet — call
    {!push_deployment} at simulation start, then {!tick} periodically.
    With [faults], every controller↔switch channel and every heartbeat
    channel gets its own deterministic fault stream from the plan, and
    the plan's events fire during {!tick}. *)

val push_deployment : t -> now:float -> unit
val update_policy : t -> now:float -> ?strict:bool -> Classifier.t -> unit

val tick : t -> now:float -> unit
(** Advance the cluster: fire due fault events, exchange heartbeats, run
    failure detection (possibly electing a new leader and rebuilding),
    tick the leading control plane and every retired one (deposed/halted
    masters keep draining their in-flight frames so the switches can
    fence them), and compact the journal when due. *)

val isolate : t -> now:float -> int -> bool -> unit
(** Partition controller [c] away from (or, with [false], back into) the
    control network: it stops sending and hearing heartbeats.  An
    isolated leader keeps mastering until the switches fence it — the
    split-brain scenario the E-HA experiment exercises. *)

(** {1 Observation} *)

val leader : t -> int
val epoch : t -> int
val leader_cp : t -> Control_plane.t
val deployment : t -> Deployment.t
val journal : t -> Journal.t

val takeovers : t -> int
val takeover_latencies : t -> float list
(** Per takeover: seconds from the moment the leader was lost (crash or
    isolation) to the standby seating itself, in takeover order. *)

val entries_replayed : t -> int
(** Journal entries replayed across all takeovers. *)

val snapshots : t -> int
val fenced_appends : t -> int
(** Journal writes refused because the appending leader's epoch had been
    superseded. *)

val stale_rejected : t -> int
(** Stale-epoch control frames the switches refused, summed. *)

val stale_accepted : t -> int
(** Stale-epoch frames applied anyway — the fencing invariant is that
    this is always 0. *)

val duplicate_installs : t -> int
(** Duplicate ids across every switch's partition bank, authority tables
    and cache TCAM — the split-brain/re-push audit; must be 0. *)

val retransmissions : t -> int
val giveups : t -> int
val pending_requests : t -> int
val stats : t -> Control_plane.stats
(** Loss counters aggregated over every control plane this cluster has
    seated (current leader and retired masters alike). *)

val cluster_log : t -> (float * string) list
(** Timestamped elections, crashes, snapshots and fencing records, in
    time order — with the leader's {!Control_plane.timeline}, the
    replayable trace a seeded run reproduces exactly. *)

val timeline : t -> (float * string * string) list
(** {!cluster_log} (source ["cluster"]) merged with the
    {!Control_plane.timeline} of every control plane this cluster ever
    seated, retired masters included, stably sorted by simulated time. *)
