(** Flow-level discrete-event simulation of DIFANE and the NOX baseline.

    Replays a {!Traffic.flow} workload against a deployed network with
    explicit capacity models:

    {ul
    {- {b DIFANE}: cache hits and already-cached flows forward at line rate
       (not modelled as a bottleneck); each {e miss} consumes one
       flow-setup slot at its authority switch — a FIFO {!Server} per
       authority with service time [authority_service].  Misses arriving
       to a full authority queue are lost (as in the paper's overload
       runs).}
    {- {b NOX}: each miss consumes a slot at the single controller server
       ([controller_service]) and pays the control-channel RTT.}}

    The timing defaults follow the paper's prototype numbers: an authority
    switch sustains ~800K flow setups/s (Click data plane), the controller
    ~50K/s, the controller RTT ~10 ms, data-plane link latencies come from
    the topology. *)

type timing = {
  authority_service : float;  (** seconds per miss at an authority switch *)
  controller_service : float;  (** seconds per packet-in at the controller *)
  controller_rtt : float;
  queue_capacity : int;  (** backlog bound per server *)
  install_latency : float;
      (** delay between an authority serving a miss and the cache rule
          becoming active at the ingress switch (flow-mod propagation +
          table update).  Packets of the flow arriving inside this window
          still miss — the paper's in-flight-setup effect.  0 models the
          Click prototype's in-memory tables; hardware TCAMs are
          milliseconds. *)
}

val default_timing : timing
(** 1.25 µs authority service, 20 µs controller service, 10 ms RTT,
    queue 2000, instantaneous installs. *)

(** One typed value for everything that parameterises a simulation run —
    the single argument surface replacing the sprawl of optional
    arguments ([?timing ?faults ?monitor ?controller ...]) plus the
    congestion config that used to ride in on the deployment alone.
    Build with record update on {!Config.default}:
    [{ Config.default with timing; domains = 4 }]. *)
module Config : sig
  type t = {
    timing : timing;
    faults : Fault.plan option;
        (** scheduled crash/flap events + lossy install fabric *)
    monitor : Monitor.t option;
        (** offered every packet at simulated time; finished at drain *)
    congestion : Congestion.config option;
        (** [Some c] overrides the deployment's congestion config for
            this run; [None] uses the deployment's own *)
    controller : (now:float -> unit) option;
        (** live control-loop co-simulation hook *)
    controller_interval : float;  (** tick period, seconds *)
    domains : int;
        (** worker domains for {!run_sharded}; {!run} requires [1] *)
  }

  val default : t
  (** [default_timing], no faults, no monitor, deployment's congestion,
      no controller (10 ms interval), one domain. *)
end

type authority_stat = {
  switch_id : int;
  misses_served : int;  (** misses this authority's setup server completed *)
  misses_rejected : int;  (** misses lost to its full setup queue *)
}

type result = {
  offered_flows : int;
  completed_flows : int;  (** first packet delivered *)
  dropped_flows : int;  (** lost to a full setup queue *)
  delivered_packets : int;
  cache_hit_packets : int;
  duration : float;  (** makespan: last delivery - first arrival *)
  setup_throughput : float;
      (** completed flows over the {e arrival} window, so in-flight tails
          past the last arrival do not deflate the rate *)
  first_packet_delay : Summary.t option;  (** None when nothing completed *)
  delays : float array;  (** raw per-flow first-packet delays *)
  flow_delays : (float * float) array;
      (** [(flow start, first-packet delay)] per completed flow — lets a
          caller bucket tail latency by simulated time (e.g. p99 before
          vs after a flash crowd) instead of only end-of-run aggregates *)
  miss_delays : float array;
      (** first-packet delays of flows whose first packet required setup —
          the paper's flow-setup RTT *)
  stretches : float array;  (** per-miss path stretch (DIFANE only) *)
  authority_stats : authority_stat list;
      (** per-authority-switch miss-service tallies, ascending by
          [switch_id], DIFANE only — verifies the load balance behind
          the scaling figure *)
  degraded_packets : int;
      (** packets served through the controller fallback because no
          replica of their partition was alive (fault runs only) *)
  install_drops : int;
      (** cache-install messages lost to the fault plan's lossy fabric;
          the affected flow keeps missing until a later packet
          retriggers the install *)
  outage_drops : int;
      (** packets that needed the degraded controller path while {e every}
          controller replica was down ([Controller_crash] events) — the
          one combination DIFANE cannot survive, reported separately *)
  queue_drops : int;
      (** packets shed by a finite per-port buffer (drop-tail), summed
          over every port — 0 unless the deployment config enables the
          congestion model (DIFANE only) *)
  ecn_marks : int;
      (** packets forwarded with congestion-experienced marks (queue
          depth at or past the ECN threshold) *)
  backpressured : int;
      (** misses the credit-based flow control deferred to the controller
          path because their authority's shared credit pool had drained
          to the low-water mark — DIFANE's graceful-degradation
          alternative to shedding the miss at a full buffer *)
}

val run : Config.t -> Deployment.t -> Traffic.flow list -> result
(** Replay the workload against a DIFANE deployment under one config.
    Switch state (caches, counters) is mutated — build a fresh deployment
    per run.

    With a monitor, every packet entering the network is offered to the
    monitor's flow sampler as it fires (simulated time), and the monitor
    is {!Monitor.finish}ed when the event queue drains — after the run
    its reports cover exactly this workload.

    With faults, the plan's scheduled events drive the data-plane
    reachability model (crash/link-down marks the switch unreachable,
    restart/link-up restores it), each cache-install message is dropped
    with the plan's link drop probability (deterministically, from the
    plan's seed), and misses with no live replica take the degraded
    controller path — [controller_rtt/2] up, a [controller_service]
    slot, [controller_rtt/2] back, with an exact-match entry installed
    at the ingress — instead of being lost.  [Controller_crash] /
    [Controller_restart] events track how many of the plan's
    [controllers] replicas are up: while none is, degraded misses are
    dropped and counted in [outage_drops].

    With a controller hook, the callback runs at every
    [controller_interval] boundary the simulation clock crosses, called
    with the boundary time — the deterministic co-simulation hook that
    lets a live {!Control_plane} (or {!Cluster}) tick against the same
    deployment the packets are walking, e.g. for closed-loop adaptive
    rebalancing.  Boundaries are caught up lazily at the next packet
    event, and once more when the event queue drains.

    @raise Invalid_argument if [domains <> 1] — parallel execution needs
    per-shard deployments; use {!run_sharded}. *)

val run_sharded :
  Config.t ->
  shards:int ->
  deployment:(int -> Deployment.t) ->
  flows:(int -> Traffic.flow list) ->
  result
(** Run [shards] independent single-engine simulations — shard [i] gets
    [deployment i] and replays [flows i] — spread over
    [min Config.domains shards] OCaml domains, and merge the results.

    Determinism contract: the shard decomposition is a function of the
    shard index alone, shards are merged strictly in shard-index order
    (counters sum, extrema min/max, sample arrays concatenate, authority
    tallies sum per switch id), and registry mirroring uses only
    commutative atomic operations — so a same-seed run is byte-identical
    at {e any} domain count, including [domains = 1].  The callbacks run
    on worker domains: they must touch only shard-local state (building a
    fresh deployment and workload from a per-shard seed is the intended
    shape).

    @raise Invalid_argument if [shards < 1], or if the config carries
    faults, a monitor, or a controller hook — those are cross-shard
    global state and require a single-domain {!run}. *)

val run_nox : ?timing:timing -> Nox.t -> Traffic.flow list -> result
(** Replay against the reactive baseline. *)

val saturation_throughput :
  ?timing:timing ->
  mode:[ `Difane of unit -> Deployment.t | `Nox of unit -> Nox.t ] ->
  workload:(rate:float -> Traffic.flow list) ->
  rates:float list ->
  unit ->
  (float * result) list
(** Sweep offered flow-arrival rates and report the achieved setup
    throughput at each — the paper's throughput-vs-sending-rate curve.
    Fresh network state is built for every rate via the thunks. *)
