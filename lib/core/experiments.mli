(** The paper's evaluation as one scenario table.

    Each entry of {!scenarios} reproduces one table or figure of
    {e Scalable Flow-Based Networking with DIFANE} (SIGCOMM 2010), or one
    supplementary experiment, on the simulated substrate (DESIGN.md §2,
    §4).  Every run is deterministic in its seed; [quick] shrinks the
    workloads.  The submodules export only what the CLI, the examples,
    the benchmarks and the tests read beyond the table. *)

val nox_baseline : policy:Classifier.t -> topology:Topology.t -> unit -> Deployment.t
(** The reactive-controller (NOX/Ethane) baseline of the timing figures:
    a default-config deployment whose one authority switch, 1, is
    unreachable, so every ingress miss takes the controller path
    ({!Deployment.controller_serve}).  Replay it with {!Flowsim.run}; no
    flow may enter at switch 1, whose own bank would answer the miss. *)

val fault_cp_config : Control_plane.config
(** The fault sweeps' reliable-channel timers: 1 s echoes, retransmit
    after 50 ms doubling up to 8 attempts. *)

(** F-MISS: spliced wildcard vs microflow caching under Zipf traffic. *)
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
      with no timeouts.  OPT is Belady's replacement over the spliced
      pieces the packets hit in a cache too big to evict. *)
end

(** E-CHAOS: frame loss vs recovery through two authority crashes. *)
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

  val check : row list -> string list
  (** Violated invariants, [[]] when all hold: per row, zero give-ups
      and full recovery. *)
end

(** E-HA: leader failover by journal replay, then split-brain fencing,
    in a 3-replica controller cluster. *)
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
    dup_installs : int;  (** duplicate ids across all switch banks *)
    stale_rejected : int;  (** stale-epoch frames the switches fenced *)
    stale_accepted : int;  (** fencing violations *)
    fenced_appends : int;  (** journal writes refused from stale leaders *)
    degraded : int;
    recovered : bool;
  }

  val check : row list -> string list
  (** Violated invariants, [[]] when all hold: per row, zero give-ups,
      duplicate installs and stale-epoch acceptances, and full recovery. *)

  val journal : seed:int -> quick:bool -> loss:float -> string
  (** The encoded journal one run at frame loss [loss] leaves behind. *)
end

(** E-MON: flow-level monitoring of a skewed Zipf workload. *)
module E_mon : sig
  val run_monitored :
    ?seed:int -> ?quick:bool -> alpha:float -> ?sample_rate:int -> ?interval:float ->
    ?threshold:float -> ?top_k:int -> unit -> Monitor.t * Flowsim.result
  (** One monitored run, the monitor left full of its data: what
      [difane monitor] drives.  [alpha] is the steady traffic's Zipf skew
      (the [monitor] entry uses 1.0). *)

  val render : ?hotspot_window:int -> Monitor.t * Flowsim.result -> string
  (** What [difane monitor] prints: after a blank line, delivered packets
      and cache hit rate, {!Monitor.pp}, and the hotspots that persisted
      for [hotspot_window] (default 3) windows. *)
end

(** E-SCALE: independent authority stars, one per shard, replayed by
    {!Flowsim.run_sharded}; byte-identical at any domain count. *)
module E_scale : sig
  type spec = {
    shards : int;
    spokes : int;  (** per-shard star spokes; switches = shards * (spokes + 1) *)
    flows_per_shard : int;
    domains : int;  (** worker domains for {!Flowsim.run_sharded} *)
  }

  val quick_spec : spec
  (** 8 shards of 4 switches, 512 flows each, one domain. *)

  val run : ?seed:int -> spec -> Flowsim.result
  (** @raise Invalid_argument if [spec.spokes < 3]. *)

  val digest : Flowsim.result -> string
  (** Covers every result field, the per-flow sample arrays included:
      two runs agree iff byte-identical. *)

  val check : ?floors:bool -> spec -> Flowsim.result -> string list
  (** Violated claims, [[]] when all hold: the spec's flows offered, none
      leaked, nonzero throughput, delays recorded; with [floors] (the
      default) also ≥ 1M flows and ≥ 200 switches. *)
end

(** {1 The scenario table} *)

type outcome = {
  report : string;  (** what the run prints *)
  failures : string list;  (** violated invariants; [[]] when all hold *)
  fingerprint : string;  (** hex digest of the run's deterministic output *)
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
          non-decreasing time; [[]] without a control plane *)
}

(** A report, by the options it takes beyond seed and quick; each
    becomes a flag of that subcommand. *)
type render =
  | Plain of (seed:int -> quick:bool -> string)
  | Faults of (seed:int -> quick:bool -> cp_config:Control_plane.config -> string)
  | Sharded of (seed:int -> quick:bool -> domains:int -> string)
  | Hotspot of
      (seed:int -> quick:bool -> hotspot_threshold:float -> hotspot_window:int -> string)

type scenario = {
  name : string;  (** subcommand, gate and replay name *)
  doc : string;
  render : render option;  (** the experiment subcommand's report *)
  all : (seed:int -> quick:bool -> string) option;
      (** the report [difane all] prints, every option at its default *)
  gate : seed:int -> quick:bool -> domains:int -> outcome;
      (** the CI gate; scenarios that do not shard ignore [domains] *)
  replay : (replay_args -> replay) option;  (** one traced run *)
}

val scenarios : scenario list
(** Every experiment subcommand, [difane all] member, CI gate and
    [difane paths] replay target, in DESIGN.md order: the paper figures
    [table1] … [cache-sweep], [chaos] and [ha], then [incast],
    [rebalance], [scale], the path gates, [aggregate] and [monitor].
    Every entry is a gate.  A paper figure's gate holds its shape
    claims, and its fingerprint is its report; the [chaos], [ha] and
    [rebalance] fingerprints also cover every run's trace. *)

val run_all : ?seed:int -> ?quick:bool -> (string -> unit) -> unit
(** [run_all print] passes [print] the report of every [difane all]
    member, in table order, each with its options at their defaults. *)

val replay_args : seed:int -> quick:bool -> replay_args
(** One domain, the 10% loss point, {!fault_cp_config}. *)

val run_gate :
  ?print:(string -> unit) -> scenario -> seed:int -> quick:bool -> domains:int -> string list
(** Run [s]'s gate twice, at one domain and then at [domains], each from
    a reset telemetry registry.  [print]s (default stdout) the first
    run's report and a one-line verdict, and returns every failure either
    run reported plus a fingerprint divergence between them; [[]] means
    the gate holds. *)
