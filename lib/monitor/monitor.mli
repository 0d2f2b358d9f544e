(** The flow-level observability facade: one object that watches a
    {!Deployment} while a simulation drives packets through it, and
    afterwards answers the questions the registry's end-of-run totals
    cannot:

    - {b which flows} — sampled NetFlow-style records ({!Flow_records});
    - {b which rules} — heavy-hitter / dead-rule attribution built from
      the provenance pair [(origin rule, serving partition)] that the
      switches thread from policy rule through authority table into
      every installed cache rule;
    - {b when} — the per-authority load timeline: each authority's
      cumulative misses served, sampled by the {!Sampler} from the
      switch's own counter (the one the adaptive rebalancer reads);
    - {b where it hurts} — authority {!Hotspot} events from that
      timeline.

    Wire-up is two calls: {!observe_packet} on every packet entering the
    network (the simulators do this when given [?monitor]) and {!finish}
    once the run ends.  Reports are deterministic: for a fixed seed the
    JSON is bit-identical across runs. *)

type config = {
  flow : Flow_records.config;
  interval : float;  (** sampler boundary spacing, simulated seconds *)
  capacity : int;  (** ring capacity per sampled series *)
  threshold : float;  (** {!Hotspot.hot} threshold, × fair share *)
  top_k : int;  (** heavy hitters reported by default *)
}

val default_config : config
(** 1-in-1 sampling, 0.05 s interval, 1024-point rings, 1.5× threshold,
    top 10. *)

type t

val create : ?config:config -> Deployment.t -> t
(** Start watching [d]: tracks every authority switch's served misses
    ({!Switch.stats}[.authority_hits]) counted from now, so misses served
    before [create] stay out of the timeline. *)

val flow_records : t -> Flow_records.t

val observe_packet : t -> now:float -> ingress:int -> Header.t -> unit
(** Feed one packet: samples it into the flow cache and lets the
    sampler catch up any crossed boundaries. *)

val finish : t -> now:float -> unit
(** End of run: flush the flow cache, close the sampler tail. *)

(** {1 Rule attribution} *)

type rule_report = {
  rule_id : int;
  priority : int;
  partitions : (int * int) list;
      (** provenance chain tail: [(pid, authority switch)] for every
          partition holding a clip of this rule *)
  cache_hits : int64;  (** packets matched by cache rules spliced from it *)
  authority_hits : int64;  (** packets answered from authority tables *)
}

val rule_total : rule_report -> int64

val describe_provenance : t -> origin:int -> pid:int -> string option
(** Decode a packed provenance pair (as carried by {!Ptrace.Cache_hit}
    and {!Ptrace.Install} postcards) into the human-readable chain
    [rule <id> prio <p> -> pid <pid> @ authority <switch>].  [None] when
    both components are unknown ([-1]); retired pids and deleted rules
    are marked rather than dropped. *)

val heavy_hitters : ?k:int -> t -> rule_report list
(** Policy rules by descending total hits (ties: ascending id), top [k]
    (default [config.top_k]); zero-hit rules excluded. *)

(** {1 Timelines and hotspots} *)

val authority_series : t -> (int * Sampler.point array) list
(** Misses served per authority switch since {!create}, at each sampler
    boundary, ascending switch id. *)

val hotspots : t -> Hotspot.event list
(** Every hot window: {!Hotspot.detect} over {!authority_series} with
    the config's threshold. *)

val persistent_hotspots : ?windows:int -> t -> Hotspot.event list
(** Only switches hot for at least [windows] (default 3) consecutive
    windows — the offline view of the streak that triggers an adaptive
    migration. *)

(** {1 Reports} *)

val pp_persistent : windows:int -> Format.formatter -> t -> unit
(** The {!persistent_hotspots} section: the streak view the adaptive
    rebalancer would act on. *)

val to_json : t -> string
(** Everything above as one [difane-monitor-v1] document. *)

val pp : Format.formatter -> t -> unit
(** The human-readable report: heavy hitters with provenance chains,
    dead rules, region efficacy, the per-authority load timeline and any
    hotspots. *)
