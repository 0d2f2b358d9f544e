(** The hop-by-hop data plane: encapsulation and per-switch forwarding.

    {!Deployment.inject} computes a packet's fate using shortest paths
    directly; this module executes the same packet the way the paper's
    Click switches do — one switch at a time:

    + the ingress switch runs its three-bank lookup;
    + a miss is {e encapsulated} toward its authority switch and carried
      there hop by hop along the underlay's shortest path
      ({!Topology.shortest_path}),
      bypassing flow tables at transit switches (tunnelled packets are
      only decapsulated at their tunnel endpoint);
    + the authority switch decapsulates, serves the miss (splice +
      cache-install back at the ingress), re-encapsulates toward the
      egress switch;
    + the egress switch decapsulates and delivers.

    The equivalence [walk = inject] (same action, same latency) is a
    property test: the shortcut and the faithful executor must agree.

    With [?congestion] supplied every hop additionally books time on the
    egress port's virtual-clock queue ({!Congestion.transit}): queueing
    delay adds to [latency], a full buffer drops the packet
    ([Queue_full]) and crossing the ECN threshold sets [marked]. *)

type config = {
  cache_idle_timeout : float option;
  cache_hard_timeout : float option;
  cache_mode : [ `Spliced | `Microflow ];
  max_ttl : int;  (** hop budget; loops or ttl exhaustion drop the packet *)
}

val default_config : config
(** 10 s idle timeout, spliced caching, TTL 64. *)

type drop_reason =
  | Ttl  (** hop budget exhausted (routing loop or pathologically long detour) *)
  | Unmatched  (** no bank matched at the ingress (non-total policy) *)
  | Misconfigured  (** a partition rule claimed the header but cannot tunnel it *)
  | Unreachable  (** underlay has no path to the tunnel endpoint *)
  | No_authority  (** tunnelled to a switch that is not authority for the header *)
  | Queue_full  (** shed by a finite port buffer (congestion model only) *)

type result = {
  action : Action.t;  (** what happened to the packet *)
  delivered : bool;  (** reached its verdict (including a matched [Drop] policy action) *)
  drop_reason : drop_reason option;
      (** [None] iff the packet reached a policy verdict.  A matched rule
          whose action is [Drop] is a {e delivered} verdict
          ([drop_reason = None]); this field reports only {e network}
          drops — the old API overloaded [delivered]/[ttl_exceeded] and
          made switch drops look like policy verdicts. *)
  trace : int list;  (** every switch traversed, in order, ingress first *)
  encapsulations : int;  (** tunnel headers pushed (0 for a local drop) *)
  latency : float;  (** propagation along [trace], plus queueing when congested *)
  marked : bool;  (** ECN congestion-experienced (never set without [?congestion]) *)
}

val packet :
  ?config:config ->
  ?congestion:Congestion.t ->
  topology:Topology.t ->
  switch:(int -> Switch.t) ->
  now:float ->
  ingress:int ->
  Header.t ->
  result
(** Execute one packet.  Mutates switch state (cache counters and
    reactive installs) exactly like the real data plane.  [?congestion]
    additionally mutates the shared port clocks; omitting it reproduces
    the legacy infinite-buffer, zero-serialization walk exactly. *)
