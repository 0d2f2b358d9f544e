(** The congestion model: finite port buffers, serialization delay,
    ECN-style marking, and credit-based backpressure.

    The paper's overload figures saturate on one bottleneck — the
    authority switch's flow-setup queue.  Everything else in the
    simulated network used to be infinite: links had a (write-only)
    bandwidth, switch ports had no buffers, so congestion showed up
    purely as latency.  This module gives the data-plane stack a shared
    vocabulary for finite resources:

    - a {!config} record carried by {!Deployment.config}, threaded as an
      optional argument into {!Dataplane.packet} and
      {!Flowsim.run}, and exposed as CLI flags;
    - a {e virtual-clock} per-port queue ({!t}) for the functional
      walks ([Deployment.inject], [Dataplane.packet]), which execute one
      packet at a time: each directed port remembers how far into the
      future its transmitter is booked, so back-to-back packets see each
      other's backlog without a discrete-event engine;
    - drop-tail and ECN accounting counters mirrored into the telemetry
      registry.

    The discrete-event simulator ({!Flowsim}) builds its own per-port
    queues from {!Server} instances — real queued events — but reads the
    same {!config}.

    With {!default} (unbounded buffers, bandwidth ignored) every code
    path is bit-identical to the pre-congestion behaviour; that
    differential property is tested. *)

type mode =
  | Drop_tail  (** full buffers and full setup queues silently shed *)
  | Credit
      (** credit-based flow control on tunnel traffic to authority
          switches: an upstream-driven shared credit pool per authority
          bounds the misses in flight toward it; an ingress finding the
          pool at or below {!config.credit_low_water} defers re-splicing
          and degrades gracefully to the controller-fallback path
          (separately accounted) instead of shedding the miss *)

type config = {
  buffer_capacity : int option;
      (** per-port packet buffer (excluding the packet in transmission);
          [None] = unbounded, the legacy model *)
  ecn_threshold : int option;
      (** mark packets that arrive to a queue at least this deep
          (ECN-style congestion signal); [None] = no marking *)
  packet_bits : int;  (** modelled packet size for serialization delay *)
  model_bandwidth : bool;
      (** pay {!Topology.serialization_delay} per hop; without it port
          queues can never build and finite buffers never bite *)
  mode : mode;
  credit_pool : int;  (** shared credits per authority switch ([Credit]) *)
  credit_low_water : int;
      (** per-tunnel threshold: an ingress whose authority pool has
          [<= credit_low_water] credits left defers to the controller
          path rather than consuming the last credits *)
}

val default : config
(** Unbounded buffers, no marking, bandwidth ignored, [Drop_tail] —
    congestion modelling off; behaviour is bit-identical to the
    pre-congestion code paths. *)

val enabled : config -> bool
(** Whether any part of the model is on ([model_bandwidth], a finite
    [buffer_capacity], an [ecn_threshold], or [Credit] mode). *)

val validate : config -> unit
(** @raise Invalid_argument on a non-positive [packet_bits],
    [buffer_capacity]/[ecn_threshold] < 0, [credit_pool] < 1 or
    [credit_low_water] < 0 (or >= [credit_pool]) in [Credit] mode. *)

(** {1 Virtual-clock port queues}

    State for the one-packet-at-a-time walks.  Each directed port
    [(from, to)] tracks [busy_until] — when its transmitter frees.  A
    packet arriving at [now] waits [busy_until - now], occupying one
    buffer slot per serialization time of backlog.  Callers must present
    non-decreasing [now] values for depths to mean anything (both walks
    do; queues drain as simulated time advances). *)

type t

type stats = {
  transits : int;  (** packets offered to any port *)
  drops : int;  (** packets shed by a full buffer *)
  marks : int;  (** packets ECN-marked *)
  peak_depth : int;  (** deepest queue observed at any arrival *)
}

val create : config -> t
(** @raise Invalid_argument as {!validate}. *)

val config : t -> config

val transit :
  t -> now:float -> from:int -> Topology.link ->
  [ `Forward of float * bool | `Drop ]
(** Offer one packet to the directed port [from -> other end of link] at
    simulated time [now].  [`Forward (delay, marked)] is the queueing
    wait plus serialization time (0 when bandwidth is not modelled) —
    propagation latency is {e not} included, callers add [link.latency]
    themselves.  [`Drop] means the buffer was full (drop-tail). *)

val depth : t -> now:float -> from:int -> to_:int -> int
(** Packets currently queued on a directed port (0 for an unknown or
    drained port). *)

val stats : t -> stats
val reset : t -> unit
(** Forget all port backlogs and zero {!stats}. *)
