(** The reactive-controller baseline (NOX/Ethane style).

    The first packet of every flow is punted to a central controller,
    which consults the global policy, installs an exact-match (microflow)
    rule at the ingress switch and sends the packet back out.  This is
    the architecture DIFANE's evaluation compares against: correct, but
    the controller is a serial bottleneck and every miss pays a
    control-channel round trip.

    Functional behaviour lives here; the timing model (controller service
    rate, control-channel RTT) is the simulator's
    ({!Flowsim.default_timing}, applied by {!Flowsim.run_nox}). *)

type t

type config = {
  cache_capacity : int;  (** ingress microflow-table entries *)
  idle_timeout : float option;
}

val default_config : config
(** 10_000 entries, 10 s idle timeout. *)

val build :
  ?config:config -> policy:Classifier.t -> topology:Topology.t -> unit -> t

val topology : t -> Topology.t
val switch : t -> int -> Switch.t

type outcome = {
  action : Action.t;
  punted : bool;  (** the packet went to the controller *)
  installed : Rule.t option;
}

val inject : t -> now:float -> ingress:int -> Header.t -> outcome
(** One packet: ingress microflow-table lookup, controller on miss. *)

