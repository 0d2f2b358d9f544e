(** Traffic generation: Zipf-popular flows against a policy.

    A {e flow} is a sequence of identically-headed packets entering the
    network at one ingress switch.  Popularity across flows follows a
    Zipf law over the policy's rules (the empirical property caching
    relies on); arrivals are Poisson. *)

type flow = {
  flow_id : int;
  header : Header.t;
  ingress : int;  (** ingress switch node id *)
  start : float;  (** arrival time of the first packet, seconds *)
  packets : int;  (** total packets in the flow *)
  interval : float;  (** gap between consecutive packets of the flow *)
}

type profile = {
  flows : int;
  rate : float;  (** aggregate flow arrival rate, flows/second *)
  alpha : float;  (** Zipf skew over distinct flow headers *)
  distinct_headers : int;  (** size of the flow-header population *)
  packets_per_flow_mean : float;
      (** geometric mean; 1.0 gives the paper's single-packet worst case *)
  packet_interval : float;
  ingresses : int list;  (** ingress switches, sampled uniformly *)
  burstiness : float;
      (** arrival burstiness: 1.0 = Poisson; larger values use a two-state
          on/off modulation where the "on" state arrives [burstiness]
          times faster than average — cache-churn-heavy traffic *)
}

val default : profile

val headers_for : Prng.t -> Classifier.t -> int -> Header.t array
(** A population of [n] distinct concrete headers biased to exercise the
    classifier's rules roughly uniformly: header [i] is sampled from rule
    [i mod rules]'s predicate (rejection-corrected so that dead regions
    don't dominate). *)

val generate : Prng.t -> Classifier.t -> profile -> flow list
(** Flows sorted by [start] time.  Header popularity is Zipf([alpha]) over
    the header population. *)

val packet_stream : flow list -> Header.t array
(** Expand flows into their individual packets, ordered by packet
    timestamp: the reference stream a cache replay is fed. *)
