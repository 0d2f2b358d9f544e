(** NetFlow-style sampled flow records for the DIFANE data plane.

    A bounded flow cache keyed by [(ingress switch, header)] — for the
    stock 5-tuple schema that key {e is} the classic NetFlow 5-tuple —
    fed by deterministic count-based 1-in-N packet sampling.  Entries
    age out on simulated time: an {e idle} timeout exports a flow that
    stopped sending, an {e active} timeout cuts long-lived flows into
    periodic records (the NetFlow convention that bounds how stale a
    collector's view can get), and cache pressure evicts the
    longest-idle entry.  Exported records carry a monotonically
    increasing sequence number, so the export stream — and the
    [difane-flows-v1] JSON rendering of it — is byte-identical across
    runs for a fixed seed.

    Packet sampling is count-based (every Nth observed packet), not
    probabilistic: determinism is a design constraint here, and the
    sampled counts still scale by N in expectation exactly as NetFlow's
    random 1-in-N does for aggregate questions. *)

type reason =
  | Idle  (** no sampled packet for [idle_timeout] seconds *)
  | Active  (** flow exceeded [active_timeout] since its first packet *)
  | Evicted  (** cache full: longest-idle entry pushed out *)
  | Flush  (** end-of-run {!flush} *)

type record = {
  seq : int;  (** export order; dense from 0 *)
  ingress : int;  (** ingress switch node id *)
  header : Header.t;
  packets : int;  (** {e sampled} packets — multiply by the rate for an estimate *)
  bytes : int;  (** sampled bytes (sizes derived deterministically from the header) *)
  first_seen : float;  (** simulated time of the first sampled packet *)
  last_seen : float;
  reason : reason;
}

type config = {
  sample_rate : int;  (** sample every Nth packet; 1 = every packet *)
  active_timeout : float;  (** seconds; cut a record after this lifetime *)
  idle_timeout : float;  (** seconds; export after this silence *)
  max_entries : int;  (** flow-cache capacity across all ingresses *)
}

val default_config : config
(** 1-in-1 sampling, 60 s active / 15 s idle, 4096 entries. *)

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument if [sample_rate < 1] or [max_entries < 1]. *)

val config : t -> config

val observe : t -> now:float -> ingress:int -> Header.t -> unit
(** Account one packet entering at [ingress].  Expiry of the touched
    entry is checked here; other entries age out via {!sweep}/{!flush}.
    [now] must not decrease across calls. *)

val sweep : t -> now:float -> unit
(** Export every entry past its idle or active timeout at [now].
    Called opportunistically (the monitor piggybacks it on sampler
    ticks); correctness only needs the final {!flush}. *)

val flush : t -> now:float -> unit
(** End of run: {!sweep}, then export everything left as [Flush]. *)

val observed_packets : t -> int
val sampled_packets : t -> int
val exports : t -> record list
(** All exported records in sequence order. *)

val to_json : t -> string
(** The export stream as a self-contained [difane-flows-v1] document:
    [{"schema":"difane-flows-v1","sample_rate":N,...,"records":[...]}].
    Header fields are rendered by name; floats with [%.9g] — the output
    is bit-identical across runs that sampled the same packets. *)
