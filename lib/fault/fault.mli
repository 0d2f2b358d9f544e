(** Deterministic fault injection for the simulated control plane.

    A {!plan} describes everything that goes wrong in a run: the
    steady-state imperfection of every control channel (frame drop,
    duplication, corruption, latency jitter, reordering) and a schedule
    of discrete events (switch crashes and restarts, link flaps).  The
    plan is seeded; every channel derives an independent random stream
    from the seed and its channel id, so the same plan replayed over the
    same message sequence produces byte-identical failures regardless of
    how channels interleave.  That determinism is what makes chaos runs
    debuggable: a failure found at seed 7 is reproduced by seed 7. *)

(** Per-frame failure probabilities of one control channel. *)
type link = {
  drop : float;  (** frame silently lost *)
  duplicate : float;  (** frame delivered twice *)
  corrupt : float;  (** one byte of the frame is flipped in flight *)
  jitter : float;  (** extra delivery latency, uniform in [0, jitter] s *)
  reorder : float;  (** frame is held back one extra channel latency *)
}

val ideal_link : link
(** All-zero: the reliable channel the happy path assumes. *)

val lossy_link :
  ?duplicate:float -> ?corrupt:float -> ?jitter:float -> ?reorder:float ->
  float -> link
(** [lossy_link drop] with optional companions; unset fields default to
    a small fraction of [drop] (duplicate, corrupt, reorder = drop/4)
    and no jitter, so a single loss-rate knob exercises every failure
    mode at once.  @raise Invalid_argument if any probability is outside
    [0, 1]. *)

(** Scheduled control-plane events, applied by {!Control_plane.tick}
    (crash/restart also drive the data-plane reachability model when a
    plan is carried by a run's [Flowsim.Config.t]). *)
type event =
  | Crash of { switch : int; at : float }
      (** the device powers off: loses all switch state, stops
          responding; tunnels toward it fail *)
  | Restart of { switch : int; at : float }
      (** the device comes back blank and must be resynced *)
  | Link_down of { switch : int; at : float }
      (** control link flaps down: frames in either direction die on the
          wire (the device itself keeps running on its installed state) *)
  | Link_up of { switch : int; at : float }
  | Controller_crash of { controller : int; at : float }
      (** a controller replica dies losing its in-memory state; if it was
          the leader, the surviving replicas elect a new one which
          rebuilds the deployment from the journal ({!Cluster}).  Ignored
          by a single [Control_plane]. *)
  | Controller_restart of { controller : int; at : float }
      (** the replica rejoins as a standby (snapshot-load + replay) *)

val event_time : event -> float
val pp_event : Format.formatter -> event -> unit

type plan = {
  seed : int;
  link : link;
  events : event list;
  controllers : int;  (** controller replicas (default 1: no replication) *)
}

val plan : ?seed:int -> ?link:link -> ?events:event list -> ?controllers:int -> unit -> plan
(** Build a plan; [events] are sorted by time.  Defaults: seed 42,
    {!ideal_link}, no events, 1 controller.
    @raise Invalid_argument when [controllers < 1]. *)

(** {1 Per-channel injection} *)

type injector
(** The deterministic fault stream of one channel.  Draws are consumed
    one per frame sent, in send order. *)

val injector : plan -> channel:int -> injector
(** The stream for channel [channel]; distinct ids give independent
    streams, equal ids (same seed) give identical ones. *)

(** What happens to one frame: either it is lost, or it is delivered as
    one or two copies (duplication), each with an extra delay and an
    optional corruption token. *)
type delivery = {
  extra_delay : float;  (** jitter, seconds *)
  held_back : bool;  (** reordered: delay by one extra channel latency *)
  corrupt : int option;  (** when set, flip a byte derived from this token *)
}

type fate = Lost | Deliver of delivery list

val fate : injector -> fate
(** Decide the fate of the next frame.  Consumes a fixed number of
    random draws per call, so streams stay aligned across replays. *)
