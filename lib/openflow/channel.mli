(** A simulated control channel.

    A unidirectional, latency-delayed byte channel between a controller
    and one switch.  Frames are carried {e encoded} — every message pays
    the wire codec on both ends, so a deployment driven through channels
    proves the whole control plane is serialisable, and byte counters
    give the control-overhead numbers the evaluation reports.

    A channel is reliable and in-order by default.  Created with a
    {!Fault.injector} it becomes {e lossy}: frames can be dropped,
    duplicated, corrupted in flight, jittered or reordered, each
    deterministically from the injector's seeded stream and counted in
    {!stats}.  A frame that no longer decodes (corruption) is dropped and
    counted, never raised — surviving a bad frame is the control plane's
    job, crashing on one would be the simulator's bug. *)

type t

(** Cumulative fault counters of one channel. *)
type stats = {
  dropped : int;  (** frames lost in flight *)
  duplicated : int;  (** frames delivered twice *)
  corrupted : int;  (** frames with a byte flipped in flight *)
  reordered : int;  (** frames held back behind later sends *)
  decode_errors : int;  (** polled frames that failed to decode *)
}

val create : ?fault:Fault.injector -> Schema.t -> latency:float -> t
(** @raise Invalid_argument on negative latency. *)

val send : t -> now:float -> xid:int -> ?epoch:int -> Message.t -> unit
(** Enqueue a frame; it becomes receivable at [now + latency] (plus any
    injected jitter), or never, if the injector drops it.  [epoch]
    defaults to [0] (unfenced). *)

val poll : t -> now:float -> (int * int * Message.t) list
(** Dequeue (and decode) every frame that has arrived by [now], oldest
    arrival first, as [(xid, epoch, message)].  Undecodable frames are
    silently dropped and counted in [stats.decode_errors]. *)

val pending : t -> int
(** Frames sent but not yet polled (including in-flight ones). *)

val frames_carried : t -> int
val bytes_carried : t -> int

val stats : t -> stats
(** Fault counters; all zero on a reliable channel.  Every increment
    also bumps the process-wide [channel_*] registry counters, so
    {!Telemetry.snapshot} and these accessors agree. *)

