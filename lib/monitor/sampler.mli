(** Time-series sampler: readers → bounded ring buffers.

    The switches and simulators answer "how much, so far"; the sampler
    turns that into "how much, {e when}" by calling each tracked reader
    at fixed simulated-time boundaries ([interval], [2·interval], …).
    A reader is a closure over whatever it reads (the monitor's read one
    switch's cumulative served misses), so a sample is a handful of
    loads — cheap enough to take on the data path.

    There is no timer: the discrete-event simulators have no periodic
    wall clock to hang one on.  Instead callers {!tick} with the current
    simulated time from whatever event is already firing (the monitor
    does it per observed packet) and the sampler lazily catches up every
    boundary it crossed since the last call, recording each boundary's
    value once.  Quiet stretches thus sample at the {e next} event —
    values are unchanged in between, so nothing is lost — and the final
    {!finish} closes the tail.

    Ring buffers are bounded: past [capacity] points the oldest fall
    off. *)

type point = { at : float; v : float }

type series = {
  points : point array;  (** oldest first; at most [capacity] *)
  dropped : int;  (** points lost to ring wraparound *)
}

type t

val create : ?capacity:int -> interval:float -> unit -> t
(** [capacity] points per series, default 1024.
    @raise Invalid_argument if [interval <= 0] or [capacity < 1]. *)

val track : t -> (unit -> float) -> unit
(** Record this reader's value at every boundary. *)

val tick : t -> now:float -> unit
(** Record every crossed boundary [k·interval <= now] not yet recorded.
    Monotone [now]s; a stale [now] is a no-op. *)

val finish : t -> now:float -> unit
(** {!tick}, then record one final point at [now] itself if it lies past
    the last boundary — the partial last window. *)

val series : t -> series list
(** Tracked series in tracking order. *)
