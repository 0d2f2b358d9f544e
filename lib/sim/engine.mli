(** A discrete-event simulation engine.

    A binary event heap executed in (time, sequence) order — FIFO among
    equal timestamps.  All the timing experiments — flow-setup throughput,
    first-packet delay, policy-update convergence — run on this engine.

    The heap is a preallocated structure of arrays (float times + int
    sequence/kind/argument lanes), so the hot path allocates nothing:

    - {b packed events} ({!kind}/{!post}): dispatch indexes an int-kind
      jump table registered per engine and hands the handler a packed int
      argument.  Zero allocation per event — the form every hot path
      should use;
    - {b closure events} ({!schedule}/{!after}): the classic thunk API,
      implemented as a reserved kind whose argument indexes a free-listed
      closure slab.  Convenient for setup, tests and cold paths.

    Both forms interleave in one queue and share the FIFO guarantee.
    Equal-timestamp events are dispatched as one batch: the clock is
    written once and the batch drains before the [until] horizon is
    reconsidered.  The original closure-heap implementation lives on in
    the test suite as the reference semantics for a differential test.

    Engines are single-domain values; a sharded simulation runs one
    engine per domain.  Per-engine tallies are mirrored into
    the process-wide registry once per {!run} — the registry cells are
    atomic and the mirroring operations commutative, so concurrent
    engines yield deterministic final registry values. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds.  Starts at [0.]. *)

(** {1 Packed events} *)

type kind [@@immediate]
(** An int index into the engine's dispatch table. *)

val kind : t -> (int -> unit) -> kind
(** Register a handler and get its kind.  Registration allocates; do it
    once at setup, then {!post} events of this kind for free. *)

val post : t -> at:float -> kind -> int -> unit
(** Schedule a packed event: at [at], the handler registered for [kind]
    is called with the int argument.  Allocation-free.
    @raise Invalid_argument if [at] is in the past. *)

(** {1 Closure events} *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Schedule a callback.  @raise Invalid_argument if [at] is in the past. *)

val after : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~at:(now t +. delay)].  @raise Invalid_argument on a
    negative delay. *)

(** {1 Execution} *)

val run : ?until:float -> t -> unit
(** Execute events until the heap is empty (or the clock passes [until];
    remaining events stay queued).  The clock advances to each event's
    timestamp.  On return, per-engine tallies are mirrored into the
    registry ([engine_events_dispatched], [engine_queue_peak]). *)

val pending : t -> int
(** Events still queued. *)
