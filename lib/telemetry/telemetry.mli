(** Process-wide metrics registry.

    DIFANE's evaluation is measurement-driven — flow-setup throughput,
    cache behaviour, loss under faults — so measurement is part of the
    architecture, not bolted on per experiment.  Every stateful module
    (TCAM banks, switches, channels, control planes, the cluster, the
    simulators) registers named, optionally labelled instruments here and
    bumps them on the same code path that updates its private tallies, so
    one {!snapshot} call reports the whole system and the per-module
    [stats] accessors can never drift from what the registry says.

    Design constraints, in order:

    - {b zero-allocation increments}: an instrument handle is a mutable
      cell; {!incr}/{!add}/{!observe} mutate it in place.  Registry
      lookup (hashing, label canonicalisation) happens once, at
      {!counter}/{!gauge}/{!histogram} time — create handles at module or
      object creation, never on the hot path;
    - {b deterministic snapshots}: {!snapshot} orders samples by
      [(name, labels)], so two runs that did the same work render
      byte-identical text/JSON — the property the seeded-replay
      experiments extend to their telemetry;
    - {b domain safety}: instrument cells are atomic and every mutation is
      a commutative monoid operation (add, max), so worker domains of a
      sharded simulation can bump shared instruments and the final
      snapshot is independent of interleaving.  Registration and
      snapshots take a lock.

    The registry is process-wide and cumulative: instruments created
    twice under the same name and labels share one cell, and values
    accumulate across runs until {!reset}.  Callers that want a
    per-run view reset first (the CLI's [--metrics] does). *)

(** {1 Instruments} *)

type counter
(** Monotonic integer count (until {!reset}). *)

type gauge
(** Last-set floating-point level (queue depth, epoch, occupancy). *)

type histogram
(** Bucketed distribution of observed values with count and sum. *)

val counter : ?labels:(string * string) list -> string -> counter
(** Get or create.  @raise Invalid_argument if the name+labels pair is
    already registered as a different instrument kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** High-water mark: keep the larger of the current and given value. *)

val default_buckets : float array
(** Log-spaced seconds, ~15.6 ns to ~134 s (powers of 4): the span of
    everything this codebase times, from a single zero-alloc TCAM
    lookup (tens of nanoseconds) to a whole chaos run. *)

val histogram :
  ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** [buckets] are upper bounds, strictly increasing; an implicit +∞
    bucket catches the rest.  Defaults to {!default_buckets}.
    @raise Invalid_argument on a kind clash or, for a new instrument,
    unsorted bounds. *)

val observe : histogram -> float -> unit
(** {1 Snapshots} *)

type value_kind =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
          (** (upper bound, cumulative count), +∞ last *)
      count : int;
      sum : float;
    }

type sample = { name : string; labels : (string * string) list; v : value_kind }

val snapshot : unit -> sample list
(** Every registered instrument, sorted by [(name, labels)] — the
    deterministic whole-system view. *)

val reset : unit -> unit
(** Zero every instrument (registration survives; handles stay valid). *)

val counter_total : sample list -> string -> int
(** Sum of every counter sample with this name across its label sets;
    0 if none.  The convenient form for assertions and reports. *)

val find : sample list -> ?labels:(string * string) list -> string -> value_kind option

val pp_text : Format.formatter -> sample list -> unit
(** One [name{k=v,...} value] line per sample, snapshot order. *)

val to_json : sample list -> string
(** The same snapshot as a self-contained JSON document:
    [{"schema":"difane-metrics-v1","metrics":[...]}]. *)

val json_float : float -> string
(** Render a float as a JSON token: [nan] becomes [null] and the
    infinities become the strings ["+inf"]/["-inf"] — JSON has no
    spelling for any of them, and a bare [nan] in the output makes the
    whole document unparseable.  Every JSON renderer in the tree must
    route floats that can be undefined (e.g. {!Tcam.hit_rate} before any
    lookup) through this. *)
