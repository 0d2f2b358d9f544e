(** Trace-driven cache simulation: spliced wildcard caching vs microflow
    caching.

    The architectural difference between DIFANE's ingress caches and
    Ethane/NOX-style microflow caches is {e aggregation}: a spliced
    wildcard entry covers every header that falls in the same independent
    piece of a policy rule, while a microflow entry covers exactly one
    header.  This module replays a packet stream through an LRU cache of
    each kind and reports miss rates — the cache-size sweep of experiment
    F-MISS — without discrete-event machinery (a miss costs one cache
    fill; timing is irrelevant to the hit ratio). *)

type kind =
  | Wildcard_splice  (** DIFANE: one entry per independent rule piece *)
  | Microflow  (** Ethane/NOX: one exact-match entry per header *)

type result = {
  kind : kind;
  cache_size : int;
  lookups : int;
  misses : int;
  miss_rate : float;
  distinct_keys : int;  (** working-set size under this caching scheme *)
}

val packet_stream : Traffic.flow list -> Header.t array
(** Expand flows into their individual packets, ordered by packet
    timestamp — the reference stream fed to the cache. *)

val run : kind -> Classifier.t -> cache_size:int -> Header.t array -> result
(** LRU simulation of one cache kind at one size.
    @raise Invalid_argument if [cache_size < 1]. *)

val sweep_with_opt :
  Classifier.t ->
  cache_sizes:int list ->
  Header.t array ->
  (int * result * result * result) list
(** For each cache size: [(size, wildcard LRU, wildcard OPT, microflow
    LRU)], the OPT run using Belady replacement on the wildcard keys.
    Each kind's keys are computed once and shared across sizes. *)
