(** Differential equivalence gate: aggregation must not change forwarding.

    Cache-rule aggregation ({!Aggregate}) compresses what the ingress
    TCAMs hold — buddy-merged wildcards, suppressed subsumed installs,
    cover sets — but a packet's fate must be bit-identical with the
    feature on or off.  This gate builds twin deployments differing only
    in [config.aggregation], drives both with identical randomized
    policies, packet streams and cache-management interleavings (idle
    expiry, full flushes, targeted origin invalidation), and compares
    every packet's forwarding action, plus end-of-case
    {!Deployment.semantically_equal} probes against the warm caches.

    Exposed as [difane aggregate]; [difane gate aggregate] exits nonzero
    unless {!passed}. *)

type mismatch = {
  case : int;
  step : int;  (** packet index within the case's stream *)
  header : Header.t;
  plain : Action.t;  (** what the aggregation-off deployment did *)
  aggregated : Action.t;  (** what the aggregation-on deployment did *)
}

type report = {
  cases : int;
  packets : int;  (** packets compared across all cases *)
  mismatch_count : int;
  mismatches : mismatch list;  (** first few, for diagnosis *)
  semantic_failures : int;
      (** warm-cache probe sets where some header's action diverged from
          the policy's (either arm) *)
  merges : int;  (** aggregated arm: buddy-union steps *)
  suppressed : int;  (** aggregated arm: installs skipped as subsumed *)
  cover_installs : int;  (** aggregated arm: cover-set member installs *)
  agg_installs : int;  (** aggregated arm: entries actually written *)
}

val passed : report -> bool
(** No action mismatches and no semantic-probe failures. *)

val run : ?seed:int -> ?cases:int -> ?packets_per_case:int -> unit -> report
(** Run the gate.  Deterministic given [seed].  Each case draws a fresh
    policy (alternating ACL and prefix-table generators, varying rule
    counts and chain depths), a fresh Zipf packet stream, and a cache
    capacity from a small/medium/large rotation so both eviction-heavy
    and resident regimes are covered.  Defaults: 8 cases of 400 packets. *)

val render : report -> string
(** Human-readable summary; lists the first few mismatches if any. *)
