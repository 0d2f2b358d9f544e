(** Zipf-distributed sampling.

    Internet flow popularity is famously Zipfian — a handful of rules see
    most of the traffic — which is the property that makes DIFANE's (and
    any) rule caching effective.  The sampler draws rank [k] (1-based)
    with probability proportional to [1 / k^alpha]. *)

type t

val create : n:int -> alpha:float -> t
(** Support [1..n]; [alpha >= 0] ([alpha = 0] is uniform).
    @raise Invalid_argument otherwise.  O(n) setup, O(log n) draws. *)

val draw : t -> Prng.t -> int
(** A rank in [1..n]. *)
