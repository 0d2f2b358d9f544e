(** Deterministic pseudo-random numbers (splitmix64).

    Every generator in the repository takes an explicit [Prng.t] so that
    each experiment is a pure function of its seed — a requirement for
    reproducing the paper's figures run-over-run. *)

type t

val create : int -> t
(** Seeded stream; equal seeds give equal streams. *)

val split : t -> t
(** Derive an independent stream (advances the parent). *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val bits : t -> int -> int
(** [bits t n] is [n] uniform bits, [0 <= n <= 30]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0..bound-1].  @raise Invalid_argument if
    [bound <= 0]. *)

val int64_bound : t -> int64 -> int64
(** Uniform in [0..bound-1] for any positive 63-bit bound. *)

val float : t -> float
(** Uniform in [0,1). *)

val bool : t -> bool
val exponential : t -> rate:float -> float
(** Exponentially distributed with the given rate (mean [1/rate]). *)

val shuffle : t -> 'a array -> unit
val choose : t -> 'a array -> 'a
(** @raise Invalid_argument on an empty array. *)
