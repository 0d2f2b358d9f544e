(** Descriptive statistics over float samples. *)

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

val of_list : float list -> t
(** @raise Invalid_argument on an empty list. *)

val of_array : float array -> t

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0..1], linear interpolation.  The
    array must already be sorted ascending. *)
