(** Empirical CDFs — the paper reports first-packet delay and stretch as
    CDF plots; the bench harness prints them as (value, fraction) series. *)

type t

val of_list : float list -> t
(** @raise Invalid_argument on an empty list. *)

val of_array : float array -> t

val at : t -> float -> float
(** [at t x]: fraction of samples [<= x]. *)

val inverse : t -> float -> float
(** [inverse t q]: smallest sample value with CDF [>= q]. *)

val series : ?points:int -> t -> (float * float) list
(** Evenly spaced quantile series for plotting/printing,
    [(value, cumulative fraction)], default 20 points ending at the max. *)
