(** Empirical CDFs — the paper reports first-packet delay and stretch as
    CDF plots; the reports read their quantiles. *)

type t

val of_list : float list -> t
(** @raise Invalid_argument on an empty list. *)

val of_array : float array -> t

val inverse : t -> float -> float
(** [inverse t q]: smallest sample value with CDF [>= q]. *)

