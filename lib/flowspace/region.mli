(** Regions: finite unions of predicates.

    The header-space objects of Kazemian et al.'s algebra, specialised to
    the operations DIFANE needs: a region is a list of (not necessarily
    disjoint) predicates over one schema, closed under union and
    difference.  The partitioner's correctness checks ("partitions
    cover the whole space and are disjoint") are phrased over regions. *)

type t

val empty : Schema.t -> t
val full : Schema.t -> t
val of_preds : Schema.t -> Pred.t list -> t

val preds : t -> Pred.t list
(** The current representation; pairwise disjointness is {e not}
    guaranteed unless stated by the producing operation. *)

val is_empty : t -> bool

val union : t -> t -> t
val diff : t -> t -> t
(** [diff a b] has pairwise-disjoint predicates. *)

val subsumes : t -> t -> bool
(** [subsumes a b] iff every point of [b] lies in [a]. *)
