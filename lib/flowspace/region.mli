(** Regions: finite unions of predicates.

    The header-space objects of Kazemian et al.'s algebra, specialised to
    the operations DIFANE needs: a region is a list of (not necessarily
    disjoint) predicates over one schema, closed under union, intersection
    and difference.  The partitioner's correctness checks ("partitions
    cover the whole space and are disjoint") are phrased over regions. *)

type t

val empty : Schema.t -> t
val full : Schema.t -> t
val of_pred : Pred.t -> t
val of_preds : Schema.t -> Pred.t list -> t

val preds : t -> Pred.t list
(** The current representation; pairwise disjointness is {e not}
    guaranteed unless stated by the producing operation. *)

val is_empty : t -> bool
val matches : t -> Header.t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
(** [diff a b] has pairwise-disjoint predicates. *)

val subsumes : t -> t -> bool
(** [subsumes a b] iff every point of [b] lies in [a]. *)

val equal_sets : t -> t -> bool
(** Set equality (mutual subsumption) — independent of representation. *)

val size_upper : t -> float
(** Sum of predicate sizes: an upper bound on the number of points, exact
    when the predicates are disjoint. *)

val size_exact : t -> float
(** The exact number of points, computed by disjointifying the
    representation first (inclusion–exclusion via subtraction).  Cost
    grows with overlap structure; intended for analysis, not hot paths. *)

val disjointify : t -> t
(** An equivalent region whose predicates are pairwise disjoint. *)

val compact : t -> t
(** Remove predicates subsumed by another predicate of the region. *)

