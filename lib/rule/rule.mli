(** Policy rules: priority + predicate + action.

    Higher [priority] wins; ties are broken by lower [id] (insertion
    order), matching how OpenFlow switches resolve equal-priority
    overlaps deterministically in practice. *)

type t = private { id : int; priority : int; pred : Pred.t; action : Action.t }

val make : id:int -> priority:int -> Pred.t -> Action.t -> t
val with_pred : t -> Pred.t -> t
val with_action : t -> Action.t -> t
val with_id : t -> int -> t

val matches : t -> Header.t -> bool

val beats : t -> t -> bool
(** [beats a b]: in a table containing both, [a] is consulted before [b]. *)

val overlaps : t -> t -> bool
(** Predicates intersect. *)

val shadows : t -> t -> bool
(** [shadows a b]: [a] beats [b] and [a]'s predicate subsumes [b]'s, so
    [b] can never fire while [a] is present. *)

val equal : t -> t -> bool
val compare_priority : t -> t -> int
(** Table order: descending priority, then ascending id. *)

val pp : Format.formatter -> t -> unit
