(** Splicing from scratch: the list-walking versions of {!Splice}'s plan
    queries, and the miss reply they add up to.  The differential tests
    hold the plan-served {!Switch.serve_miss} to these answers. *)

val for_header : Classifier.t -> Header.t -> Splice.piece option
(** The independent piece of the table's winning rule containing the
    header: a linear first match, then a clip against every earlier
    overlapping rule of the table list. *)

val cache_priority : Classifier.t -> Rule.t -> int
(** The rule's rank counted from the table's bottom, by a walk of the
    table list; [1] for a rule not in the table. *)

val cache_rule : next_id:(unit -> int) -> Classifier.t -> Splice.piece -> Rule.t
(** The piece as a cache rule at its origin's {!cache_priority}. *)

val cover_set : Classifier.t -> Rule.t -> Rule.t list
(** The rule and the transitive closure of its
    {!Classifier.direct_dependencies}, in table order. *)

val serve_miss :
  ?mode:[ `Spliced | `Microflow ] -> ?cover_limit:int -> next_id:(unit -> int) ->
  Partitioner.partition list -> Header.t -> Switch.miss_reply option
(** The reply {!Switch.serve_miss} owes for the header by a switch
    holding these authority tables (in {!Switch.authority_partitions}
    order), drawing cache-rule ids from [next_id] in the same order. *)
