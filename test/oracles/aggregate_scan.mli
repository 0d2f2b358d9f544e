(** Scan oracles for the cache-bank index: the whole-bank walks that
    {!Aggregate} and {!Switch.drop_cover_orphans} replaced with index
    probes, kept as the reference the differential tests compare
    against. *)

val find_merge :
  Switch.t -> pid:int -> kind:Switch.cache_kind -> group:(int * int list) option ->
  priority:int -> action:Action.t -> Pred.t ->
  (Rule.t * Switch.cache_meta * Pred.t) option
(** The first entry in {!Tcam.entries} order that is a legal buddy-merge
    partner, with its provenance and the merged predicate. *)

val equivalent_live_cover : Switch.t -> Rule.t -> Switch.cache_meta -> int option
(** The first live cover entry in {!Tcam.entries} order with the rule's
    predicate, priority, action and partition. *)

val cover_orphans : Switch.t -> int list
(** What {!Switch.drop_cover_orphans} must remove, in the order it must
    remove them: pass after pass, the ids of the live entries whose cover
    group is incomplete once the earlier passes' entries are gone, each
    pass in {!Tcam.entries} order, until a pass finds none. *)
