(** Scan oracle for strict-update invalidation: the walk per changed id
    that {!Control_plane.delete_cached_origins} replaced with one pass
    per bank ({!Deployment.cache_entries_of_origins}), kept as the
    reference the differential test compares against. *)

val origins : Switch.t -> int -> int list
(** All policy rules a cache entry stands for, from its
    {!Switch.cache_meta} (sorted, deduplicated); empty without
    provenance. *)

val deletes : Switch.t array -> live:(int -> bool) -> int list -> (int * int) list
(** For each id in order, each live switch in index order, and each
    cache entry in {!Tcam.entries} order whose origin set
    ({!origins}) holds the id: the pair (switch,
    cache rule id) a strict update deletes. *)
