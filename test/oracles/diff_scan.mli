(** The policy diff by an id-sorted merge: both rule lists sorted by id
    and walked once.  {!Deployment.diff_policies} replaced it with a
    lockstep walk in table order that falls back to this merge only on
    the suffixes after the first position where the ids differ; the
    differential test holds it to this answer. *)

val diff : Classifier.t -> Classifier.t -> int list * (Rule.t * Rule.t) list option
(** [diff old_policy new_policy]: the ids whose rule differs (by
    {!Rule.equal}, or present in only one policy), ascending, and — when
    every id is in both with an equal predicate — each changed rule's
    (old, new) definitions. *)
