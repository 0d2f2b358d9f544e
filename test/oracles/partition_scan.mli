(** Partitioning by filtering: the list-based cut search that
    {!Partitioner} replaced with bit-test counting.  Each candidate cut
    builds both child regions with {!Pred.split} and counts the leaf's
    rules overlapping each child with {!Pred.overlaps}; a split leaf's
    children filter its rules again.  The differential tests hold
    {!Partitioner.compute}, {!Partitioner.compute_bounded} and
    {!Partitioner.split_region} to these answers: the same pids,
    regions and statistics, and tables equal rule for rule. *)

val compute : ?heuristic:Partitioner.heuristic -> Classifier.t -> k:int -> Partitioner.t

val compute_bounded :
  ?heuristic:Partitioner.heuristic -> ?max_partitions:int -> Classifier.t ->
  max_entries:int -> Partitioner.t

val split_region :
  Partitioner.t -> Classifier.t -> pid:int -> ((int * Pred.t) * (int * Pred.t)) option
