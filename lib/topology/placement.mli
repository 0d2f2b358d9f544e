(** Authority-switch placement.

    Where to put the [k] authority switches decides the stretch every
    cache-miss packet pays.  This module offers the strategies compared
    by the stretch experiment plus a greedy k-median optimiser: minimise
    the mean distance from every node to its nearest authority — the
    classic facility-location relaxation of DIFANE's placement problem
    (each miss travels ingress → authority, and with volume-balanced
    partitions any authority is equally likely). *)

val random : rand:(unit -> float) -> Topology.t -> k:int -> int list
(** [k] distinct nodes, uniformly. *)

val by_degree : Topology.t -> k:int -> int list
(** The [k] highest-degree nodes. *)

val centroid : Topology.t -> k:int -> int list
(** The [k] nodes with the smallest mean distance to all nodes
    (independently — no interaction between picks). *)

val k_median : Topology.t -> k:int -> int list
(** Greedy k-median: repeatedly add the node that most reduces the total
    distance from every node to its nearest chosen authority.  Strictly
    better than {!centroid} when coverage matters (centroid's picks
    cluster; k-median's spread out). *)

