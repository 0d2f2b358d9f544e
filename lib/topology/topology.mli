(** Network topologies.

    An undirected weighted graph of switches.  DIFANE uses it to pick
    authority switches, to compute the tunnelling paths of cache-miss
    packets, and to measure {e stretch} — the detour a miss packet takes
    through its authority switch relative to the direct path. *)

type t

type link = { src : int; dst : int; latency : float; bandwidth : float }
(** [latency] in seconds one-way, [bandwidth] in bits/second.  Links are
    symmetric. *)

val create : nodes:int -> link list -> t
(** Builds the graph and its all-pairs shortest-path table ({!section-paths}):
    one single-source Dijkstra run per node.
    @raise Invalid_argument on endpoints outside [0..nodes-1], self-loops,
    duplicate links, or a non-positive (or NaN) [bandwidth] — the field
    feeds {!serialization_delay}, so a link that cannot serialize a
    packet is a construction bug, not a runtime surprise. *)

val serialization_delay : link -> bits:int -> float
(** Seconds this link's transmitter needs to put [bits] on the wire —
    the per-hop service time of the congestion model's port queues.
    @raise Invalid_argument on negative [bits]. *)

val nodes : t -> int
val links : t -> link list
val degree : t -> int -> int
val link_between : t -> int -> int -> link option
(** The link joining two nodes, one read of a pair table {!create}
    builds; [None] when they are not adjacent or the second is out of
    range.
    @raise Invalid_argument if the first node is out of range. *)

(** {1:paths Paths}

    The network's link-state underlay: DIFANE adds no routing of its
    own, and partition rules tunnel misses to authority switches over
    these paths.  Every reader below looks up one table that {!create}
    computes once, so a topology is cheap to query from any number of
    domains; {!without_link} builds a new topology, i.e. the IGP
    reconverging.  {!shortest_path} memoises each pair's node list on its
    first query, so the per-packet walks build no list; domains racing to
    fill a pair store equal paths.

    Paths are deterministic.  Each source's row comes from one Dijkstra
    run over latency; equal-latency ties resolve the same way on every
    call.  Consecutive nodes of a path are adjacent, the path to any
    node's predecessor is a prefix of the node's path, and
    [path_latency (shortest_path a b)] equals [distance a b] bitwise.
    All readers raise [Invalid_argument] on a node outside
    [0..nodes-1]. *)

val shortest_path : t -> int -> int -> int list option
(** Minimum-latency path as a node list including both endpoints;
    [Some [v]] when [src = dst]; [None] when unreachable. *)

val path_latency : t -> int list -> float
(** Sum of link latencies along a node path.
    @raise Invalid_argument if consecutive nodes are not adjacent. *)

val distance : t -> int -> int -> float option
(** Latency of the shortest path. *)

val all_distances : t -> int -> float array
(** Single-source latencies; [infinity] where unreachable.  A fresh copy
    of the source's row. *)

val stretch : t -> src:int -> via:int -> dst:int -> float
(** [distance src via + distance via dst) / distance src dst] — the paper's
    stretch metric for a miss packet detouring through authority switch
    [via].  [1.0] when [via] is on a shortest path; [infinity] when
    unreachable; by convention 1.0 when [src = dst]. *)

(** {1 Generators}

    All generators take an explicit [rand] uniform-float source so that
    experiments are reproducible. *)

val line : int -> ?latency:float -> unit -> t
val star : int -> ?latency:float -> unit -> t
(** [star n] has hub [0] and [n-1] spokes. *)

val full_mesh : int -> ?latency:float -> unit -> t

val waxman :
  rand:(unit -> float) -> nodes:int -> ?alpha:float -> ?beta:float ->
  ?latency_scale:float -> unit -> t
(** Waxman random WAN: nodes placed uniformly in the unit square, edge
    probability [alpha * exp (-d / (beta * sqrt 2))], link latency
    proportional to Euclidean distance.  A spanning tree over nearest
    placed neighbours is added first so the result is always connected. *)

val campus : rand:(unit -> float) -> edge_switches:int -> unit -> t
(** Two-tier campus/enterprise network: 2 core switches (node 0,1), one
    distribution switch per 4 edge switches, edge switches dual-homed to
    their distribution pair where possible. *)

(** {1 Failure derivation} *)

val without_link : t -> int -> int -> t
(** The same topology minus the (undirected) link between two nodes;
    unchanged when no such link exists.  Node count is preserved. *)

val pp : Format.formatter -> t -> unit
