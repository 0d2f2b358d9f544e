(** A functional model of a TCAM bank.

    Capacity-bounded, priority-ordered ternary match table with per-entry
    statistics (packet counts, install/last-hit times) and idle/hard
    timeouts — the state a hardware switch exposes to DIFANE.  The model
    is mutable (a switch's table is inherently stateful) but confined:
    all observation goes through the accessors below.

    The per-packet path is the packed tuple-space kernel
    ({!Tuple_space}): each entry's predicate is reduced to lane masks and
    values over the header's two-lane key when it is installed, and a
    lookup probes one hash chain per distinct lane mask — or, when nearly
    every entry has its own mask, scans the packed lanes of every entry
    ({!index_degenerate}).  Neither allocates.  Entries of schemas over
    126 bits cannot be packed; a table holding one matches field by
    field.  Semantics are identical on every path (property-tested
    against {!create_linear}).  Eviction keeps an intrusive LRU list
    (O(1) per touch) and expiry a lazy min-heap on each entry's next
    deadline, so neither walks the bank.

    Time is a [float] of seconds supplied by the caller (the simulator's
    clock); the TCAM never reads a wall clock. *)

type t

type entry = {
  rule : Rule.t;
  installed_at : float;
  mutable last_hit : float;
  mutable packets : int;
  mutable bytes : int;
  idle_timeout : float option;  (** evict after this much hit silence *)
  hard_timeout : float option;  (** evict this long after install *)
}

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 0].  A capacity of [0] models a
    switch with no TCAM (everything misses). *)

val create_linear : capacity:int -> t
(** Like {!create} but with the packed kernel disabled: every lookup
    scans the entries with {!Rule.matches} — the reference semantics,
    kept for benchmarking and differential testing; results are identical
    to an indexed table's on any operation sequence. *)

val capacity : t -> int
val occupancy : t -> int
val is_full : t -> bool
val entries : t -> entry list
(** In table (priority) order.  Sorts the whole bank: prefer {!find}
    or {!exists} for questions about some entries. *)

val exists : t -> (entry -> bool) -> bool
(** Whether some entry satisfies the predicate, visiting entries in no
    particular order. *)

val find : t -> int -> entry option
(** Entry by rule id. *)

val mem : t -> int -> bool

val fold_equal : t -> Pred.t -> ('a -> entry -> 'a) -> 'a -> 'a
(** Fold over the entries whose predicate packs to the given one's lanes
    ({!Tuple_space.fold_equal}), in no particular order: every entry
    with an equal predicate, and perhaps others, so callers keep their
    {!Pred.equal} check.  When some entry or the predicate cannot be
    packed (a schema over 126 bits, or a table from {!create_linear}),
    every entry. *)

(** {1 Index introspection} *)

val index_groups : t -> int
(** Number of distinct lane masks currently held — the tuple-space probe
    count. *)

val index_degenerate : t -> bool
(** True when a lookup would currently scan rather than probe: too many
    distinct lane masks for tuple search to win ({!Tuple_space.degenerate}),
    an entry of a schema over 126 bits, or a table from
    {!create_linear}. *)

(** {1 Mutation} *)

val insert :
  ?idle_timeout:float -> ?hard_timeout:float -> t -> now:float -> Rule.t ->
  [ `Ok | `Replaced of entry | `Full ]
(** Install a rule.  A rule with the same id replaces the old entry
    (OpenFlow flow-mod semantics); the displaced entry is returned with
    its final counters so the caller can emit a flow-removed
    notification instead of silently losing them.  [`Full] is returned,
    and nothing changes, when the table is at capacity. *)

type displaced = {
  evicted : entry list;  (** LRU victims, in eviction order *)
  replaced : entry option;  (** same-id entry displaced by the new rule *)
  bounced : bool;  (** capacity 0: the rule itself did not fit *)
}

val insert_or_evict_entries :
  ?idle_timeout:float -> ?hard_timeout:float -> t -> now:float -> Rule.t ->
  displaced
(** Install, evicting least-recently-hit entries as needed to make room:
    the reactive cache-install path of DIFANE ingress switches.  Returns
    the displaced entries — LRU victims and any same-id replaced entry —
    so callers can report final counters (flow-removed notifications);
    [bounced] when the rule did not fit a zero-capacity table. *)

val remove : t -> int -> bool
(** Remove by rule id; [false] if absent.  Not counted as an eviction. *)

val clear : t -> unit

val on_detach : t -> (entry -> unit) -> unit
(** [on_detach t f] makes [f] run on every entry that leaves the bank —
    LRU eviction, expiry, {!remove}, {!remove_where}, a same-id
    replacement and {!clear} — once per entry, after the bank no longer
    holds it.  Replaces any earlier hook; the default does nothing.  The
    owner of the bank keeps side tables (provenance indexes) current
    from this one place. *)

val expire : t -> now:float -> Rule.t list
(** Remove every entry whose idle or hard timeout has elapsed at [now];
    returns the removed rules.  Counted as {e expirations}, not
    evictions: timeout churn and capacity pressure are separate
    signals. *)

val expire_entries : t -> now:float -> entry list
(** Like {!expire} but returning the full expired entries. *)

(** {1 Lookup} *)

val lookup : t -> now:float -> ?bytes:int -> Header.t -> Rule.t option
(** Highest-priority matching entry; bumps its counters and [last_hit]
    and marks it most recently used.  [bytes] defaults to a 64-byte
    minimum-size packet. *)

val peek : t -> Header.t -> Rule.t option
(** Like [lookup] but with no statistics side effects. *)

val touch : t -> now:float -> int -> bool
(** Refresh an entry's idle deadline and LRU position without counting a
    hit (packet/byte counters untouched).  Returns [false] if no live
    entry has that id.  The caching layer uses this to keep every member
    of a cover set warm while any one of them absorbs traffic — an unhit
    high-rank dependency must not idle out from under the group. *)

(** {1 Statistics} *)

type stats = {
  hits : int64;
  misses : int64;
  inserts : int64;
  evictions : int64;  (** LRU victims only — capacity pressure *)
  expirations : int64;  (** idle/hard timeouts — cache churn *)
}

val stats : t -> stats

val hit_rate : t -> float
(** Hits over lookups since {!create}; [nan] before any lookup —
    renderers must map it to [null]/omission, never print it raw into
    JSON. *)
