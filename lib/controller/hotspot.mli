(** The hotspot rule: when an authority switch carries more than its
    share of a window's misses.

    DIFANE's partitioner promises balanced authority load ({e in
    aggregate}); skewed traffic can still pile misses onto one authority
    for stretches of a run that end-of-run totals average away.  One
    rule decides which authority is hot in a window, and one streak
    counter decides when it has been hot for long enough.  The adaptive
    rebalancer ({!Control_plane}) acts on them window by window; the
    monitor's report ({!detect}) replays the same rule over a sampled
    load timeline, so it flags exactly what the rebalancer would act
    on. *)

val hot : threshold:float -> n:int -> total:float -> float -> bool
(** [hot ~threshold ~n ~total load]: [load *. float n > threshold *.
    total] — the switch served more than [threshold] times the fair
    share [total / n] of the window's misses.  Division-free, so a
    share of exactly [threshold]× fair is not hot.  With whole miss
    counts and [threshold > 1] it flags nothing in an empty window and
    nothing when there is a single authority. *)

type streaks
(** Per-authority count of consecutive hot windows. *)

val streaks : threshold:float -> streaks
(** No authority hot yet.
    @raise Invalid_argument if [threshold <= 1.0]. *)

val observe : streaks -> (int * float) list -> unit
(** One window's [(authority, misses)] over every authority: each
    streak grows by one where {!hot}, and drops to 0 elsewhere.
    Authorities not listed are forgotten. *)

val streak : streaks -> int -> int
(** Consecutive hot windows ending with the last {!observe}. *)

val clear : streaks -> unit
(** Every streak back to 0. *)

type event = {
  window_start : float;
  window_end : float;
  switch_id : int;
  load : float;  (** this switch's misses in the window *)
  total : float;  (** all switches' misses in the window *)
  share : float;  (** [load / total] *)
  ratio : float;  (** [share / (1/n)] — 1.0 is exactly fair *)
}

val detect :
  threshold:float -> windows:int -> (int * (float * float) array) list -> event list
(** [detect ~threshold ~windows series] over per-switch {e cumulative}
    load timelines, each point [(time, misses so far)], sampled at
    common boundaries.  Every inter-sample window feeds {!observe}; a
    switch is reported in each window where its streak has reached
    [windows], so [~windows:1] lists every hot window and a transient
    one-window spike never survives [~windows:2].  Events are ordered by
    window, then switch id.  Series shorter than the longest are flat at
    their last value.
    @raise Invalid_argument if [threshold <= 1.0] or [windows < 1]. *)

val worst : event list -> event option
(** The event with the highest ratio (ties: earliest window, lowest
    switch id) — the headline number for reports. *)

val pp_event : Format.formatter -> event -> unit
