(** Causal packet-path tracing: postcard rings.

    NetSight-style packet histories for the DIFANE planes: every hop
    event a packet causes — ingress TCAM verdict (with the matched rule
    id and its provenance), tunnel transit, authority redirect,
    cache-rule install/replace/invalidate, controller fallback,
    congestion drop/ECN/backpressure — appends one fixed-width,
    int-packed {e postcard} to a bounded ring.  {!Paths} reconstructs
    per-packet paths from the rings and checks the causal invariants;
    [difane paths] queries them.

    Engineering constraints, matching the PR-8 hot-path standard:

    - {b zero-allocation emission}: a ring is a structure of scalar
      arrays (time, kind, switch, rule, aux, packet id, packed 5-tuple
      key); {!emit} writes eight lanes in place.  Disabled, an emission
      site is one atomic load and a branch — cheap enough to compile
      into every verdict dispatch and port booking in the tree;
    - {b deterministic sharded merge}: under {!Flowsim.run_sharded}
      each shard {!bind}s its own ring, and the read side concatenates
      rings in {e shard-index order} — the PR-8 engine merge rule — so
      the reconstructed paths (and their JSON) are byte-identical at
      any domain count;
    - {b bounded memory}: rings overwrite oldest-first; {!overwritten}
      reports how much history was lost so the checker can refuse to
      judge truncated paths.

    Emission context is domain-local: a simulator {!bind}s a shard ring
    once per run and {!begin_packet}/{!resume_packet} stamp the current
    packet id and 5-tuple key, so the switch, congestion and data-plane
    layers emit without any API threading.  Unbound domains fall back
    to ring 0 — the single-domain default.  Tracing is off by default
    and meant to be toggled outside runs, from the domain that spawns
    the workers. *)

(** What happened at this hop.  The [rule]/[aux] lanes are
    kind-specific; see the emission sites. *)
type kind =
  | Cache_hit  (** ingress cache-bank hit; rule = cache rule id, aux = packed provenance *)
  | Authority_hit  (** authority-bank local hit; rule = policy rule id *)
  | Miss  (** partition-bank tunnel verdict; aux = nominal authority switch *)
  | Transit  (** one forwarded hop; switch = node entered, aux = 1 if ECN-marked *)
  | Authority_serve  (** authority spliced the miss; rule = origin rule id, aux = pid *)
  | Install  (** cache rule installed; rule = cache rule id, aux = packed provenance *)
  | Replace  (** cache entry displaced; rule = victim id, aux = {!replace_evicted}.. *)
  | Invalidate  (** cache entry scrubbed; rule = victim id, aux = {!invalidate_migration}.. *)
  | Controller  (** controller fallback served the packet; aux = 0 failure, 1 backpressure *)
  | Backpressure  (** credit low-water deferral; switch = saturated authority *)
  | Ecn  (** congestion model marked the packet; switch = port's from-node, aux = depth *)
  | Queue_drop  (** congestion model shed the packet at a port buffer; switch = from-node *)
  | Drop  (** terminal: packet dropped; aux = a [drop_*] reason code *)
  | Deliver  (** terminal: packet delivered; switch = egress, aux = 1 if cache hit *)

val kind_name : kind -> string
(** Lower-snake name, e.g. ["authority_serve"] — the JSON spelling. *)

(** {1 Reason codes} *)

(** [aux] codes of {!Drop} postcards. *)

val drop_unmatched : int
val drop_misconfigured : int
val drop_unreachable : int
val drop_no_authority : int
val drop_queue_full : int
val drop_rejected : int
(** the setup queue (authority or controller server) refused the miss *)

val drop_outage : int
(** no live controller replica behind a failed/backpressured miss *)

val drop_reason_name : int -> string

(** [aux] codes of {!Replace} postcards. *)

val replace_evicted : int

val replace_displaced : int
(** a same-id reinstall displaced the entry *)

val replace_idle : int
val replace_hard : int

(** [aux] codes of {!Invalidate} postcards. *)

val invalidate_migration : int

val invalidate_delete : int
(** an explicit control-plane cache delete *)

val invalidate_cover_orphan : int
(** a surviving cover-set member scrubbed because its group lost a member
    (cover sets are only sound while complete) *)

(** {1 Provenance packing} *)

val pack_provenance : origin:int -> pid:int -> int
(** The [(origin rule, partition id)] pair of {!Cache_hit}/{!Install}
    postcards, packed into one lane ([-1] = unknown, packs with [-1]
    for both to [0]).  Both components must fit 21 bits — policy rule
    ids and pids do by construction. *)

val provenance_origin : int -> int
val provenance_pid : int -> int

(** {1 Recording} *)

val enable : ?capacity:int -> unit -> unit
(** Start recording into fresh rings ([capacity] postcards per shard
    ring, default 65536) and clear this domain's binding.
    @raise Invalid_argument if [capacity < 1]. *)

val disable : unit -> unit
(** Stop recording (rings stay readable) and fold the postcard tallies
    into the [ptrace_postcards]/[ptrace_overwritten] registry counters. *)

val bind : shard:int -> unit
(** Route this domain's emissions to [shard]'s ring (created on first
    use).  No-op when disabled.  A sharded simulator calls this at the
    top of each shard's run; shard indices must be distinct across
    concurrent binds — one writer per ring. *)

(** {1 Emission} *)

val begin_packet : Header.t -> int
(** [begin_packet h]: allocate the next packet id in the bound ring
    and stamp the context (packet id + packed 5-tuple key) subsequent
    {!emit}s attribute to.  Returns the id ([-1] when disabled) for
    {!resume_packet}.  Postcards carry their own times. *)

val begin_packet_key : lo:int -> hi:int -> int
(** {!begin_packet} for callers that identify packets by a bare packed
    key instead of a {!Header.t} (the standalone cache simulator keys
    its stream by small ints). *)

val resume_packet : pkt:int -> Header.t -> unit
(** Restore the packet context inside a deferred continuation (event
    callbacks interleave packets, so each callback re-stamps before
    emitting).  No-op when disabled. *)

val emit : at:float -> kind -> switch:int -> rule:int -> aux:int -> unit
(** Append one postcard for the current packet context.  Disabled: one
    load and a branch.  Enabled: eight scalar stores, no allocation. *)

val emit_control : at:float -> kind -> switch:int -> rule:int -> aux:int -> unit
(** A control-plane postcard (packet id [-1], no key): cache scrubs,
    expiry, control-pushed installs — events not caused by the packet
    currently in context. *)

(** {1 Read-back} *)

type postcard = {
  at : float;  (** simulated seconds *)
  shard : int;
  pkt : int;  (** per-shard packet id; [-1] = control plane *)
  kind : kind;
  switch : int;
  rule : int;
  aux : int;
  key_lo : int;  (** packed 5-tuple key lanes ({!Header.key_lo}) *)
  key_hi : int;
}

val postcards : unit -> postcard array
(** Every surviving postcard: rings in shard-index order, each ring
    oldest-first — the deterministic merge. *)

val emitted : unit -> int
(** Postcards emitted since {!enable}, across all rings, including any
    the rings have overwritten. *)

val overwritten : unit -> int
(** Postcards lost to ring wraparound, across all rings. *)

val shard_wrapped : int -> bool
(** Did [shard]'s ring overwrite anything?  (False for unknown shards.) *)
