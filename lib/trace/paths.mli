(** Packet-path reconstruction, causal invariants and trace queries.

    The read side of {!Ptrace}: group the shard-merged postcard stream
    into per-packet paths, judge each path's outcome, check the causal
    properties DIFANE's correctness story rests on, and render the
    result as text or [difane-paths-v1] JSON.  Everything here is a
    pure function of the postcard stream, so two runs that emitted the
    same postcards — e.g. the same seed at different domain counts —
    produce byte-identical output.

    The invariants ([check]):

    - {b terminal}: every complete path ends in exactly one
      {!Ptrace.Deliver}/{!Ptrace.Drop} postcard; only deferred
      {!Ptrace.Install}/{!Ptrace.Replace} postcards (the install
      message lands off the packet's critical path) may follow it;
    - {b no-loop}: within each tunnel leg (a maximal run of consecutive
      {!Ptrace.Transit} hops) no switch repeats;
    - {b hit-install}: every cache hit was preceded, in the shard's
      emission order, by an install of that rule at that switch still
      live (not replaced/invalidated) at hit time — skipped when the
      ring wrapped, because install history may be lost;
    - {b install-cause}: every in-path install carrying provenance was
      preceded in its path by an authority serve or controller
      fallback; {b serve-cause}: every authority serve by an ingress
      miss;
    - {b backpressure}: a backpressured miss is never subsequently
      authority-served; it ends at the controller or in a drop;
    - {b queue-drop}: a path terminally dropped with reason
      [queue_full] contains a congestion-layer {!Ptrace.Queue_drop}
      postcard, and vice versa — the cross-layer consistency check
      between the simulators' verdicts and the congestion model. *)

type hop = { at : float; kind : Ptrace.kind; switch : int; rule : int; aux : int }

type path = {
  shard : int;
  pkt : int;
  key_lo : int;  (** packed 5-tuple key, {!Header.key_lo} lanes *)
  key_hi : int;
  hops : hop list;  (** emission order *)
  truncated : bool;  (** ring wraparound ate this path's prefix *)
}

type outcome = Delivered | Dropped of int  (** drop reason code *) | Incomplete

val outcome : path -> outcome
(** The path's last terminal postcard; [Incomplete] if none survived. *)

type trace = {
  all : Ptrace.postcard array;  (** the raw shard-merged stream *)
  paths : path list;  (** sorted by [(shard, pkt)] *)
  emitted : int;
  overwritten : int;
}

val reconstruct : unit -> trace
(** Group the live {!Ptrace} rings into paths. *)

val of_postcards : ?wrapped:(int -> bool) -> Ptrace.postcard array -> trace
(** The same reconstruction over an explicit postcard stream (tests
    build corrupted ones).  [wrapped shard] says whether that shard's
    ring overwrote history (default: never). *)

val check : trace -> string list
(** Violated causal invariants, [[]] when all hold.  Truncated paths
    are skipped (wraparound is reported by the renderers, not judged);
    at most 20 violations are spelled out, with a final [... n more]
    line beyond that. *)

(** {1 Queries} *)

type query = {
  q_key : (int * int) option;  (** exact packed 5-tuple key (lo, hi) *)
  q_switch : int option;  (** any hop at this switch *)
  q_outcome : [ `Delivered | `Dropped | `Incomplete ] option;
  q_since : float option;  (** first hop at or after *)
  q_until : float option;  (** first hop at or before *)
}

val select : query -> trace -> path list

(** {1 Rendering} *)

val pp :
  ?describe:(origin:int -> pid:int -> string option) ->
  ?limit:int ->
  Format.formatter ->
  path list ->
  unit
(** Human-readable paths, at most [limit] (default 20) spelled out.
    [describe] is the provenance join: given the [(origin, pid)] pair
    off a {!Ptrace.Cache_hit}/{!Ptrace.Install} postcard it renders
    the chain (policy rule → partition → authority) —
    {!Monitor.describe_provenance} is the canonical source. *)

val pp_summary : Format.formatter -> trace -> unit
(** One block of totals: postcards, wraparound, paths per outcome. *)

val to_json : ?paths:path list -> trace -> string
(** The [difane-paths-v1] document.  [paths] (default: all of them)
    substitutes a filtered selection; the header totals always describe
    the whole trace. *)
