(** The controller's write-ahead journal.

    Replicated controllers need the standby to reconstruct the leader's
    {e exact} deployment state at takeover.  Rather than replicating the
    deployment object (big, and full of derived state), the leader
    journals every {e decision} — the initial build, policy updates,
    authority failovers and restorations, liveness verdicts, rebalances,
    epoch bumps — as deterministic, replayable entries.  Replaying the
    journal through the same deployment code rebuilds the same state:
    the journal is the ground truth, the deployment is its cache.

    Entries are kept in two segments: a {e snapshot} base (a compacted
    entry list that summarises everything before it) and the tail of
    entries appended since.  Snapshotting periodically keeps replay cost
    bounded; a snapshot is itself just entries, so replay code does not
    distinguish the two.

    The binary codec frames every record with a magic byte, sequence
    number, timestamp and an FNV-1a checksum (the same framing discipline
    as {!Message}'s wire format), so a journal round-trips through bytes
    and a corrupted record is detected, not silently replayed.  Encoding
    is canonical: two runs that made the same decisions encode to
    byte-identical journals — the E-HA experiment's replay check. *)

type migration = {
  mid : int;  (** migration id, unique within the journal *)
  src_pid : int;
  src_region : Pred.t;
  src_replicas : int list;  (** replica switches holding [src_pid], primary first *)
  lo_pid : int;
  lo_region : Pred.t;
  lo_replicas : int list;
  hi_pid : int;
  hi_region : Pred.t;
  hi_replicas : int list;
}
(** A staged region migration: the overloaded partition [src_pid] is
    re-cut into [lo_pid] (kept at the source replicas) and [hi_pid]
    (moved to an underloaded authority).  The full split spec — regions
    and replica placements — is journaled so replay reproduces the live
    engine's decision exactly instead of re-running the partitioner. *)

type entry =
  | Build of { policy : Rule.t list; authority_ids : int list }
      (** initial deployment: the policy, in table order, and the
          authority pool *)
  | Policy_update of { rules : Rule.t list; strict : bool }
      (** the new policy, in table order *)
  | Fail_authority of int  (** authority failover away from this switch *)
  | Restore_authority of int  (** a demoted switch rejoined the pool *)
  | Declared_dead of int  (** liveness verdict (non-authority switches too) *)
  | Recovered of int  (** a declared-dead switch answered again *)
  | Rebalance of (int * float) list
      (** partition re-placement from these measured per-partition loads *)
  | Epoch of { epoch : int; leader : int }
      (** leader election: [leader] took over at [epoch] *)
  | Migration_begin of migration
      (** stage 1: sub-region tables installed at their new replicas;
          ingress partition rules still point at the source *)
  | Migration_flip of int
      (** stage 2: ingress partition rules flipped to the sub-regions
          (by migration id) *)
  | Migration_commit of int
      (** stage 3: source tables retired; the migration is durable *)
  | Migration_abort of int
      (** the migration was rolled back before commit (source failure,
          or a takeover that found it not yet flipped) *)
  | Partition_layout of {
      regions : (int * Pred.t) list;
      replicas : (int * int list) list;
    }
      (** snapshot summary of the current partition table: every region
          by pid plus its replica placement — preserves re-cuts and
          rebalances that a replayed [Build] could not reproduce *)

type t

val create : unit -> t

val append : t -> at:float -> entry -> int
(** Record a decision; returns its sequence number (monotonic from 0,
    surviving snapshots). *)

val tail_length : t -> int
(** Records appended since the last snapshot — what {!snapshot} resets. *)

val snapshot : t -> at:float -> entry list -> unit
(** Replace everything recorded so far with [entries], a compacted
    summary of the state they rebuilt (produced by the leader from its
    live state).  Sequence numbers keep counting — a snapshot compacts
    history, it does not rewrite it. *)

val entries : t -> (int * float * entry) list
(** All records in replay order, as [(seq, at, entry)]. *)

val replay : t -> (entry -> unit) -> unit
(** Apply every entry in order — snapshot base first, then the tail. *)

(** {1 Binary codec} *)

val encode : t -> Bytes.t
(** Canonical bytes: deterministic in the record sequence. *)

val decode : Schema.t -> Bytes.t -> (t, string) result
(** Rebuild a journal from {!encode}'s output.  Errors (rather than
    raising) on truncation, bad magic, unknown kinds, a record whose
    checksum does not match, or a rule list {!Message.read_rules} rejects
    — a corrupt journal must never be silently replayed. *)
