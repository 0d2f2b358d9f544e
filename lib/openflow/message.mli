(** The control-plane protocol.

    An OpenFlow-1.0-flavoured message set: the subset DIFANE's controller
    needs (flow-mod, barrier, per-flow stats, flow-removed) plus DIFANE's
    partition-table transfers.  There is no packet-in/out: DIFANE
    switches never punt packets, and the simulator answers a degraded
    miss on the controller path directly
    ([Deployment.controller_serve]).

    Messages carry a [bank] tag telling the receiving switch which of its
    three priority banks (cache > authority > partition) the flow-mod
    targets; in the paper this is encoded in priority ranges, here it is
    explicit and type-checked. *)

type bank = Cache | Authority | Partition

type flow_mod_command = Add | Delete | Delete_strict

type flow_mod = {
  command : flow_mod_command;
  bank : bank;
  rule : Rule.t;
  idle_timeout : float option;
  hard_timeout : float option;
}

type stats_request = { table_bank : bank; cookie : int }

type flow_stats = { rule_id : int; packets : int64; bytes : int64; duration : float }

type stats_reply = { request_cookie : int; flows : flow_stats list }

type removed_reason = Idle_timeout | Hard_timeout | Evicted | Deleted | Replaced

type flow_removed = {
  removed_rule : int;  (** rule id *)
  cookie : int;
      (** opaque value set at install time; DIFANE stores the origin
          policy-rule id of a spliced cache entry here ([-1] if unset).
          Travels as an unsigned 32-bit field whose all-ones value is
          [-1], so it carries [\[-1, 2^32 - 1)]. *)
  reason : removed_reason;
  final_packets : int64;
  final_bytes : int64;
  lifetime : float;  (** seconds installed *)
}

type table_transfer = {
  pid : int;  (** partition id *)
  region : Pred.t;
  table_rules : Rule.t list;  (** clipped authority rules, table order *)
}

type t =
  | Hello
  | Echo_request of int
  | Echo_reply of int
  | Flow_mod of flow_mod
  | Barrier_request of int
  | Barrier_reply of int
  | Stats_request of stats_request
  | Stats_reply of stats_reply
  | Flow_removed of flow_removed
      (** switch→controller: a flow entry expired or was evicted, with
          its final counters — how the controller keeps per-rule counts
          exact across cache churn *)
  | Install_partition of table_transfer
      (** controller→switch: atomically install (or replace) one
          partition's authority table — the bundle-style transfer the
          controller uses for initial installation, policy updates and
          backup replication *)
  | Drop_partition of int
      (** controller→switch: remove the authority table for a partition *)
  | Ack of int
      (** switch→controller: positive acknowledgement of a state-changing
          request ([Flow_mod]/[Install_partition]/[Drop_partition]) that
          has no reply of its own, carrying the request's xid — what the
          controller's retransmission machinery keys on when the control
          channel is lossy *)

(** {1 Wire format}

    A compact binary framing (20-byte header: version, type, length, xid,
    the sender's {e epoch}, and an FNV-1a checksum of the rest of the
    frame — same spirit as OpenFlow 1.0) used by the tests to guarantee
    the control channel is serialisable, and by the simulator to charge
    realistic message sizes to control links.  The checksum means a byte
    flipped in flight is {e detected} at decode time (it cannot silently
    install a different rule), so a lossy channel can drop-and-count
    corrupt frames and rely on retransmission.

    The epoch implements {e fencing} for replicated controllers: every
    control frame carries the sending master's epoch, a switch rejects
    frames from a stale epoch, and replies always carry the switch's
    current epoch so a deposed leader learns it lost.  Epoch [0] means
    "unfenced" (single-controller deployments never reject). *)

val encode : xid:int -> ?epoch:int -> t -> Bytes.t
(** [epoch] defaults to [0] (unfenced).  A rule's id travels as an
    unsigned 32-bit field and its priority as a signed one.
    @raise Invalid_argument if the frame is over 65,535 bytes, the most
    its 16-bit length field can describe (an [Install_partition] of
    about 670 five-tuple rules), or if a rule's id is outside
    [\[0, 2^32)] or its priority outside the int32 range, or if a
    [Flow_removed] cookie is outside [\[-1, 2^32 - 1)]. *)

val decode : Schema.t -> Bytes.t -> (int * int * t, string) result
(** Returns [(xid, epoch, message)].  The schema is needed to rebuild
    predicates and headers.  Errors on truncated or corrupt frames, and
    on an [Install_partition] table that {!read_rules} rejects, rather
    than raising. *)

val fnv1a : ?hole:int * int -> ?off:int -> ?len:int -> Bytes.t -> int64
(** FNV-1a hash of [len] bytes of a buffer from [off] (default: all of
    it), with an optional [(offset, length)] window, relative to [off],
    treated as zero (where the checksum itself is stored).  Shared with
    the journal's record framing. *)

(** {1 Byte codec}

    The big-endian writer and bounds-checked reader every frame is built
    from, shared with the journal so one reader decodes every external
    byte. *)

module W : sig
  val u8 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit
  val u64 : Buffer.t -> int64 -> unit
  val f64 : Buffer.t -> float -> unit
end

module R : sig
  type t
  (** A cursor over a window of a buffer.  Every read returns a plain
      value and advances, or raises {!Malformed} when fewer bytes remain
      in the window than the read needs. *)

  exception Malformed of string
  (** Raised by the reads and by {!fail}; each decoder built on the
      cursor catches it once, at its entry point, and returns [Error]. *)

  val create : Bytes.t -> t
  val pos : t -> int
  val at_end : t -> bool
  val remaining : t -> int

  val fail : string -> 'a
  (** Raise {!Malformed}. *)

  val u8 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val f64 : t -> float

  val sub : t -> int -> t
  (** The next [n] bytes as a cursor of their own, consumed from this
      one; nothing is copied. *)

  val list : t -> int -> (t -> 'a) -> 'a list
  (** [list r n read]: [n] items read in order.  Nothing is allocated
      ahead of the reads, so a forged count fails at the first short
      read. *)
end

val rules_to_bytes : Rule.t list -> Bytes.t
(** Length-prefixed rule-list codec built on the frame codec's rule
    encoding — the journal uses it to persist policies and tables.
    @raise Invalid_argument on a rule id or priority {!encode} rejects. *)

val read_rules : Schema.t -> R.t -> Rule.t list
(** Decode {!rules_to_bytes}' output filling the rest of the cursor's
    window.  The one owner of table validity: what it returns is strictly
    increasing under {!Rule.compare_priority} and repeats no id, so a
    caller builds its classifier with {!Classifier.of_table_order}.  An
    [Install_partition] table and the journal's rule lists are read here.
    @raise R.Malformed on truncated, corrupt or trailing bytes, on rules
    out of table order, or on a repeated id. *)

val rules_of_bytes : Schema.t -> Bytes.t -> (Rule.t list, string) result
(** {!read_rules} over a whole buffer. *)
