type migration = {
  mid : int;
  src_pid : int;
  src_region : Pred.t;
  src_replicas : int list;
  lo_pid : int;
  lo_region : Pred.t;
  lo_replicas : int list;
  hi_pid : int;
  hi_region : Pred.t;
  hi_replicas : int list;
}

type entry =
  | Build of { policy : Rule.t list; authority_ids : int list }
  | Policy_update of { rules : Rule.t list; strict : bool }
  | Fail_authority of int
  | Restore_authority of int
  | Declared_dead of int
  | Recovered of int
  | Rebalance of (int * float) list
  | Epoch of { epoch : int; leader : int }
  | Migration_begin of migration
  | Migration_flip of int
  | Migration_commit of int
  | Migration_abort of int
  | Partition_layout of {
      regions : (int * Pred.t) list;
      replicas : (int * int list) list;
    }

type record = { seq : int; at : float; snap : bool; entry : entry }

let m_appends = Telemetry.counter "journal_appends"
let m_snapshots = Telemetry.counter "journal_snapshots"
let m_replayed = Telemetry.counter "journal_replayed"

type t = {
  mutable base : record list;  (* snapshot, replay order *)
  mutable tail : record list;  (* appended since, reverse order *)
  mutable next_seq : int;
}

let create () = { base = []; tail = []; next_seq = 0 }

let append t ~at entry =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.tail <- { seq; at; snap = false; entry } :: t.tail;
  Telemetry.incr m_appends;
  seq

let tail_length t = List.length t.tail

let snapshot t ~at entries =
  Telemetry.incr m_snapshots;
  t.base <-
    List.map
      (fun entry ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        { seq; at; snap = true; entry })
      entries;
  t.tail <- []

let records t = t.base @ List.rev t.tail

let entries t = List.map (fun r -> (r.seq, r.at, r.entry)) (records t)

let replay t f =
  List.iter
    (fun r ->
      Telemetry.incr m_replayed;
      f r.entry)
    (records t)

(* ---- binary codec ----

   Per-record framing, same discipline as the control-plane wire format:

     magic u8 | kind u8 | flags u8 | len u32 | seq u32 | at f64 | checksum u64 | body

   [len] is the whole record; the FNV-1a checksum covers the record with
   its own slot (bytes 19..26) zeroed — {!Message.fnv1a}'s hole. *)

let magic = 0xd1
let header_len = 1 + 1 + 1 + 4 + 4 + 8 + 8
let checksum_off = 1 + 1 + 1 + 4 + 4 + 8

module W = Message.W
module R = Message.R

let kind_code = function
  | Build _ -> 0
  | Policy_update _ -> 1
  | Fail_authority _ -> 2
  | Restore_authority _ -> 3
  | Declared_dead _ -> 4
  | Recovered _ -> 5
  | Rebalance _ -> 6
  | Epoch _ -> 7
  | Migration_begin _ -> 8
  | Migration_flip _ -> 9
  | Migration_commit _ -> 10
  | Migration_abort _ -> 11
  | Partition_layout _ -> 12

(* Regions ride the rule-list codec as a single placeholder rule (id 0,
   priority 0, Drop): {!Message} exports no bare-predicate codec, and
   inventing a second ternary wire format here would be a third place to
   get masks wrong.  The blob is length-prefixed because, unlike the
   Build/Policy_update bodies, a region is never the final field. *)
let write_region b region =
  let blob =
    Message.rules_to_bytes [ Rule.make ~id:0 ~priority:0 region Action.Drop ]
  in
  W.u32 b (Bytes.length blob);
  Buffer.add_bytes b blob

let write_placement b (pid, region, replicas) =
  W.u32 b pid;
  W.u32 b (List.length replicas);
  List.iter (W.u32 b) replicas;
  write_region b region

let encode_body b = function
  | Build { policy; authority_ids } ->
      W.u32 b (List.length authority_ids);
      List.iter (W.u32 b) authority_ids;
      Buffer.add_bytes b (Message.rules_to_bytes policy)
  | Policy_update { rules; strict } ->
      W.u8 b (if strict then 1 else 0);
      Buffer.add_bytes b (Message.rules_to_bytes rules)
  | Fail_authority s | Restore_authority s | Declared_dead s | Recovered s -> W.u32 b s
  | Rebalance loads ->
      W.u32 b (List.length loads);
      List.iter
        (fun (pid, w) ->
          W.u32 b pid;
          W.f64 b w)
        loads
  | Epoch { epoch; leader } ->
      W.u32 b epoch;
      W.u32 b leader
  | Migration_begin m ->
      W.u32 b m.mid;
      write_placement b (m.src_pid, m.src_region, m.src_replicas);
      write_placement b (m.lo_pid, m.lo_region, m.lo_replicas);
      write_placement b (m.hi_pid, m.hi_region, m.hi_replicas)
  | Migration_flip mid | Migration_commit mid | Migration_abort mid ->
      W.u32 b mid
  | Partition_layout { regions; replicas } ->
      W.u32 b (List.length regions);
      List.iter
        (fun (pid, region) ->
          W.u32 b pid;
          write_region b region)
        regions;
      W.u32 b (List.length replicas);
      List.iter
        (fun (pid, switches) ->
          W.u32 b pid;
          W.u32 b (List.length switches);
          List.iter (W.u32 b) switches)
        replicas

let encode_record r =
  let body = Buffer.create 64 in
  encode_body body r.entry;
  let frame = Buffer.create (Buffer.length body + header_len) in
  W.u8 frame magic;
  W.u8 frame (kind_code r.entry);
  W.u8 frame (if r.snap then 1 else 0);
  W.u32 frame (Buffer.length body + header_len);
  W.u32 frame r.seq;
  W.f64 frame r.at;
  W.u64 frame 0L;
  Buffer.add_buffer frame body;
  let bytes = Buffer.to_bytes frame in
  Bytes.set_int64_be bytes checksum_off (Message.fnv1a ~hole:(checksum_off, 8) bytes);
  bytes

let encode t =
  let b = Buffer.create 1024 in
  List.iter (fun r -> Buffer.add_bytes b (encode_record r)) (records t);
  Buffer.to_bytes b

(* The body readers run on a cursor over the record's body; a short read
   raises [R.Malformed], which [decode] turns into its [Error]. *)
let read_u32_list r n = R.list r n R.u32

let read_region schema r =
  let blob = R.sub r (R.u32 r) in
  match Message.read_rules schema blob with
  | [ x ] -> x.Rule.pred
  | _ -> R.fail "bad region encoding"

let read_placement schema r =
  let pid = R.u32 r in
  let replicas = read_u32_list r (R.u32 r) in
  let region = read_region schema r in
  (pid, region, replicas)

let read_load r =
  let pid = R.u32 r in
  let w = R.f64 r in
  (pid, w)

let read_located schema r =
  let pid = R.u32 r in
  let region = read_region schema r in
  (pid, region)

let read_replicas r =
  let pid = R.u32 r in
  let switches = read_u32_list r (R.u32 r) in
  (pid, switches)

let read_entry schema kind r =
  match kind with
  | 0 ->
      let authority_ids = read_u32_list r (R.u32 r) in
      let policy = Message.read_rules schema r in
      Build { policy; authority_ids }
  | 1 ->
      let s = R.u8 r in
      let rules = Message.read_rules schema r in
      Policy_update { rules; strict = s <> 0 }
  | 2 -> Fail_authority (R.u32 r)
  | 3 -> Restore_authority (R.u32 r)
  | 4 -> Declared_dead (R.u32 r)
  | 5 -> Recovered (R.u32 r)
  | 6 ->
      let n = R.u32 r in
      if R.remaining r <> 12 * n then R.fail "bad rebalance length";
      Rebalance (R.list r n read_load)
  | 7 ->
      let epoch = R.u32 r in
      let leader = R.u32 r in
      Epoch { epoch; leader }
  | 8 ->
      let mid = R.u32 r in
      let src_pid, src_region, src_replicas = read_placement schema r in
      let lo_pid, lo_region, lo_replicas = read_placement schema r in
      let hi_pid, hi_region, hi_replicas = read_placement schema r in
      Migration_begin
        {
          mid;
          src_pid;
          src_region;
          src_replicas;
          lo_pid;
          lo_region;
          lo_replicas;
          hi_pid;
          hi_region;
          hi_replicas;
        }
  | 9 -> Migration_flip (R.u32 r)
  | 10 -> Migration_commit (R.u32 r)
  | 11 -> Migration_abort (R.u32 r)
  | 12 ->
      let regions = R.list r (R.u32 r) (read_located schema) in
      let replicas = R.list r (R.u32 r) read_replicas in
      Partition_layout { regions; replicas }
  | _ -> R.fail "unknown journal entry kind"

(* A record is checksummed where it lies in [buf], and its body is read
   through a cursor over its own bytes, which the entry must account for
   whole. *)
let read_record schema buf r =
  let start = R.pos r in
  if R.u8 r <> magic then R.fail "bad journal magic";
  let kind = R.u8 r in
  let flags = R.u8 r in
  let len = R.u32 r in
  if len < header_len then R.fail "bad record length";
  let seq = R.u32 r in
  let at = R.f64 r in
  let stored = R.u64 r in
  let body = R.sub r (len - header_len) in
  if not (Int64.equal stored (Message.fnv1a ~hole:(checksum_off, 8) ~off:start ~len buf)) then
    R.fail "journal checksum mismatch";
  let entry = read_entry schema kind body in
  if not (R.at_end body) then R.fail "bad journal entry length";
  { seq; at; snap = flags land 1 = 1; entry }

let decode schema buf =
  try
    let r = R.create buf in
    let rec go acc = if R.at_end r then List.rev acc else go (read_record schema buf r :: acc) in
    let rs = go [] in
    let t = create () in
    let base, tail = List.partition (fun r -> r.snap) rs in
    t.base <- base;
    t.tail <- List.rev tail;
    t.next_seq <- List.fold_left (fun m r -> max m (r.seq + 1)) 0 rs;
    Ok t
  with R.Malformed e -> Error e
