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
  removed_rule : int;
  cookie : int;
  reason : removed_reason;
  final_packets : int64;
  final_bytes : int64;
  lifetime : float;
}

type table_transfer = { pid : int; region : Pred.t; table_rules : Rule.t list }

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
  | Install_partition of table_transfer
  | Drop_partition of int
  | Ack of int

(* ---- wire format ---- *)

let version = 0x02

let type_code = function
  | Hello -> 0
  | Echo_request _ -> 2
  | Echo_reply _ -> 3
  | Flow_mod _ -> 14
  | Barrier_request _ -> 18
  | Barrier_reply _ -> 19
  | Stats_request _ -> 16
  | Stats_reply _ -> 17
  | Flow_removed _ -> 11
  | Install_partition _ -> 30
  | Drop_partition _ -> 31
  | Ack _ -> 32

module W = struct
  let u8 b v = Buffer.add_uint8 b (v land 0xff)
  let u16 b v = Buffer.add_uint16_be b (v land 0xffff)
  let u32 b v = Buffer.add_int32_be b (Int32.of_int v)
  let u64 b v = Buffer.add_int64_be b v
  let f64 b v = u64 b (Int64.bits_of_float v)
end

(* A raising cursor: every read returns a plain value and advances, or
   raises [Malformed] when the bytes run out.  Decoders read straight-line
   and turn [Malformed] into [Error] once, at their entry point. *)
module R = struct
  exception Malformed of string

  type t = { buf : Bytes.t; mutable pos : int; stop : int }

  let create buf = { buf; pos = 0; stop = Bytes.length buf }
  let pos r = r.pos
  let at_end r = r.pos = r.stop
  let remaining r = r.stop - r.pos
  let fail e = raise_notrace (Malformed e)

  (* the position of the next [n] bytes, consumed *)
  let[@inline] take r n =
    let p = r.pos in
    if n < 0 || n > r.stop - p then fail "truncated frame";
    r.pos <- p + n;
    p

  let[@inline] u8 r = Bytes.get_uint8 r.buf (take r 1)
  let[@inline] u16 r = Bytes.get_uint16_be r.buf (take r 2)
  let[@inline] u32 r = Int32.to_int (Bytes.get_int32_be r.buf (take r 4)) land 0xffffffff
  let[@inline] i32 r = Int32.to_int (Bytes.get_int32_be r.buf (take r 4))
  let[@inline] u64 r = Bytes.get_int64_be r.buf (take r 8)
  let f64 r = Int64.float_of_bits (u64 r)

  let sub r n =
    let p = take r n in
    { buf = r.buf; pos = p; stop = p + n }

  (* [n] items in order; a forged count stops at the first short read,
     so the list never outgrows the bytes behind it *)
  let[@tail_mod_cons] rec list r n read =
    if n <= 0 then []
    else
      let x = read r in
      x :: list r (n - 1) read
end

let encode_pred b pred =
  W.u8 b (Pred.arity pred);
  for i = 0 to Pred.arity pred - 1 do
    let f = Pred.field pred i in
    W.u8 b (Ternary.width f);
    W.u64 b (Ternary.value f);
    W.u64 b (Ternary.mask f)
  done

let decode_pred schema r =
  if R.u8 r <> Schema.arity schema then R.fail "predicate arity mismatch";
  Pred.init schema (fun i ->
      let width = R.u8 r in
      let value = R.u64 r in
      let mask = R.u64 r in
      if width <> Schema.field_bits schema i then R.fail "field width mismatch";
      Ternary.make ~width ~value ~mask)

let encode_action b = function
  | Action.Forward p ->
      W.u8 b 0;
      W.u32 b p
  | Action.Drop -> W.u8 b 1
  | Action.Count_and_forward p ->
      W.u8 b 2;
      W.u32 b p
  | Action.To_authority a ->
      W.u8 b 3;
      W.u32 b a
  | Action.Redirect_controller -> W.u8 b 4

let decode_action r =
  match R.u8 r with
  | 0 -> Action.Forward (R.u32 r)
  | 1 -> Action.Drop
  | 2 -> Action.Count_and_forward (R.u32 r)
  | 3 -> Action.To_authority (R.u32 r)
  | 4 -> Action.Redirect_controller
  | _ -> R.fail "unknown action tag"

let bank_code = function Cache -> 0 | Authority -> 1 | Partition -> 2

let decode_bank r =
  match R.u8 r with
  | 0 -> Cache
  | 1 -> Authority
  | 2 -> Partition
  | _ -> R.fail "unknown bank"

let encode_timeout b = function
  | None -> W.u8 b 0
  | Some v ->
      W.u8 b 1;
      W.f64 b v

let decode_timeout r =
  match R.u8 r with
  | 0 -> None
  | 1 -> Some (R.f64 r)
  | _ -> R.fail "bad timeout tag"

(* An id is an unsigned 32-bit field and a priority a signed one; a value
   outside either would come back as a different rule. *)
let encode_rule b (rule : Rule.t) =
  if rule.id < 0 || rule.id > 0xffffffff then
    invalid_arg (Printf.sprintf "Message: rule id %d is outside [0, 2^32)" rule.id);
  if rule.priority < -0x80000000 || rule.priority > 0x7fffffff then
    invalid_arg
      (Printf.sprintf "Message: rule %d's priority %d is outside the int32 range" rule.id
         rule.priority);
  W.u32 b rule.id;
  W.u32 b rule.priority;
  encode_pred b rule.pred;
  encode_action b rule.action

let decode_rule schema r =
  let id = R.u32 r in
  let priority = R.i32 r in
  let pred = decode_pred schema r in
  let action = decode_action r in
  Rule.make ~id ~priority pred action

let rec in_table_order = function
  | a :: (b :: _ as rest) -> Rule.compare_priority a b < 0 && in_table_order rest
  | _ -> true

let distinct_ids rules =
  let ids = Array.make (List.length rules) 0 in
  List.iteri (fun i (rule : Rule.t) -> ids.(i) <- rule.id) rules;
  Array.sort Int.compare ids;
  let ok = ref true in
  for i = 1 to Array.length ids - 1 do
    if ids.(i) = ids.(i - 1) then ok := false
  done;
  !ok

(* The one reader of a rule list — a partition table, a journaled policy
   or update — returns a table: strictly increasing in table order (one
   pass, nothing allocated), each id once (one sorted int array). *)
let read_rules schema r =
  let count = R.u32 r in
  let rules = R.list r count (decode_rule schema) in
  if not (in_table_order rules) then R.fail "rules out of table order";
  if not (distinct_ids rules) then R.fail "duplicate rule ids";
  if not (R.at_end r) then R.fail "trailing bytes";
  rules

let encode_body b = function
  | Hello -> ()
  | Echo_request c | Echo_reply c -> W.u32 b c
  | Barrier_request x | Barrier_reply x -> W.u32 b x
  | Flow_mod f ->
      W.u8 b (match f.command with Add -> 0 | Delete -> 1 | Delete_strict -> 2);
      W.u8 b (bank_code f.bank);
      encode_timeout b f.idle_timeout;
      encode_timeout b f.hard_timeout;
      encode_rule b f.rule
  | Stats_request s ->
      W.u8 b (bank_code s.table_bank);
      W.u32 b s.cookie
  | Stats_reply s ->
      W.u32 b s.request_cookie;
      W.u32 b (List.length s.flows);
      List.iter
        (fun f ->
          W.u32 b f.rule_id;
          W.u64 b f.packets;
          W.u64 b f.bytes;
          W.f64 b f.duration)
        s.flows
  | Install_partition t ->
      W.u32 b t.pid;
      encode_pred b t.region;
      W.u32 b (List.length t.table_rules);
      List.iter (encode_rule b) t.table_rules
  | Drop_partition pid -> W.u32 b pid
  | Ack x -> W.u32 b x
  | Flow_removed f ->
      W.u32 b f.removed_rule;
      if f.cookie < -1 || f.cookie >= 0xffffffff then
        invalid_arg (Printf.sprintf "Message: cookie %d is outside [-1, 2^32 - 1)" f.cookie);
      W.u32 b f.cookie;
      W.u8 b
        (match f.reason with
        | Idle_timeout -> 0
        | Hard_timeout -> 1
        | Evicted -> 2
        | Deleted -> 3
        | Replaced -> 4);
      W.u64 b f.final_packets;
      W.u64 b f.final_bytes;
      W.f64 b f.lifetime

let decode_flow_stats r =
  let rule_id = R.u32 r in
  let packets = R.u64 r in
  let bytes = R.u64 r in
  let duration = R.f64 r in
  { rule_id; packets; bytes; duration }

let decode_body schema r = function
  | 0 -> Hello
  | 2 -> Echo_request (R.u32 r)
  | 3 -> Echo_reply (R.u32 r)
  | 18 -> Barrier_request (R.u32 r)
  | 19 -> Barrier_reply (R.u32 r)
  | 14 ->
      let command =
        match R.u8 r with
        | 0 -> Add
        | 1 -> Delete
        | 2 -> Delete_strict
        | _ -> R.fail "unknown flow_mod command"
      in
      let bank = decode_bank r in
      let idle_timeout = decode_timeout r in
      let hard_timeout = decode_timeout r in
      let rule = decode_rule schema r in
      Flow_mod { command; bank; rule; idle_timeout; hard_timeout }
  | 16 ->
      let table_bank = decode_bank r in
      let cookie = R.u32 r in
      Stats_request { table_bank; cookie }
  | 17 ->
      let request_cookie = R.u32 r in
      let count = R.u32 r in
      let flows = R.list r count decode_flow_stats in
      Stats_reply { request_cookie; flows }
  | 11 ->
      let removed_rule = R.u32 r in
      let cookie = match R.u32 r with 0xffffffff -> -1 | c -> c in
      let reason =
        match R.u8 r with
        | 0 -> Idle_timeout
        | 1 -> Hard_timeout
        | 2 -> Evicted
        | 3 -> Deleted
        | 4 -> Replaced
        | _ -> R.fail "unknown removal reason"
      in
      let final_packets = R.u64 r in
      let final_bytes = R.u64 r in
      let lifetime = R.f64 r in
      Flow_removed { removed_rule; cookie; reason; final_packets; final_bytes; lifetime }
  | 30 ->
      let pid = R.u32 r in
      let region = decode_pred schema r in
      let table_rules = read_rules schema r in
      Install_partition { pid; region; table_rules }
  | 31 -> Drop_partition (R.u32 r)
  | 32 -> Ack (R.u32 r)
  | _ -> R.fail "unknown message type"

(* FNV-1a over [len] bytes of a buffer from [off], treating [hole] (an
   [(offset, length)] window relative to [off], e.g. a frame's checksum
   slot) as zero.  Not cryptographic — it only needs to catch the
   simulator's fault injector flipping bytes in flight, and it doubles as
   the journal's record checksum.  Three loops, before, inside and after
   the hole, keep the per-byte step a bare xor and multiply. *)
let fnv1a ?hole ?(off = 0) ?len buf =
  let stop = match len with Some n -> off + n | None -> Bytes.length buf in
  let lo, hi =
    match hole with
    | None -> (stop, stop)
    | Some (o, n) ->
        let lo = min stop (off + o) in
        (lo, min stop (lo + n))
  in
  let h = ref 0xcbf29ce484222325L in
  for i = off to lo - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Bytes.get_uint8 buf i))) 0x100000001b3L
  done;
  for _ = lo to hi - 1 do
    h := Int64.mul !h 0x100000001b3L
  done;
  for i = hi to stop - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Bytes.get_uint8 buf i))) 0x100000001b3L
  done;
  !h

let checksum buf = fnv1a ~hole:(12, 8) buf

(* the largest frame the u16 length field can describe *)
let max_frame = 0xffff

(* The header goes first with zero length and checksum, the body after
   it in the same buffer; both slots are patched once the length is
   known. *)
let encode ~xid ?(epoch = 0) t =
  let b = Buffer.create 64 in
  W.u8 b version;
  W.u8 b (type_code t);
  W.u16 b 0;
  W.u32 b xid;
  W.u32 b epoch;
  W.u64 b 0L;
  encode_body b t;
  let len = Buffer.length b in
  if len > max_frame then
    invalid_arg
      (Printf.sprintf "Message.encode: %d-byte frame exceeds the %d-byte frame limit" len
         max_frame);
  let bytes = Buffer.to_bytes b in
  Bytes.set_uint16_be bytes 2 len;
  Bytes.set_int64_be bytes 12 (checksum bytes);
  bytes

let decode schema buf =
  try
    let r = R.create buf in
    if R.u8 r <> version then R.fail "bad version";
    let ty = R.u8 r in
    if R.u16 r <> Bytes.length buf then R.fail "length mismatch";
    let xid = R.u32 r in
    let epoch = R.u32 r in
    if not (Int64.equal (R.u64 r) (checksum buf)) then R.fail "checksum mismatch";
    let msg = decode_body schema r ty in
    if not (R.at_end r) then R.fail "trailing bytes";
    Ok (xid, epoch, msg)
  with R.Malformed e -> Error e

(* ---- rule-list codec, shared with the journal ---- *)

let rules_to_bytes rules =
  let b = Buffer.create 256 in
  W.u32 b (List.length rules);
  List.iter (encode_rule b) rules;
  Buffer.to_bytes b

let rules_of_bytes schema buf =
  try Ok (read_rules schema (R.create buf)) with R.Malformed e -> Error e
