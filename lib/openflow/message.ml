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

module R = struct
  (* cursor-based reader returning result *)
  type t = { buf : Bytes.t; mutable pos : int }

  let create buf = { buf; pos = 0 }
  let pos r = r.pos

  let need r n =
    if n < 0 || r.pos + n > Bytes.length r.buf then Error "truncated frame" else Ok ()

  let u8 r =
    match need r 1 with
    | Error e -> Error e
    | Ok () ->
        let v = Bytes.get_uint8 r.buf r.pos in
        r.pos <- r.pos + 1;
        Ok v

  let u16 r =
    match need r 2 with
    | Error e -> Error e
    | Ok () ->
        let v = Bytes.get_uint16_be r.buf r.pos in
        r.pos <- r.pos + 2;
        Ok v

  let u32 r =
    match need r 4 with
    | Error e -> Error e
    | Ok () ->
        let v = Int32.to_int (Bytes.get_int32_be r.buf r.pos) land 0xffffffff in
        r.pos <- r.pos + 4;
        Ok v

  let u64 r =
    match need r 8 with
    | Error e -> Error e
    | Ok () ->
        let v = Bytes.get_int64_be r.buf r.pos in
        r.pos <- r.pos + 8;
        Ok v

  let f64 r = Result.map Int64.float_of_bits (u64 r)

  let bytes r n =
    match need r n with
    | Error e -> Error e
    | Ok () ->
        let v = Bytes.sub r.buf r.pos n in
        r.pos <- r.pos + n;
        Ok v
end

let ( let* ) = Result.bind

let encode_pred b pred =
  W.u8 b (Pred.arity pred);
  for i = 0 to Pred.arity pred - 1 do
    let f = Pred.field pred i in
    W.u8 b (Ternary.width f);
    W.u64 b (Ternary.value f);
    W.u64 b (Ternary.mask f)
  done

let decode_pred schema r =
  let* arity = R.u8 r in
  if arity <> Schema.arity schema then Error "predicate arity mismatch"
  else
    let rec go i acc =
      if i >= arity then Ok (Pred.make schema (List.rev acc))
      else
        let* w = R.u8 r in
        let* v = R.u64 r in
        let* m = R.u64 r in
        if w <> Schema.field_bits schema i then Error "field width mismatch"
        else go (i + 1) (Ternary.make ~width:w ~value:v ~mask:m :: acc)
    in
    go 0 []

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
  let* tag = R.u8 r in
  match tag with
  | 0 ->
      let* p = R.u32 r in
      Ok (Action.Forward p)
  | 1 -> Ok Action.Drop
  | 2 ->
      let* p = R.u32 r in
      Ok (Action.Count_and_forward p)
  | 3 ->
      let* a = R.u32 r in
      Ok (Action.To_authority a)
  | 4 -> Ok Action.Redirect_controller
  | _ -> Error "unknown action tag"

let bank_code = function Cache -> 0 | Authority -> 1 | Partition -> 2

let decode_bank = function
  | 0 -> Ok Cache
  | 1 -> Ok Authority
  | 2 -> Ok Partition
  | _ -> Error "unknown bank"

let encode_timeout b = function
  | None -> W.u8 b 0
  | Some v ->
      W.u8 b 1;
      W.f64 b v

let decode_timeout r =
  let* tag = R.u8 r in
  match tag with
  | 0 -> Ok None
  | 1 ->
      let* v = R.f64 r in
      Ok (Some v)
  | _ -> Error "bad timeout tag"

let encode_rule b (rule : Rule.t) =
  W.u32 b rule.id;
  W.u32 b (rule.priority land 0x7fffffff);
  encode_pred b rule.pred;
  encode_action b rule.action

let decode_rule schema r =
  let* id = R.u32 r in
  let* priority = R.u32 r in
  let* pred = decode_pred schema r in
  let* action = decode_action r in
  Ok (Rule.make ~id ~priority pred action)

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
      W.u32 b (f.cookie land 0x7fffffff);
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

(* FNV-1a over a buffer, treating [hole] (an [(offset, length)] window,
   e.g. a frame's checksum slot) as zero.  Not cryptographic — it only
   needs to catch the simulator's fault injector flipping bytes in
   flight, and it doubles as the journal's record checksum. *)
let fnv1a ?hole buf =
  let lo, hi = match hole with None -> (0, 0) | Some (off, len) -> (off, off + len) in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length buf - 1 do
    let byte = if i >= lo && i < hi then 0 else Bytes.get_uint8 buf i in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L
  done;
  !h

let checksum buf = fnv1a ~hole:(12, 8) buf

(* the largest frame the u16 length field can describe *)
let max_frame = 0xffff

let encode ~xid ?(epoch = 0) t =
  let body = Buffer.create 64 in
  encode_body body t;
  let len = Buffer.length body + 20 in
  if len > max_frame then
    invalid_arg
      (Printf.sprintf "Message.encode: %d-byte frame exceeds the %d-byte frame limit" len
         max_frame);
  let frame = Buffer.create len in
  W.u8 frame version;
  W.u8 frame (type_code t);
  W.u16 frame len;
  W.u32 frame xid;
  W.u32 frame epoch;
  (* 8 bytes of checksum to reach a 20-byte header; filled in below *)
  W.u64 frame 0L;
  Buffer.add_buffer frame body;
  let bytes = Buffer.to_bytes frame in
  Bytes.set_int64_be bytes 12 (checksum bytes);
  bytes

let decode schema buf =
  let r = R.create buf in
  let* v = R.u8 r in
  if v <> version then Error "bad version"
  else
    let* ty = R.u8 r in
    let* len = R.u16 r in
    if len <> Bytes.length buf then Error "length mismatch"
    else
      let* xid = R.u32 r in
      let* epoch = R.u32 r in
      let* stored_sum = R.u64 r in
      let* () =
        if Int64.equal stored_sum (checksum buf) then Ok ()
        else Error "checksum mismatch"
      in
      let* msg =
        match ty with
        | 0 -> Ok Hello
        | 2 ->
            let* c = R.u32 r in
            Ok (Echo_request c)
        | 3 ->
            let* c = R.u32 r in
            Ok (Echo_reply c)
        | 18 ->
            let* c = R.u32 r in
            Ok (Barrier_request c)
        | 19 ->
            let* c = R.u32 r in
            Ok (Barrier_reply c)
        | 14 ->
            let* cmd = R.u8 r in
            let* command =
              match cmd with
              | 0 -> Ok Add
              | 1 -> Ok Delete
              | 2 -> Ok Delete_strict
              | _ -> Error "unknown flow_mod command"
            in
            let* bank_raw = R.u8 r in
            let* bank = decode_bank bank_raw in
            let* idle_timeout = decode_timeout r in
            let* hard_timeout = decode_timeout r in
            let* rule = decode_rule schema r in
            Ok (Flow_mod { command; bank; rule; idle_timeout; hard_timeout })
        | 16 ->
            let* bank_raw = R.u8 r in
            let* table_bank = decode_bank bank_raw in
            let* cookie = R.u32 r in
            Ok (Stats_request { table_bank; cookie })
        | 17 ->
            let* request_cookie = R.u32 r in
            let* count = R.u32 r in
            let rec go i acc =
              if i >= count then Ok (List.rev acc)
              else
                let* rule_id = R.u32 r in
                let* packets = R.u64 r in
                let* bytes = R.u64 r in
                let* duration = R.f64 r in
                go (i + 1) ({ rule_id; packets; bytes; duration } :: acc)
            in
            let* flows = go 0 [] in
            Ok (Stats_reply { request_cookie; flows })
        | 11 ->
            let* removed_rule = R.u32 r in
            let* cookie_raw = R.u32 r in
            let cookie = if cookie_raw = 0x7fffffff then -1 else cookie_raw in
            let* reason_raw = R.u8 r in
            let* reason =
              match reason_raw with
              | 0 -> Ok Idle_timeout
              | 1 -> Ok Hard_timeout
              | 2 -> Ok Evicted
              | 3 -> Ok Deleted
              | 4 -> Ok Replaced
              | _ -> Error "unknown removal reason"
            in
            let* final_packets = R.u64 r in
            let* final_bytes = R.u64 r in
            let* lifetime = R.f64 r in
            Ok (Flow_removed { removed_rule; cookie; reason; final_packets; final_bytes; lifetime })
        | 30 ->
            let* pid = R.u32 r in
            let* region = decode_pred schema r in
            let* count = R.u32 r in
            let rec go i acc =
              if i >= count then Ok (List.rev acc)
              else
                let* rule = decode_rule schema r in
                go (i + 1) (rule :: acc)
            in
            let* table_rules = go 0 [] in
            let ids = List.map (fun (rule : Rule.t) -> rule.id) table_rules in
            if List.compare_lengths (List.sort_uniq Int.compare ids) ids <> 0 then
              Error "duplicate rule ids in partition table"
            else Ok (Install_partition { pid; region; table_rules })
        | 31 ->
            let* pid = R.u32 r in
            Ok (Drop_partition pid)
        | 32 ->
            let* x = R.u32 r in
            Ok (Ack x)
        | _ -> Error "unknown message type"
      in
      if R.pos r <> Bytes.length buf then Error "trailing bytes"
      else Ok (xid, epoch, msg)

(* ---- rule-list codec, shared with the journal ---- *)

let rules_to_bytes rules =
  let b = Buffer.create 256 in
  W.u32 b (List.length rules);
  List.iter (encode_rule b) rules;
  Buffer.to_bytes b

let rules_of_bytes schema buf =
  let r = R.create buf in
  let* count = R.u32 r in
  let rec go i acc =
    if i >= count then Ok (List.rev acc)
    else
      let* rule = decode_rule schema r in
      go (i + 1) (rule :: acc)
  in
  let* rules = go 0 [] in
  if R.pos r <> Bytes.length buf then Error "trailing bytes" else Ok rules
