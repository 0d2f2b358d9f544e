open Message

module R = struct
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
end

let ( let* ) = Result.bind

let version = 0x02
let checksum buf = fnv1a ~hole:(12, 8) buf

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

let decode_bank = function
  | 0 -> Ok Cache
  | 1 -> Ok Authority
  | 2 -> Ok Partition
  | _ -> Error "unknown bank"

let decode_timeout r =
  let* tag = R.u8 r in
  match tag with
  | 0 -> Ok None
  | 1 ->
      let* v = R.f64 r in
      Ok (Some v)
  | _ -> Error "bad timeout tag"

let decode_rule schema r =
  let* id = R.u32 r in
  let* priority = R.u32 r in
  let* pred = decode_pred schema r in
  let* action = decode_action r in
  Ok (Rule.make ~id ~priority pred action)

let signed_rule (r : Rule.t) =
  let p = if r.priority >= 0x80000000 then r.priority - 0x100000000 else r.priority in
  Rule.make ~id:r.id ~priority:p r.pred r.action

(* A rule list is a table when sorting it, duplicates dropped, changes
   nothing — priorities read signed, as {!Message} reads them — and
   sorting its ids likewise. *)
let check_table rules =
  let signed = List.map signed_rule rules in
  let ids = List.map (fun (rule : Rule.t) -> rule.id) rules in
  if not (List.equal ( == ) (List.sort_uniq Rule.compare_priority signed) signed) then
    Error "rules out of table order"
  else if List.compare_lengths (List.sort_uniq Int.compare ids) ids <> 0 then
    Error "duplicate rule ids"
  else Ok rules

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
            let cookie = if cookie_raw = 0xffffffff then -1 else cookie_raw in
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
            let* table_rules = check_table table_rules in
            Ok (Install_partition { pid; region; table_rules })
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
  let* rules = check_table rules in
  if R.pos r <> Bytes.length buf then Error "trailing bytes" else Ok rules

let signed = function
  | Flow_mod f -> Flow_mod { f with rule = signed_rule f.rule }
  | Install_partition t ->
      Install_partition { t with table_rules = List.map signed_rule t.table_rules }
  | m -> m
