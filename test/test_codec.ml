(* The control-frame and journal codecs under hostile bytes: the raising
   cursor against the result-chain oracle, every decoder fuzzed behind a
   recomputed checksum, and the allocation bounds of decoding. *)

open Test_util

let s2 = Schema.tiny2

let rule ?(action = Action.Forward 3) id priority v =
  Rule.make ~id ~priority (Pred.of_strings s2 [ ("f1", v) ]) action

(* One message of every constructor, with the extreme ids and priorities
   the fields can carry; [low] and [lowest] are the two priorities at the
   bottom of the int32 range. *)
let messages ~low ~lowest =
  [
    Message.Hello;
    Message.Echo_request 7;
    Message.Echo_reply 0xffffffff;
    Message.Flow_mod
      { command = Message.Add; bank = Message.Cache; rule = rule 17 9 "01xx_xx10";
        idle_timeout = Some 10.; hard_timeout = None };
    Message.Flow_mod
      { command = Message.Delete_strict; bank = Message.Partition;
        rule = rule ~action:(Action.To_authority 4) 0xffffffff low "xxxxxxxx";
        idle_timeout = None; hard_timeout = Some 0.5 };
    Message.Barrier_request 3;
    Message.Barrier_reply 3;
    Message.Stats_request { table_bank = Message.Authority; cookie = 77 };
    Message.Stats_reply
      {
        request_cookie = 77;
        flows =
          [
            { Message.rule_id = 1; packets = 100L; bytes = 6400L; duration = 1.5 };
            { Message.rule_id = 2; packets = 0L; bytes = 0L; duration = 0. };
          ];
      };
    Message.Flow_removed
      { removed_rule = 5; cookie = -1; reason = Message.Evicted; final_packets = 3L;
        final_bytes = 192L; lifetime = 2.25 };
    Message.Install_partition
      {
        pid = 3;
        region = Pred.of_strings s2 [ ("f2", "1xxxxxxx") ];
        table_rules =
          [ rule 1 0x7fffffff "0xxxxxxx"; rule ~action:Action.Drop 2 lowest "10xxxxxx";
            rule ~action:(Action.Count_and_forward 2) 3 0 "11xxxxxx" ];
      };
    Message.Drop_partition 3;
    Message.Ack 9;
  ]

(* At these priorities the partition table is put back in table order,
   so the frame decodes. *)
let every_message =
  List.map
    (function
      | Message.Install_partition t ->
          Message.Install_partition
            { t with table_rules = List.sort Rule.compare_priority t.table_rules }
      | m -> m)
    (messages ~low:(-1) ~lowest:(-0x80000000))

(* The wire format is fixed: with non-negative priorities, whose bytes
   the signed field keeps, every constructor encodes to the same bytes.
   The unset [Flow_removed] cookie, -1, travels as 0xffffffff. *)
let test_frames_pinned () =
  let b = Buffer.create 1024 in
  List.iteri
    (fun i m -> Buffer.add_bytes b (Message.encode ~xid:i ~epoch:(i * 3) m))
    (messages ~low:0x7fffffff ~lowest:0);
  check Alcotest.string "every constructor" "df9f73ba3ba6324ad6bd4712d8e098f5"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---- the raising cursor = the result-chain oracle ---- *)

(* Same [Ok] value, or the same error.  [compare], not [=]: a mutated
   timeout or duration may decode to NaN on both sides. *)
let same_frame_result a b =
  match (a, b) with
  | Ok (x, e, m), Ok (x', e', m') -> x = x' && e = e' && compare m (Codec_scan.signed m') = 0
  | Error a, Error b -> String.equal a b
  | _ -> false

let gen_i32 = QCheck2.Gen.(map (fun x -> x - 0x80000000) (int_bound 0xffffffff))
let gen_u32 = QCheck2.Gen.int_bound 0xffffffff
let gen_u64 = QCheck2.Gen.(map Int64.of_int int)

let gen_rule =
  let open QCheck2.Gen in
  let* pred = gen_pred_tiny2 in
  let* id = gen_u32 in
  let* priority = gen_i32 in
  let* action =
    oneof
      [
        map (fun p -> Action.Forward p) gen_u32;
        return Action.Drop;
        map (fun p -> Action.Count_and_forward p) gen_u32;
        map (fun a -> Action.To_authority a) gen_u32;
        return Action.Redirect_controller;
      ]
  in
  return (Rule.make ~id ~priority pred action)

(* A transferred table is in table order and repeats no rule id; a
   mutation may break either. *)
let gen_table =
  QCheck2.Gen.(
    list_size (int_range 0 5) gen_rule
    >|= fun rules ->
    List.mapi (fun i (r : Rule.t) -> Rule.make ~id:i ~priority:r.priority r.pred r.action) rules
    |> List.sort Rule.compare_priority)

let gen_timeout = QCheck2.Gen.(opt (float_range 0. 1e6))
let gen_bank = QCheck2.Gen.oneofl [ Message.Cache; Message.Authority; Message.Partition ]

let gen_message =
  let open QCheck2.Gen in
  oneof
    [
      return Message.Hello;
      map (fun c -> Message.Echo_request c) gen_u32;
      map (fun c -> Message.Echo_reply c) gen_u32;
      (let* command = oneofl [ Message.Add; Message.Delete; Message.Delete_strict ] in
       let* bank = gen_bank in
       let* rule = gen_rule in
       let* idle_timeout = gen_timeout in
       let* hard_timeout = gen_timeout in
       return (Message.Flow_mod { command; bank; rule; idle_timeout; hard_timeout }));
      map (fun c -> Message.Barrier_request c) gen_u32;
      map (fun c -> Message.Barrier_reply c) gen_u32;
      map2 (fun table_bank cookie -> Message.Stats_request { table_bank; cookie }) gen_bank gen_u32;
      (let* request_cookie = gen_u32 in
       let* flows =
         list_size (int_range 0 4)
           (let* rule_id = gen_u32 in
            let* packets = gen_u64 in
            let* bytes = gen_u64 in
            let* duration = float_range 0. 1e6 in
            return { Message.rule_id; packets; bytes; duration })
       in
       return (Message.Stats_reply { request_cookie; flows }));
      (let* removed_rule = gen_u32 in
       (* the field's whole domain, its edges drawn often *)
       let* cookie =
         oneof
           [ oneofl [ -1; 0; 0x7ffffffe; 0x7fffffff; 0x80000000; 0xfffffffe ];
             int_range (-1) 0xfffffffe ]
       in
       let* reason =
         oneofl
           [ Message.Idle_timeout; Message.Hard_timeout; Message.Evicted; Message.Deleted;
             Message.Replaced ]
       in
       let* final_packets = gen_u64 in
       let* final_bytes = gen_u64 in
       let* lifetime = float_range 0. 1e6 in
       return
         (Message.Flow_removed
            { removed_rule; cookie; reason; final_packets; final_bytes; lifetime }));
      (let* pid = gen_u32 in
       let* region = gen_pred_tiny2 in
       let* table_rules = gen_table in
       return (Message.Install_partition { pid; region; table_rules }));
      map (fun p -> Message.Drop_partition p) gen_u32;
      map (fun x -> Message.Ack x) gen_u32;
    ]

let rechecksum f =
  if Bytes.length f >= 20 then Bytes.set_int64_be f 12 (Message.fnv1a ~hole:(12, 8) f);
  f

(* A mutation that keeps the frame's checksum valid, so the body decoder
   meets the hostile bytes: a byte overwritten, a 4-byte field forged to
   0xffffffff, or a cut with the length field patched to match. *)
type mutation = Set_byte of int * int | Forge_u32 of int | Cut of int

let mutate frame m =
  match m with
  | Set_byte _ when Bytes.length frame = 0 -> frame
  | Forge_u32 _ when Bytes.length frame < 4 -> frame
  | Set_byte (pos, v) ->
      let f = Bytes.copy frame in
      Bytes.set_uint8 f (pos mod Bytes.length f) v;
      rechecksum f
  | Forge_u32 pos ->
      let f = Bytes.copy frame in
      let pos = pos mod (Bytes.length f - 3) in
      Bytes.set_int32_be f pos (-1l);
      rechecksum f
  | Cut n ->
      let f = Bytes.sub frame 0 (n mod (Bytes.length frame + 1)) in
      if Bytes.length f >= 4 then Bytes.set_uint16_be f 2 (Bytes.length f);
      rechecksum f

let gen_mutation =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun p v -> Set_byte (p, v)) (int_bound 1000) (int_bound 255);
      map (fun p -> Forge_u32 p) (int_bound 1000);
      map (fun n -> Cut n) (int_bound 1000);
    ]

let prop_decode_equals_oracle =
  qt ~count:1000 "decode = result-chain oracle, valid and mutated frames"
    QCheck2.Gen.(pair gen_message (list_size (int_range 0 3) gen_mutation))
    (fun (msg, mutations) ->
      let frame = List.fold_left mutate (Message.encode ~xid:5 ~epoch:2 msg) mutations in
      let got = Message.decode s2 frame in
      (mutations <> [] || got = Ok (5, 2, msg))
      && same_frame_result got (Codec_scan.decode s2 frame))

let prop_rules_equal_oracle =
  qt ~count:300 "rules_of_bytes = result-chain oracle"
    QCheck2.Gen.(
      pair
        (oneof [ gen_table; list_size (int_range 0 6) gen_rule ])
        (opt (pair (int_bound 1000) (int_bound 255))))
    (fun (rules, flip) ->
      let b = Message.rules_to_bytes rules in
      (match flip with
      | Some (pos, v) when Bytes.length b > 0 -> Bytes.set_uint8 b (pos mod Bytes.length b) v
      | _ -> ());
      match (Message.rules_of_bytes s2 b, Codec_scan.rules_of_bytes s2 b) with
      | Ok a, Ok o ->
          (flip <> None || a = rules) && compare a (List.map Codec_scan.signed_rule o) = 0
      | Error a, Error o -> String.equal a o
      | _ -> false)

(* ---- fuzz behind the checksum ---- *)

(* Minor words of one call; the result is returned so it stays live. *)
let words f =
  let w0 = Gc.minor_words () in
  let x = f () in
  (Gc.minor_words () -. w0, x)

(* Decoding never allocates more than a few words per input byte: no
   count read from the bytes sizes an allocation. *)
let alloc_bound len = float_of_int ((4 * len) + 256)

let decodes_safely ~what decode b =
  match words (fun () -> decode b) with
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  | w, result ->
      if w > alloc_bound (Bytes.length b) then
        Alcotest.failf "%s: %.0f words for %d bytes" what w (Bytes.length b);
      result

(* Every proper prefix of a frame, with and without its length and
   checksum patched to match, is an error. *)
let test_frame_truncation () =
  List.iteri
    (fun k msg ->
      let frame = Message.encode ~xid:1 msg in
      for n = 0 to Bytes.length frame - 1 do
        let raw = Bytes.sub frame 0 n in
        List.iter
          (fun (how, b) ->
            let what = Printf.sprintf "message %d cut at %d (%s)" k n how in
            match decodes_safely ~what (Message.decode s2) b with
            | Ok _ -> Alcotest.failf "%s decoded" what
            | Error _ -> ())
          [ ("raw", raw); ("patched", mutate frame (Cut n)) ]
      done)
    every_message

(* Each byte flipped, the checksum recomputed: the body decoder sees the
   flip.  It may decode (a flipped priority is still a priority); it must
   neither raise nor allocate past the bound. *)
let test_frame_flips () =
  List.iteri
    (fun k msg ->
      let frame = Message.encode ~xid:1 msg in
      for pos = 0 to Bytes.length frame - 1 do
        let f = Bytes.copy frame in
        Bytes.set_uint8 f pos (Bytes.get_uint8 f pos lxor 0xff);
        ignore
          (decodes_safely ~what:(Printf.sprintf "message %d, byte %d flipped" k pos)
             (Message.decode s2) (rechecksum f))
      done)
    every_message

(* Every count field forged to 0xffffffff, checksum valid: an error, with
   allocation bounded by the frame.  Each offset is checked to hold the
   true count first.  Every other 4-byte window is forged too, and only
   has to decode safely. *)
let forge_counts ~what ~checksum ~decode bytes counts =
  List.iter
    (fun (off, n) ->
      if Int32.to_int (Bytes.get_int32_be bytes off) <> n then
        Alcotest.failf "%s: no count %d at offset %d" what n off)
    counts;
  for off = 0 to Bytes.length bytes - 4 do
    let f = Bytes.copy bytes in
    Bytes.set_int32_be f off (-1l);
    checksum f;
    let what = Printf.sprintf "%s, u32 forged at %d" what off in
    match decodes_safely ~what decode f with
    | Ok _ when List.mem_assoc off counts -> Alcotest.failf "%s decoded" what
    | Ok _ | Error _ -> ()
  done

(* tiny2: a predicate is 1 + 2 * 17 bytes; the frame header is 20 *)
let pred_len = 35

let test_frame_forged_counts () =
  List.iteri
    (fun k msg ->
      let counts =
        match msg with
        | Message.Stats_reply s -> [ (24, List.length s.flows) ]
        | Message.Install_partition t -> [ (24 + pred_len, List.length t.table_rules) ]
        | _ -> []
      in
      forge_counts ~what:(Printf.sprintf "message %d" k)
        ~checksum:(fun f -> ignore (rechecksum f))
        ~decode:(Message.decode s2) (Message.encode ~xid:1 msg) counts)
    every_message

(* ---- journal entries ---- *)

let p_lo = Pred.of_strings s2 [ ("f1", "0xxxxxxx") ]
let p_hi = Pred.of_strings s2 [ ("f1", "1xxxxxxx") ]
let sample_rules = [ rule 1 5 "0xxxxxxx"; rule ~action:Action.Drop 2 (-1) "xxxxxxxx" ]

let migration =
  {
    Journal.mid = 4;
    src_pid = 2;
    src_region = Pred.any s2;
    src_replicas = [ 1; 3 ];
    lo_pid = 8;
    lo_region = p_lo;
    lo_replicas = [ 1 ];
    hi_pid = 9;
    hi_region = p_hi;
    hi_replicas = [ 4; 1 ];
  }

(* A rule-list blob is its count then 44 bytes per Drop rule (the region
   placeholder) or 48 per forwarding rule; the record header is 27. *)
let region_blob = 4 + 4 + 44

(* Each journal entry kind with the offsets of its count fields, as
   [(offset, count)]. *)
let every_entry =
  [
    ( Journal.Build { policy = sample_rules; authority_ids = [ 1; 3; 4 ] },
      [ (27, 3); (27 + 4 + 12, 2) ] );
    (Journal.Policy_update { rules = sample_rules; strict = true }, [ (28, 2) ]);
    (Journal.Fail_authority 3, []);
    (Journal.Restore_authority 3, []);
    (Journal.Declared_dead 2, []);
    (Journal.Recovered 2, []);
    (Journal.Rebalance [ (0, 1.5); (7, 0.25) ], [ (27, 2) ]);
    (Journal.Epoch { epoch = 2; leader = 1 }, []);
    ( Journal.Migration_begin migration,
      (* mid, then per placement: pid, replica count, replicas, blob length
         and the blob's own rule count *)
      let src = 31 in
      let lo = src + 8 + 8 + region_blob in
      let hi = lo + 8 + 4 + region_blob in
      [ (src + 4, 2); (src + 16, region_blob - 4); (src + 20, 1);
        (lo + 4, 1); (lo + 12, region_blob - 4); (lo + 16, 1);
        (hi + 4, 2); (hi + 16, region_blob - 4); (hi + 20, 1) ] );
    (Journal.Migration_flip 4, []);
    (Journal.Migration_commit 4, []);
    (Journal.Migration_abort 4, []);
    ( Journal.Partition_layout { regions = [ (8, p_lo) ]; replicas = [ (8, [ 1; 3 ]) ] },
      let np = 27 + 4 + 4 + region_blob in
      [ (27, 1); (35, region_blob - 4); (39, 1); (np, 1); (np + 8, 2) ] );
  ]

let journal_of entry =
  let j = Journal.create () in
  ignore (Journal.append j ~at:1.5 entry);
  Journal.encode j

let rechecksum_record f = Bytes.set_int64_be f 19 (Message.fnv1a ~hole:(19, 8) f)

let test_journal_fuzz () =
  List.iteri
    (fun k (entry, counts) ->
      let b = journal_of entry in
      let what = Printf.sprintf "journal entry %d" k in
      (match Journal.decode s2 b with
      | Ok j -> check Alcotest.bool (what ^ " round-trips") true (Journal.entries j = [ (0, 1.5, entry) ])
      | Error e -> Alcotest.failf "%s: %s" what e);
      for n = 0 to Bytes.length b - 1 do
        (* a one-record journal cut anywhere but at its start is broken,
           with its length and checksum patched or not *)
        let raw = Bytes.sub b 0 n in
        let patched = Bytes.copy raw in
        if n >= 27 then begin
          Bytes.set_int32_be patched 3 (Int32.of_int n);
          rechecksum_record patched
        end;
        List.iter
          (fun (how, c) ->
            let what = Printf.sprintf "%s cut at %d (%s)" what n how in
            match decodes_safely ~what (Journal.decode s2) c with
            | Ok j when n > 0 || Journal.entries j <> [] -> Alcotest.failf "%s decoded" what
            | Ok _ | Error _ -> ())
          [ ("raw", raw); ("patched", patched) ]
      done;
      for pos = 0 to Bytes.length b - 1 do
        let f = Bytes.copy b in
        Bytes.set_uint8 f pos (Bytes.get_uint8 f pos lxor 0xff);
        rechecksum_record f;
        ignore
          (decodes_safely ~what:(Printf.sprintf "%s, byte %d flipped" what pos)
             (Journal.decode s2) f)
      done;
      forge_counts ~what ~checksum:rechecksum_record ~decode:(Journal.decode s2) b counts)
    every_entry

(* ---- table validity, checked where a rule list is read ---- *)

(* A rule list out of table order, or one that repeats an id, is an
   [Error] wherever a rule list enters: an [Install_partition] table,
   [rules_of_bytes] and both journal rule-list entries.  None raises. *)
let test_bad_tables_rejected () =
  let readers rules =
    [
      ( "install_partition",
        Message.encode ~xid:1
          (Message.Install_partition { pid = 3; region = Pred.any s2; table_rules = rules }),
        fun b -> Result.map ignore (Message.decode s2 b) );
      ( "rules_of_bytes",
        Message.rules_to_bytes rules,
        fun b -> Result.map ignore (Message.rules_of_bytes s2 b) );
      ( "journal build",
        journal_of (Journal.Build { policy = rules; authority_ids = [ 1 ] }),
        fun b -> Result.map ignore (Journal.decode s2 b) );
      ( "journal policy update",
        journal_of (Journal.Policy_update { rules; strict = false }),
        fun b -> Result.map ignore (Journal.decode s2 b) );
    ]
  in
  let read ~what rules =
    List.map
      (fun (reader, b, decode) ->
        (reader, decodes_safely ~what:(what ^ ", " ^ reader) decode b))
      (readers rules)
  in
  List.iter
    (fun (reader, got) ->
      match got with
      | Ok () -> ()
      | Error e -> Alcotest.failf "a valid table, %s: %s" reader e)
    (read ~what:"a valid table"
       [ rule 1 9 "0xxxxxxx"; rule 2 5 "10xxxxxx"; rule 3 5 "11xxxxxx"; rule 0 (-1) "xxxxxxxx" ]);
  List.iter
    (fun (what, rules, expected) ->
      List.iter
        (fun (reader, got) ->
          match got with
          | Ok () -> Alcotest.failf "%s, %s: decoded" what reader
          | Error e -> check Alcotest.string (what ^ ", " ^ reader) expected e)
        (read ~what rules))
    [
      ("priorities rising", [ rule 2 5 "10xxxxxx"; rule 1 9 "0xxxxxxx" ],
       "rules out of table order");
      ("a negative priority first", [ rule 0 (-1) "xxxxxxxx"; rule 1 9 "0xxxxxxx" ],
       "rules out of table order");
      ("ids falling at one priority",
       [ rule 1 9 "0xxxxxxx"; rule 3 5 "11xxxxxx"; rule 2 5 "10xxxxxx" ],
       "rules out of table order");
      ("one rule twice", [ rule 1 9 "0xxxxxxx"; rule 1 9 "0xxxxxxx" ], "rules out of table order");
      ("an id at two priorities",
       [ rule 1 9 "0xxxxxxx"; rule 2 5 "10xxxxxx"; rule 1 3 "11xxxxxx" ],
       "duplicate rule ids");
    ]

(* ---- allocation of a real partition table ---- *)

(* A 300-rule five-tuple ACL in one [Install_partition] frame.  The
   result-chain decoder spent about 420 words a rule (a boxed [Ok] per
   field, a field list, a sorted id list); the cursor spends about 90. *)
let test_install_partition_words () =
  let policy = Policy_gen.acl (Prng.create 30) { Policy_gen.default_acl with rules = 300 } in
  let schema = Classifier.schema policy in
  let table_rules = Classifier.rules policy in
  let msg = Message.Install_partition { pid = 1; region = Pred.any schema; table_rules } in
  let frame = Message.encode ~xid:1 msg in
  let decode () = Message.decode schema frame in
  ignore (decode ());
  let w, got = words decode in
  check Alcotest.bool "round-trips" true (got = Ok (1, 0, msg));
  let per_rule = w /. float_of_int (List.length table_rules) in
  if per_rule > 130. then Alcotest.failf "%.1f minor words per decoded rule (bound 130)" per_rule

(* ---- the signed priority ---- *)

let test_priority_limits () =
  let flow_mod rule =
    Message.Flow_mod
      { command = Message.Add; bank = Message.Cache; rule; idle_timeout = None;
        hard_timeout = None }
  in
  List.iter
    (fun (id, priority) ->
      let msg = flow_mod (rule id priority "xxxxxxxx") in
      check Alcotest.bool
        (Printf.sprintf "id %d, priority %d round-trips" id priority)
        true
        (Message.decode s2 (Message.encode ~xid:1 msg) = Ok (1, 0, msg)))
    [ (0, -1); (0, -0x80000000); (0xffffffff, 0x7fffffff); (5, 0) ];
  (* a non-negative priority keeps the bytes of the unsigned encoding *)
  let b = Message.encode ~xid:1 (flow_mod (rule 5 0x1234 "xxxxxxxx")) in
  check Alcotest.int "priority bytes" 0x1234 (Int32.to_int (Bytes.get_int32_be b 28));
  List.iter
    (fun (id, priority) ->
      match Message.encode ~xid:1 (flow_mod (rule id priority "xxxxxxxx")) with
      | _ -> Alcotest.failf "id %d, priority %d was encoded" id priority
      | exception Invalid_argument _ -> ())
    [ (-1, 0); (0x100000000, 0); (1, 0x80000000); (1, -0x80000001) ];
  match Message.rules_to_bytes [ rule 1 0x80000000 "xxxxxxxx" ] with
  | _ -> Alcotest.fail "the rule-list codec took an out-of-range priority"
  | exception Invalid_argument _ -> ()

(* The journal persists a negative priority as it was. *)
let test_journal_negative_priority () =
  let entry = Journal.Policy_update { rules = sample_rules; strict = false } in
  match Journal.decode s2 (journal_of entry) with
  | Ok j -> check Alcotest.bool "priority -1 survives replay" true (Journal.entries j = [ (0, 1.5, entry) ])
  | Error e -> Alcotest.fail e

let test_policy_file_priorities () =
  let file prio = Printf.sprintf "# difane-policy v1\n# schema: f/8\n%s * drop\n" prio in
  (match Policy_io.of_string (file "-1") with
  | Ok c -> check Alcotest.int "negative priority parsed" (-1) (List.hd (Classifier.rules c)).priority
  | Error e -> Alcotest.fail e);
  List.iter
    (fun prio ->
      match Policy_io.of_string (file prio) with
      | Ok _ -> Alcotest.failf "priority %s accepted" prio
      | Error e ->
          check Alcotest.string "line error"
            (Printf.sprintf "line 3: priority %s outside the int32 range" prio)
            e)
    [ "2147483648"; "-2147483649" ]

let suite =
  [
    ( "codec",
      [
        prop_decode_equals_oracle;
        prop_rules_equal_oracle;
        tc "every frame prefix is an error" test_frame_truncation;
        tc "flipped bytes behind the checksum" test_frame_flips;
        tc "forged frame counts" test_frame_forged_counts;
        tc "journal entries fuzzed behind the checksum" test_journal_fuzz;
        tc "misordered and repeated-id rule lists are errors" test_bad_tables_rejected;
        tc "install-partition decode words per rule" test_install_partition_words;
        tc "frame bytes pinned" test_frames_pinned;
        tc "signed priority limits" test_priority_limits;
        tc "journal keeps a negative priority" test_journal_negative_priority;
        tc "policy file priority range" test_policy_file_priorities;
      ] );
  ]
