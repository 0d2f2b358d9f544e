open Test_util

let s2 = Schema.tiny2

let message = Alcotest.testable Message.pp Message.equal

let roundtrip msg =
  let buf = Message.encode ~xid:42 ~epoch:3 msg in
  match Message.decode s2 buf with
  | Ok (xid, epoch, msg') ->
      check Alcotest.int "xid" 42 xid;
      check Alcotest.int "epoch" 3 epoch;
      check message "message" msg msg'
  | Error e -> Alcotest.failf "decode failed: %s" e

let sample_rule =
  Rule.make ~id:17 ~priority:9 (Pred.of_strings s2 [ ("f1", "01xx_xx10") ]) (Action.Forward 3)

let test_simple_roundtrips () =
  List.iter roundtrip
    [
      Message.Hello;
      Message.Echo_request 7;
      Message.Echo_reply 7;
      Message.Barrier_request 3;
      Message.Barrier_reply 3;
    ]

let test_flow_mod_roundtrip () =
  List.iter roundtrip
    [
      Message.Flow_mod
        { command = Message.Add; bank = Message.Cache; rule = sample_rule;
          idle_timeout = Some 10.; hard_timeout = None };
      Message.Flow_mod
        { command = Message.Delete_strict; bank = Message.Partition;
          rule = Rule.make ~id:1 ~priority:0 (Pred.any s2) (Action.To_authority 9);
          idle_timeout = None; hard_timeout = Some 0.5 };
    ]

let test_stats_roundtrips () =
  roundtrip (Message.Stats_request { table_bank = Message.Authority; cookie = 77 });
  roundtrip
    (Message.Stats_reply
       {
         request_cookie = 77;
         flows =
           [
             { Message.rule_id = 1; packets = 100L; bytes = 6400L; duration = 1.5 };
             { Message.rule_id = 2; packets = 0L; bytes = 0L; duration = 0. };
           ];
       })

let test_decode_garbage () =
  let bad b = match Message.decode s2 b with Ok _ -> false | Error _ -> true in
  check Alcotest.bool "empty" true (bad (Bytes.create 0));
  check Alcotest.bool "short" true (bad (Bytes.create 3));
  let frame = Message.encode ~xid:1 Message.Hello in
  let truncated = Bytes.sub frame 0 (Bytes.length frame - 1) in
  check Alcotest.bool "truncated" true (bad truncated);
  let corrupt = Bytes.copy frame in
  Bytes.set_uint8 corrupt 0 99;
  check Alcotest.bool "bad version" true (bad corrupt);
  let extended = Bytes.cat frame (Bytes.make 4 '\x00') in
  check Alcotest.bool "trailing bytes" true (bad extended);
  (* a well-formed frame under another type code, checksum recomputed *)
  let retyped code =
    let f = Bytes.copy frame in
    Bytes.set_uint8 f 1 code;
    Bytes.set_int64_be f 12 (Message.fnv1a ~hole:(12, 8) f);
    f
  in
  check Alcotest.bool "re-checksummed hello decodes" false (bad (retyped 0));
  (* 10 and 13 were packet-in and packet-out: DIFANE switches never punt *)
  List.iter
    (fun code -> check Alcotest.bool (Printf.sprintf "type %d" code) true (bad (retyped code)))
    [ 10; 13; 99 ]

let test_wire_size () =
  let size msg = Bytes.length (Message.encode ~xid:0 msg) in
  let msg =
    Message.Flow_mod
      { command = Message.Add; bank = Message.Cache; rule = sample_rule;
        idle_timeout = None; hard_timeout = None }
  in
  check Alcotest.bool "a body follows the header" true (size msg > 20);
  check Alcotest.int "frames have 20-byte header" 20 (size Message.Hello)

(* An exact-match rule on tiny2 with a forward action encodes in 48
   bytes, and an Install_partition frame is 63 bytes before its rules, so
   1,364 rules fill the u16 length field exactly.  Highest priority
   first: the table is in table order. *)
let partition_of_size n =
  let rule i =
    Rule.make ~id:i ~priority:i
      (Pred.make s2
         [ Ternary.exact ~width:8 (Int64.of_int (i land 0xff));
           Ternary.exact ~width:8 (Int64.of_int (i lsr 8)) ])
      (Action.Forward 1)
  in
  Message.Install_partition
    { pid = 0; region = Pred.any s2; table_rules = List.rev (List.init n rule) }

let test_frame_size_limit () =
  let largest = partition_of_size 1364 in
  check Alcotest.int "largest frame fills the length field" 0xffff
    (Bytes.length (Message.encode ~xid:1 largest));
  roundtrip largest;
  match Message.encode ~xid:1 (partition_of_size 1365) with
  | _ -> Alcotest.fail "a 65,583-byte frame was encoded"
  | exception Invalid_argument e ->
      check Alcotest.string "names the size and the limit"
        "Message.encode: 65583-byte frame exceeds the 65535-byte frame limit" e

(* A partition table that repeats a rule id cannot become a classifier,
   so the frame must fail to decode rather than reach the switch. *)
let test_duplicate_id_table_rejected () =
  let rule id priority v =
    Rule.make ~id ~priority (Pred.of_strings s2 [ ("f1", v) ]) (Action.Forward 1)
  in
  let msg =
    Message.Install_partition
      { pid = 3; region = Pred.any s2;
        table_rules = [ rule 1 30 "0xxxxxxx"; rule 2 20 "10xxxxxx"; rule 1 10 "11xxxxxx" ] }
  in
  (match Message.decode s2 (Message.encode ~xid:9 msg) with
  | Ok _ -> Alcotest.fail "table with a repeated rule id decoded"
  | Error _ -> ());
  let ch = Channel.create s2 ~latency:0.001 in
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  Channel.send ch ~now:0. ~xid:9 msg;
  List.iter
    (fun (xid, epoch, m) -> ignore (Switch.handle_control ~xid ~epoch sw ~now:1. m))
    (Channel.poll ch ~now:1.);
  check Alcotest.int "frame counted as a decode error" 1
    (Channel.stats ch).Channel.decode_errors;
  check Alcotest.int "switch installed no partition" 0
    (List.length (Switch.authority_partitions sw))

let gen_message =
  let open QCheck2.Gen in
  let gen_rule =
    let* pd = gen_pred_tiny2 in
    let* pr = int_bound 100 in
    let* idr = int_bound 1000 in
    let* act = oneofl [ Action.Drop; Action.Forward 2; Action.To_authority 5 ] in
    return (Rule.make ~id:idr ~priority:pr pd act)
  in
  oneof
    [
      return Message.Hello;
      (int_bound 1000 >|= fun c -> Message.Echo_request c);
      (int_bound 1000 >|= fun c -> Message.Barrier_request c);
      ( pair gen_rule (oneofl [ Message.Cache; Message.Authority; Message.Partition ])
      >|= fun (r, bank) ->
        Message.Flow_mod
          { command = Message.Add; bank; rule = r; idle_timeout = Some 1.; hard_timeout = None } );
      ( pair (int_bound 100) (pair gen_pred_tiny2 (list_size (int_range 0 4) gen_rule))
      >|= fun (pid, (region, rules)) ->
        (* a transferred table is in table order and repeats no rule id *)
        let table_rules =
          List.mapi (fun i (r : Rule.t) -> Rule.make ~id:i ~priority:r.priority r.pred r.action)
            rules
          |> List.sort Rule.compare_priority
        in
        Message.Install_partition { pid; region; table_rules } );
    ]

let prop_roundtrip =
  qt "encode/decode roundtrip" gen_message (fun msg ->
      match Message.decode s2 (Message.encode ~xid:5 msg) with
      | Ok (5, 0, msg') -> Message.equal msg msg'
      | _ -> false)

let suite =
  [
    ( "openflow",
      [
        tc "simple roundtrips" test_simple_roundtrips;
        tc "flow-mod roundtrips" test_flow_mod_roundtrip;
        tc "stats roundtrips" test_stats_roundtrips;
        tc "garbage rejection" test_decode_garbage;
        tc "wire size" test_wire_size;
        tc "frame size limit" test_frame_size_limit;
        tc "duplicate-id partition table rejected" test_duplicate_id_table_rejected;
        prop_roundtrip;
      ] );
  ]
