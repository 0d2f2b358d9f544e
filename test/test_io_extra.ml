(* Policy files and codec robustness. *)

open Test_util

let s2 = Schema.tiny2

(* --- policy io --- *)

let sample_policy =
  Classifier.of_specs s2
    [
      (40, [ ("f1", "00000001") ], Action.Drop);
      (20, [ ("f1", "0000_00xx"); ("f2", "1xxxxxxx") ], Action.Forward 1);
      (10, [], Action.Count_and_forward 2);
      (0, [], Action.Drop);
    ]

let test_policy_roundtrip () =
  let text = Policy_io.to_string sample_policy in
  match Policy_io.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok c ->
      check Alcotest.int "rule count" (Classifier.length sample_policy) (Classifier.length c);
      check Alcotest.bool "semantically identical" true (Equiv.equivalent sample_policy c)

let test_policy_file_roundtrip () =
  let path = Filename.temp_file "difane" ".policy" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Policy_io.save path sample_policy;
      match Policy_io.load path with
      | Ok c -> check Alcotest.bool "equivalent" true (Equiv.equivalent sample_policy c)
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_policy_handwritten () =
  let text =
    String.concat "\n"
      [
        "# difane-policy v1";
        "# schema: f1/8,f2/8";
        "";
        "# block one host";
        "40 f1=00000001 drop";
        "10 f1=0xxxxxxx,f2=1111_0000 fwd:3";
        "0 * drop";
        "";
      ]
  in
  match Policy_io.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok c ->
      check Alcotest.int "three rules" 3 (Classifier.length c);
      let h a b = Header.make (Classifier.schema c) [| Int64.of_int a; Int64.of_int b |] in
      check (Alcotest.option action) "fwd rule" (Some (Action.Forward 3))
        (Classifier.action c (h 2 0xF0));
      check (Alcotest.option action) "drop host" (Some Action.Drop)
        (Classifier.action c (h 1 0xF0))

let test_value_syntax () =
  let t32 v = Ternary.of_value_string ~width:32 v in
  check ternary "cidr" (Ternary.prefix ~width:32 0x0A010200L 24) (t32 "10.1.2.0/24");
  check ternary "bare addr" (Ternary.exact ~width:32 0x0A010203L) (t32 "10.1.2.3");
  check ternary "star" (Ternary.any 32) (t32 "*");
  let t16 v = Ternary.of_value_string ~width:16 v in
  check ternary "decimal" (Ternary.exact ~width:16 80L) (t16 "80");
  (* all-01 tokens: binary when digit count = width, decimal otherwise *)
  check ternary "binary when width matches" (Ternary.of_string "0000000000001010")
    (t16 "0000000000001010");
  check ternary "decimal when shorter" (Ternary.exact ~width:16 10L) (t16 "10");
  check ternary "x-string" (Ternary.of_string "000000000101xxxx") (t16 "000000000101xxxx");
  List.iter
    (fun (w, v) ->
      try
        ignore (Ternary.of_value_string ~width:w v);
        Alcotest.failf "accepted %S" v
      with Invalid_argument _ -> ())
    [
      (16, "10.0.0.1"); (* dotted on non-32-bit *)
      (32, "10.0.0.256"); (* bad octet *)
      (32, "10.0.0.0/33"); (* bad prefix *)
      (16, "01xx"); (* bit string of wrong width *)
      (16, "eighty"); (* garbage *)
    ]

let test_policy_friendly_syntax () =
  let text =
    String.concat "\n"
      [
        "# difane-policy v1";
        "# schema: src_ip/32,dst_ip/32,src_port/16,dst_port/16,proto/8";
        "40 src_ip=10.0.0.0/8,proto=6 drop";
        "20 dst_port=80 fwd:2";
        "10 * fwd:1";
      ]
  in
  match Policy_io.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok c ->
      let h fields = Header.of_fields (Classifier.schema c) fields in
      check (Alcotest.option action) "cidr drop" (Some Action.Drop)
        (Classifier.action c (h [ ("src_ip", 0x0A123456L); ("proto", 6L) ]));
      check (Alcotest.option action) "port fwd" (Some (Action.Forward 2))
        (Classifier.action c (h [ ("dst_port", 80L) ]));
      check (Alcotest.option action) "default" (Some (Action.Forward 1))
        (Classifier.action c (h [ ("dst_port", 81L) ]))

let test_crlf_tolerated () =
  let text =
    String.concat "\r\n"
      [ "# difane-policy v1"; "# schema: f1/8,f2/8"; "5 f1=0000000x drop"; "0 * fwd:1"; "" ]
  in
  match Policy_io.of_string text with
  | Ok c -> check Alcotest.int "two rules" 2 (Classifier.length c)
  | Error e -> Alcotest.failf "CRLF rejected: %s" e

let test_policy_errors () =
  let expect_error text =
    match Policy_io.of_string text with
    | Ok _ -> Alcotest.failf "accepted: %s" (String.escaped text)
    | Error _ -> ()
  in
  expect_error "garbage";
  expect_error "# difane-policy v1\n# schema: f1/0\n";
  expect_error "# difane-policy v1\n# schema: f1/8\n5 f1=0000000x explode\n";
  expect_error "# difane-policy v1\n# schema: f1/8\nnope * drop\n";
  expect_error "# difane-policy v1\n# schema: f1/8\n5 f9=0000000x drop\n";
  (* an egress is a switch id, never negative *)
  expect_error "# difane-policy v1\n# schema: f1/8\n5 * fwd:-3\n";
  expect_error "# difane-policy v1\n# schema: f1/8\n5 * count_fwd:-1\n";
  (* infrastructure actions cannot be serialised *)
  let infra =
    Classifier.create s2
      [ Rule.make ~id:0 ~priority:1 (Pred.any s2) (Action.To_authority 3) ]
  in
  try
    ignore (Policy_io.to_string infra);
    Alcotest.fail "tunnel action serialised"
  with Invalid_argument _ -> ()

let prop_policy_roundtrip =
  qt ~count:60 "generated policies survive the file format"
    QCheck2.Gen.(list_size (int_range 1 10) (pair (int_bound 50) gen_pred_tiny2))
    (fun specs ->
      let rules =
        List.mapi
          (fun i (pr, pd) ->
            Rule.make ~id:i ~priority:pr pd
              (if i mod 2 = 0 then Action.Drop else Action.Forward i))
          specs
      in
      let c = Classifier.create s2 rules in
      match Policy_io.of_string (Policy_io.to_string c) with
      | Ok c' -> Equiv.equivalent c c'
      | Error _ -> false)

(* --- codec robustness: corrupted frames must error, never raise --- *)

let prop_codec_never_raises =
  qt ~count:300 "decode of corrupted frames returns Error (no exception)"
    QCheck2.Gen.(triple (int_bound 200) (int_bound 255) gen_pred_tiny2)
    (fun (pos, byte, pd) ->
      let msg =
        Message.Flow_mod
          { Message.command = Message.Add; bank = Message.Cache;
            rule = Rule.make ~id:1 ~priority:2 pd Action.Drop;
            idle_timeout = Some 1.; hard_timeout = None }
      in
      let frame = Message.encode ~xid:9 msg in
      let corrupted = Bytes.copy frame in
      let pos = pos mod Bytes.length corrupted in
      Bytes.set_uint8 corrupted pos byte;
      match Message.decode s2 corrupted with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_codec_truncation_never_raises =
  qt ~count:100 "decode of truncated frames returns Error (no exception)"
    QCheck2.Gen.(int_bound 100)
    (fun cut ->
      let msg =
        Message.Stats_reply
          { Message.request_cookie = 3;
            flows = [ { Message.rule_id = 7; packets = 9L; bytes = 576L; duration = 0.5 } ] }
      in
      let frame = Message.encode ~xid:1 msg in
      let n = min cut (Bytes.length frame) in
      match Message.decode s2 (Bytes.sub frame 0 n) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* --- DES flowsim agrees with the policy --- *)

let prop_flowsim_respects_policy =
  qt ~count:30 "every DES-delivered flow followed the policy"
    QCheck2.Gen.(list_size (int_range 1 30) gen_header_tiny2)
    (fun headers ->
      let policy =
        Classifier.of_specs s2
          [
            (20, [ ("f1", "00000001") ], Action.Drop);
            (10, [ ("f1", "0xxxxxxx") ], Action.Forward 2);
            (0, [], Action.Drop);
          ]
      in
      let d =
        Deployment.build ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] ()
      in
      let flows =
        List.mapi
          (fun i h ->
            { Traffic.flow_id = i; header = h; ingress = 0;
              start = float_of_int i *. 1e-3; packets = 2; interval = 1e-4 })
          headers
      in
      let r = Flowsim.run Flowsim.Config.default d flows in
      (* all flows complete (low load, total policy), and the switch
         counters attribute every delivered packet *)
      r.Flowsim.completed_flows = List.length headers
      && r.Flowsim.dropped_flows = 0
      &&
      let counted =
        Array.fold_left
          (fun acc sw ->
            List.fold_left (fun a (_, n) -> Int64.add a n) acc (Switch.aggregate_counters sw))
          0L (Deployment.switches d)
      in
      Int64.to_int counted = r.Flowsim.delivered_packets)

let suite =
  [
    ( "policy io",
      [
        tc "roundtrip" test_policy_roundtrip;
        tc "file roundtrip" test_policy_file_roundtrip;
        tc "hand-written file" test_policy_handwritten;
        tc "friendly value syntax" test_value_syntax;
        tc "cidr/decimal policy file" test_policy_friendly_syntax;
        tc "CRLF files tolerated" test_crlf_tolerated;
        tc "error cases" test_policy_errors;
        prop_policy_roundtrip;
      ] );
    ( "codec fuzz",
      [ prop_codec_never_raises; prop_codec_truncation_never_raises ] );
    ( "des consistency", [ prop_flowsim_respects_policy ] );
  ]
