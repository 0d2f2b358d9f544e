(* Tests for the extension layers: trace serialisation, the indexed
   classifier, microflow cache mode, and flow-removed notifications. *)

open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

(* --- trace --- *)

let sample_flows =
  List.init 25 (fun i ->
      {
        Traffic.flow_id = i;
        header = h (i mod 256) ((i * 7) mod 256);
        ingress = i mod 3;
        start = float_of_int i *. 0.125;
        packets = 1 + (i mod 5);
        interval = 0.001;
      })

let flows_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Traffic.flow) (y : Traffic.flow) ->
         x.flow_id = y.flow_id && x.ingress = y.ingress
         && Float.abs (x.start -. y.start) < 1e-9
         && x.packets = y.packets
         && Float.abs (x.interval -. y.interval) < 1e-9
         && Header.equal x.header y.header)
       a b

let test_trace_roundtrip () =
  let text = Trace.to_string s2 sample_flows in
  match Trace.of_string s2 text with
  | Ok flows -> check Alcotest.bool "roundtrip" true (flows_equal sample_flows flows)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_trace_file_roundtrip () =
  let path = Filename.temp_file "difane" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path s2 sample_flows;
      match Trace.load path s2 with
      | Ok flows -> check Alcotest.bool "file roundtrip" true (flows_equal sample_flows flows)
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_trace_schema_mismatch () =
  let text = Trace.to_string s2 sample_flows in
  match Trace.of_string Schema.ip_pair text with
  | Ok _ -> Alcotest.fail "schema mismatch accepted"
  | Error e -> check Alcotest.bool "mentions schema" true (String.length e > 0)

let test_trace_garbage () =
  (match Trace.of_string s2 "not a trace" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  let text = Trace.to_string s2 sample_flows ^ "1 2 oops\n" in
  match Trace.of_string s2 text with
  | Ok _ -> Alcotest.fail "truncated record accepted"
  | Error e -> check Alcotest.bool "line number in error" true (String.length e > 0)

let test_trace_comments_blank () =
  let text = Trace.to_string s2 sample_flows ^ "\n# trailing comment\n\n" in
  match Trace.of_string s2 text with
  | Ok flows -> check Alcotest.int "comments skipped" 25 (List.length flows)
  | Error e -> Alcotest.failf "parse failed: %s" e

(* --- indexed classifier --- *)

let test_indexed_basics () =
  let c =
    Classifier.of_specs s2
      [
        (30, [ ("f1", "00000001") ], Action.Drop);
        (20, [ ("f1", "000000xx") ], Action.Forward 1);
        (10, [], Action.Forward 2);
      ]
  in
  let idx = Indexed.of_classifier c in
  check Alcotest.int "length" 3 (Classifier.length (Indexed.table idx));
  check Alcotest.int "three mask groups" 3 (Indexed.groups idx);
  let get f = Option.map (fun (r : Rule.t) -> r.id) (f (h 1 0)) in
  check (Alcotest.option Alcotest.int) "same winner" (get (Classifier.first_match c))
    (get (Indexed.first_match idx))

let test_indexed_tie_break () =
  let c =
    Classifier.of_specs s2
      [ (5, [ ("f1", "0000000x") ], Action.Forward 1); (5, [ ("f1", "0000000x") ], Action.Forward 2) ]
  in
  let idx = Indexed.of_classifier c in
  match Indexed.first_match idx (h 0 0) with
  | Some r -> check Alcotest.int "lower id wins" 0 r.Rule.id
  | None -> Alcotest.fail "no match"

let test_indexed_adaptive () =
  (* prefix tables share mask vectors (one per prefix length): tuple
     search applies; random-mask ACLs degenerate to the linear scan *)
  let prefixes =
    Policy_gen.prefix_table (Prng.create 3)
      { Policy_gen.default_prefixes with prefixes = 500 }
  in
  let pidx = Indexed.of_classifier prefixes in
  check Alcotest.bool "prefix table keeps tuple search" false (Indexed.degenerate pidx);
  check Alcotest.bool "one group per prefix length" true (Indexed.groups pidx <= 33);
  let acl = Policy_gen.acl (Prng.create 3) { Policy_gen.default_acl with rules = 200 } in
  let aidx = Indexed.of_classifier acl in
  check Alcotest.bool "acl falls back to scan" true (Indexed.degenerate aidx);
  (* semantics identical either way *)
  let h = (Traffic.headers_for (Prng.create 9) prefixes 1).(0) in
  check Alcotest.bool "same winner" true
    (Option.map (fun (r : Rule.t) -> r.id) (Indexed.first_match pidx h)
    = Option.map (fun (r : Rule.t) -> r.id) (Classifier.first_match prefixes h))

let prop_indexed_equals_linear =
  qt ~count:150 "indexed = linear first_match"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 15) (pair (int_bound 10) gen_pred_tiny2))
        gen_header_tiny2)
    (fun (specs, hdr) ->
      let rules =
        List.mapi (fun i (pr, pd) -> Rule.make ~id:i ~priority:pr pd Action.Drop) specs
      in
      let c = Classifier.create s2 rules in
      let idx = Indexed.of_classifier c in
      let a = Option.map (fun (r : Rule.t) -> r.id) (Classifier.first_match c hdr) in
      let b = Option.map (fun (r : Rule.t) -> r.id) (Indexed.first_match idx hdr) in
      a = b)

(* --- microflow cache mode --- *)

let policy =
  Classifier.of_specs s2
    [ (10, [ ("f1", "0xxxxxxx") ], Action.Forward 2); (0, [], Action.Drop) ]

let test_microflow_mode_exact () =
  let config = { Deployment.default_config with cache_mode = `Microflow } in
  let d =
    Deployment.build ~config ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] ()
  in
  let o = Deployment.inject d ~now:0. ~ingress:0 (h 2 9) in
  let r = Option.get o.Deployment.installed in
  check Alcotest.bool "covers its header" true (Rule.matches r (h 2 9));
  check Alcotest.bool "exact: no aggregation" false (Rule.matches r (h 2 10));
  (* a nearby header misses again under microflow caching... *)
  let o2 = Deployment.inject d ~now:0.1 ~ingress:0 (h 2 10) in
  check Alcotest.bool "sibling header misses" false o2.Deployment.cache_hit;
  (* ...but hits under spliced caching *)
  let d' =
    Deployment.build ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] ()
  in
  ignore (Deployment.inject d' ~now:0. ~ingress:0 (h 2 9));
  let o3 = Deployment.inject d' ~now:0.1 ~ingress:0 (h 2 10) in
  check Alcotest.bool "spliced aggregates" true o3.Deployment.cache_hit

(* --- flow-removed notifications --- *)

let test_flow_removed_codec () =
  let msg =
    Message.Flow_removed
      {
        Message.removed_rule = 2_000_007;
        cookie = 42;
        reason = Message.Hard_timeout;
        final_packets = 123L;
        final_bytes = 7872L;
        lifetime = 9.5;
      }
  in
  match Message.decode s2 (Message.encode ~xid:3 msg) with
  | Ok (3, _, msg') -> check Alcotest.bool "roundtrip" true (Message.equal msg msg')
  | Ok _ -> Alcotest.fail "xid corrupted"
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_flow_removed_unset_cookie () =
  let msg =
    Message.Flow_removed
      { Message.removed_rule = 1; cookie = -1; reason = Message.Evicted;
        final_packets = 0L; final_bytes = 0L; lifetime = 0. }
  in
  match Message.decode s2 (Message.encode ~xid:0 msg) with
  | Ok (_, _, Message.Flow_removed f) ->
      check Alcotest.int "cookie -1 survives" (-1) f.Message.cookie
  | _ -> Alcotest.fail "roundtrip failed"

let test_notifications_on_expiry () =
  let sw = Switch.create ~id:0 ~cache_capacity:4 in
  Switch.attach sw;
  let r = Rule.make ~id:9 ~priority:1 (Pred.any s2) (Action.Forward 1) in
  ignore (Switch.install_origin ~hard_timeout:1.0 ~origin:5 sw ~now:0. r);
  ignore (Switch.process sw ~now:0.5 (h 1 1));
  ignore (Switch.expire_cache sw ~now:2.0);
  match Switch.drain_notifications sw with
  | [ Message.Flow_removed f ] ->
      check Alcotest.int "rule id" 9 f.Message.removed_rule;
      check Alcotest.int "cookie carries origin" 5 f.Message.cookie;
      check Alcotest.bool "hard timeout reason" true (f.Message.reason = Message.Hard_timeout);
      check Alcotest.int64 "final packets" 1L f.Message.final_packets;
      check Alcotest.int "drained" 0 (List.length (Switch.drain_notifications sw))
  | other -> Alcotest.failf "expected one notification, got %d" (List.length other)

let test_notifications_on_eviction () =
  let sw = Switch.create ~id:0 ~cache_capacity:1 in
  Switch.attach sw;
  let mk id v =
    Rule.make ~id ~priority:1 (Pred.of_strings s2 [ ("f1", v) ]) Action.Drop
  in
  ignore (Switch.install_origin ~origin:1 sw ~now:0. (mk 100 "00000001"));
  ignore (Switch.install_origin ~origin:2 sw ~now:1. (mk 101 "00000010"));
  match Switch.drain_notifications sw with
  | [ Message.Flow_removed f ] ->
      check Alcotest.int "evicted rule" 100 f.Message.removed_rule;
      check Alcotest.bool "eviction reason" true (f.Message.reason = Message.Evicted)
  | other -> Alcotest.failf "expected one eviction, got %d" (List.length other)

let test_counters_survive_churn () =
  (* end-to-end: retired + live accounting through the control plane *)
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with cache_hard_timeout = Some 0.5; k = 2 }
      ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] ()
  in
  let cp =
    Control_plane.create
      ~config:{ Control_plane.default_config with stats_interval = 0.2 }
      d
  in
  (* two packets before expiry, then expiry, then two more (new entry) *)
  ignore (Deployment.inject d ~now:0.00 ~ingress:0 (h 2 9));
  ignore (Deployment.inject d ~now:0.01 ~ingress:0 (h 2 9));
  let t = ref 0.0 in
  while !t < 2.0 do
    ignore (Deployment.expire_caches d ~now:!t);
    Control_plane.tick cp ~now:!t;
    t := !t +. 0.05
  done;
  ignore (Deployment.inject d ~now:2.0 ~ingress:0 (h 2 9));
  ignore (Deployment.inject d ~now:2.01 ~ingress:0 (h 2 9));
  let t = ref 2.0 in
  while !t < 3.0 do
    Control_plane.tick cp ~now:!t;
    t := !t +. 0.05
  done;
  (* origin rule 0 decided all four packets; only cache hits are counted
     (the two misses were served by the authority bank) *)
  match List.assoc_opt 0 (Control_plane.rule_counters cp) with
  | Some n -> check Alcotest.int64 "cache-hit packets across churn" 2L n
  | None -> Alcotest.fail "no counter for origin rule 0"

let suite =
  [
    ( "trace",
      [
        tc "string roundtrip" test_trace_roundtrip;
        tc "file roundtrip" test_trace_file_roundtrip;
        tc "schema mismatch rejected" test_trace_schema_mismatch;
        tc "garbage rejected" test_trace_garbage;
        tc "comments and blanks skipped" test_trace_comments_blank;
      ] );
    ( "indexed",
      [
        tc "basics" test_indexed_basics;
        tc "tie break" test_indexed_tie_break;
        tc "adaptive fallback" test_indexed_adaptive;
        prop_indexed_equals_linear;
      ] );
    ( "cache modes",
      [ tc "microflow vs spliced aggregation" test_microflow_mode_exact ] );
    ( "flow removed",
      [
        tc "codec roundtrip" test_flow_removed_codec;
        tc "unset cookie" test_flow_removed_unset_cookie;
        tc "notification on expiry" test_notifications_on_expiry;
        tc "notification on eviction" test_notifications_on_eviction;
        tc "counters survive churn" test_counters_survive_churn;
      ] );
  ]
