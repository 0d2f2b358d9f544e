open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let policy =
  Classifier.of_specs s2
    [
      (20, [ ("f1", "00000001") ], Action.Drop);
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 2);
      (0, [], Action.Drop);
    ]

(* NOX as DIFANE with its one authority (switch 1) down: every ingress
   miss is answered by the controller *)
let build () = Experiments.nox_baseline ~policy ~topology:(Topology.line 3 ()) ()

let test_first_packet_punts () =
  let n = build () in
  let o = Deployment.inject n ~now:0. ~ingress:0 (h 2 9) in
  check Alcotest.bool "degraded" true o.Deployment.degraded;
  check action "action" (Action.Forward 2) o.Deployment.action

let test_second_packet_cached () =
  let n = build () in
  ignore (Deployment.inject n ~now:0. ~ingress:0 (h 2 9));
  let o = Deployment.inject n ~now:1. ~ingress:0 (h 2 9) in
  check Alcotest.bool "not degraded" false o.Deployment.degraded;
  check Alcotest.bool "cache hit" true o.Deployment.cache_hit

let test_microflow_is_exact () =
  let n = build () in
  let o = Deployment.inject n ~now:0. ~ingress:0 (h 2 9) in
  let r = Option.get o.Deployment.installed in
  check Alcotest.bool "matches its header" true (Rule.matches r (h 2 9));
  (* exact match: a different header in the same rule's region still punts *)
  check Alcotest.bool "no wildcard" false (Rule.matches r (h 2 10));
  let o2 = Deployment.inject n ~now:1. ~ingress:0 (h 2 10) in
  check Alcotest.bool "second header punts too" true o2.Deployment.degraded

let test_per_ingress_caches () =
  let n = build () in
  ignore (Deployment.inject n ~now:0. ~ingress:0 (h 2 9));
  (* ingress 2, not the down authority 1, whose own bank would answer *)
  let o = Deployment.inject n ~now:1. ~ingress:2 (h 2 9) in
  check Alcotest.bool "other ingress misses" true o.Deployment.degraded

let prop_nox_equals_policy =
  qt ~count:80 "NOX always applies the policy action"
    QCheck2.Gen.(list_size (int_range 1 40) gen_header_tiny2)
    (fun headers ->
      let n = build () in
      List.for_all
        (fun hd ->
          let o = Deployment.inject n ~now:0. ~ingress:0 hd in
          match Classifier.action policy hd with
          | Some a -> Action.equal a o.Deployment.action
          | None -> false)
        headers)

let prop_punts_bounded_by_distinct_headers =
  qt ~count:40 "packet-ins <= distinct headers"
    QCheck2.Gen.(list_size (int_range 1 60) gen_header_tiny2)
    (fun headers ->
      let n = build () in
      let punts =
        List.length
          (List.filter (fun hd -> (Deployment.inject n ~now:0. ~ingress:0 hd).Deployment.degraded) headers)
      in
      punts <= List.length (List.sort_uniq Header.compare headers))

let suite =
  [
    ( "nox",
      [
        tc "first packet punts to controller" test_first_packet_punts;
        tc "second packet served from microflow table" test_second_packet_cached;
        tc "microflow rules are exact-match" test_microflow_is_exact;
        tc "caches are per-ingress" test_per_ingress_caches;
        prop_nox_equals_policy;
        prop_punts_bounded_by_distinct_headers;
      ] );
  ]
