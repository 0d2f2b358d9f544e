(* The hop-by-hop data plane. *)

open Test_util

let mk ~nodes links =
  Topology.create ~nodes
    (List.map
       (fun (a, b, lat) -> { Topology.src = a; dst = b; latency = lat; bandwidth = 1e9 })
       links)

(* --- dataplane walk --- *)

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let policy =
  Classifier.of_specs s2
    [
      (30, [ ("f1", "00000001") ], Action.Drop);
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 4);
      (0, [], Action.Drop);
    ]

let build () =
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with k = 4 }
      ~policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
  in
  (d, Deployment.topology d)

let test_walk_miss_then_hit () =
  let d, topology = build () in
  let switch = Deployment.switch d in
  let r1 = Dataplane.packet ~topology ~switch ~now:0. ~ingress:0 (h 2 0) in
  check action "delivered with policy action" (Action.Forward 4) r1.Dataplane.action;
  check Alcotest.bool "delivered" true r1.Dataplane.delivered;
  check Alcotest.int "two tunnels: to authority, to egress" 2 r1.Dataplane.encapsulations;
  check Alcotest.int "starts at ingress" 0 (List.hd r1.Dataplane.trace);
  (* the trace visits some authority before reaching egress 4 *)
  check Alcotest.bool "visits an authority" true
    (List.exists (fun sw -> List.mem sw [ 1; 3 ]) r1.Dataplane.trace);
  check Alcotest.int "ends at egress" 4
    (List.nth r1.Dataplane.trace (List.length r1.Dataplane.trace - 1));
  (* second packet: cache hit, single tunnel straight to egress *)
  let r2 = Dataplane.packet ~topology ~switch ~now:0.1 ~ingress:0 (h 2 0) in
  check Alcotest.int "one tunnel after caching" 1 r2.Dataplane.encapsulations;
  check (Alcotest.list Alcotest.int) "direct trace" [ 0; 1; 2; 3; 4 ] r2.Dataplane.trace

let test_walk_drop_local () =
  let d, topology = build () in
  let r = Dataplane.packet ~topology ~switch:(Deployment.switch d) ~now:0. ~ingress:0 (h 1 0) in
  check action "dropped" Action.Drop r.Dataplane.action;
  check Alcotest.bool "a drop verdict is a delivery" true r.Dataplane.delivered;
  check Alcotest.bool "no egress tunnel" true (r.Dataplane.encapsulations <= 1)

let test_walk_agrees_with_inject () =
  (* the faithful executor and the shortcut must agree on action and
     latency for identical fresh deployments *)
  let rng = Prng.create 5 in
  for _ = 1 to 50 do
    let hdr = h (Prng.int rng 256) (Prng.int rng 256) in
    let d1, topology = build () in
    let d2, _ = build () in
    let w = Dataplane.packet ~topology ~switch:(Deployment.switch d1) ~now:0. ~ingress:0 hdr in
    let o = Deployment.inject d2 ~now:0. ~ingress:0 hdr in
    if not (Action.equal w.Dataplane.action o.Deployment.action) then
      Alcotest.fail "walk and inject disagree on action";
    if w.Dataplane.delivered && Float.abs (w.Dataplane.latency -. o.Deployment.latency) > 1e-9
    then
      Alcotest.failf "latency disagrees: walk %f vs inject %f" w.Dataplane.latency
        o.Deployment.latency
  done

let test_walk_survives_reroute () =
  (* break a link on the ingress-authority path: the IGP reconverges and
     the walk still delivers, over a longer path *)
  let policy = Classifier.of_specs s2 [ (1, [], Action.Forward 3) ] in
  let topo = Topology.full_mesh 4 () in
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with k = 2 }
      ~policy ~topology:topo ~authority_ids:[ 1 ] ()
  in
  let before = Dataplane.packet ~topology:topo ~switch:(Deployment.switch d) ~now:0. ~ingress:0 (h 9 9) in
  check Alcotest.bool "delivered before" true before.Dataplane.delivered;
  Deployment.flush_caches d;
  let after =
    Dataplane.packet ~topology:(Topology.without_link topo 0 1) ~switch:(Deployment.switch d)
      ~now:1. ~ingress:0 (h 9 9)
  in
  check Alcotest.bool "delivered after reroute" true after.Dataplane.delivered;
  check action "same action" before.Dataplane.action after.Dataplane.action;
  check Alcotest.bool "path got longer" true
    (List.length after.Dataplane.trace > List.length before.Dataplane.trace)

let test_walk_unreachable_authority () =
  let policy = Classifier.of_specs s2 [ (1, [], Action.Forward 2) ] in
  let topo = mk ~nodes:3 [ (0, 1, 1e-4); (1, 2, 1e-4) ] in
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with k = 1 }
      ~policy ~topology:topo ~authority_ids:[ 1 ] ()
  in
  (* IGP state where the authority became unreachable *)
  let topology = without_node topo 1 in
  let r = Dataplane.packet ~topology ~switch:(Deployment.switch d) ~now:0. ~ingress:0 (h 0 0) in
  check Alcotest.bool "not delivered" false r.Dataplane.delivered;
  check Alcotest.bool "blames reachability, not ttl" true
    (r.Dataplane.drop_reason = Some Dataplane.Unreachable)

let suite =
  [
    ( "dataplane",
      [
        tc "miss tunnels then cache cut-through" test_walk_miss_then_hit;
        tc "local drop" test_walk_drop_local;
        tc "walk = inject" test_walk_agrees_with_inject;
        tc "survives IGP reroute" test_walk_survives_reroute;
        tc "unreachable authority" test_walk_unreachable_authority;
      ] );
  ]
