(* End-to-end scenario test: one campus deployment living through its
   whole operational life — traffic, statistics, a policy update, an
   authority failure, and a traffic-driven rebalance — asserting the
   global invariants at every stage. *)

open Test_util

let seed = 1234

let assert_faithful d policy ~probes =
  List.iter
    (fun (ingress, h) ->
      let expected = Option.value ~default:Action.Drop (Classifier.action policy h) in
      let got = (Deployment.inject d ~now:1e6 ~ingress h).Deployment.action in
      if not (Action.equal expected got) then
        Alcotest.failf "divergence at ingress %d: expected %s got %s" ingress
          (Action.to_string expected) (Action.to_string got))
    probes

let test_lifecycle () =
  let rng = Prng.create seed in
  let policy =
    Policy_gen.acl (Prng.split rng)
      { Policy_gen.default_acl with rules = 300; chains = 20; chain_depth = 5 }
  in
  let topo_rng = Prng.split rng in
  let topology = Topology.campus ~rand:(fun () -> Prng.float topo_rng) ~edge_switches:8 () in
  let edges = List.init 8 (fun e -> 2 + 2 + e) in
  let config =
    {
      Deployment.default_config with
      k = 8;
      replication = 2;
      cache_capacity = 64;
      cache_idle_timeout = None;
      cache_hard_timeout = Some 5.0;
      balance = `Volume;
    }
  in
  let d = ref (Deployment.build ~config ~policy ~topology ~authority_ids:[ 2; 3 ] ()) in
  let probe_rng = Prng.split rng in
  let headers = Traffic.headers_for (Prng.split rng) policy 300 in
  let probes =
    List.init 400 (fun i ->
        (List.nth edges (Prng.int probe_rng 8), headers.(i mod Array.length headers)))
  in

  (* Phase 1: fresh deployment enforces the policy from every edge. *)
  assert_faithful !d policy ~probes;

  (* Phase 2: run traffic through the DES; throughput and counters sane. *)
  let profile =
    {
      Traffic.default with
      flows = 5_000;
      rate = 10_000.;
      alpha = 1.0;
      distinct_headers = 300;
      packets_per_flow_mean = 3.0;
      ingresses = edges;
    }
  in
  let flows = Traffic.generate (Prng.split rng) policy profile in
  let r = Flowsim.run Flowsim.Config.default !d flows in
  check Alcotest.int "all flows complete" 5000 r.Flowsim.completed_flows;
  check Alcotest.bool "caches warmed" true (r.Flowsim.cache_hit_packets > 0);
  let loads = Deployment.measured_partition_loads !d in
  let measured = List.fold_left (fun acc (_, l) -> acc +. l) 0. loads in
  check Alcotest.bool "misses measured per partition" true (measured > 0.);

  (* Phase 3: traffic-driven rebalance preserves semantics. *)
  d := Deployment.rebalance !d ~loads;
  assert_faithful !d policy ~probes;

  (* Phase 4: policy update (strict) switches semantics atomically. *)
  let policy2 =
    Policy_gen.acl (Prng.split rng)
      { Policy_gen.default_acl with rules = 300; chains = 20; chain_depth = 5 }
  in
  d := Deployment.update_policy !d ~now:10. policy2;
  assert_faithful !d policy2 ~probes;

  (* Phase 5: an authority dies; hot backups keep the system faithful. *)
  let victim = List.hd (Deployment.authority_ids !d) in
  d := Deployment.fail_authority !d victim;
  check Alcotest.int "promotion needed no serving-path installs" 0
    (Deployment.last_new_primary_installs !d);
  assert_faithful !d policy2 ~probes;

  (* Phase 6: global counter conservation across the whole life. *)
  Array.iteri
    (fun i sw ->
      let c = Switch.stats sw in
      if Int64.compare c.Switch.unmatched 0L > 0 then
        Alcotest.failf "switch %d saw unmatched packets" i)
    (Deployment.switches !d)

let test_lifecycle_with_control_plane () =
  (* Same story, but the failure is detected by the control plane rather
     than declared by the test. *)
  let rng = Prng.create (seed + 1) in
  let policy =
    Policy_gen.acl (Prng.split rng) { Policy_gen.default_acl with rules = 120 }
  in
  let topology = Topology.full_mesh 6 () in
  let config = { Deployment.default_config with k = 6; replication = 2 } in
  let d = Deployment.build ~config ~policy ~topology ~authority_ids:[ 1; 2; 3 ] () in
  let cp = Control_plane.create d in
  (* warm traffic *)
  let headers = Traffic.headers_for (Prng.split rng) policy 100 in
  Array.iter (fun h -> ignore (Deployment.inject d ~now:0. ~ingress:0 h)) headers;
  (* kill an authority device; drive the control plane until detection *)
  Control_plane.kill_switch cp 2;
  let t = ref 0. in
  while !t < 15. do
    Control_plane.tick cp ~now:!t;
    t := !t +. 0.25
  done;
  check (Alcotest.list Alcotest.int) "death detected" [ 2 ]
    (Control_plane.failed_switches cp);
  let d' = Control_plane.deployment cp in
  check Alcotest.bool "authority removed" true
    (not (List.mem 2 (Deployment.authority_ids d')));
  (* misses keep being served correctly after automatic failover *)
  Array.iter
    (fun h ->
      let expected = Option.value ~default:Action.Drop (Classifier.action policy h) in
      let got = (Deployment.inject d' ~now:20. ~ingress:4 h).Deployment.action in
      if not (Action.equal expected got) then Alcotest.fail "post-detection divergence")
    headers

(* Chaos property: a random interleaving of operational events must never
   produce a packet decision that disagrees with the current policy. *)

type chaos_op = Traffic_burst | Update_policy | Kill_authority | Rebalance | Expire

let gen_chaos =
  QCheck2.Gen.(
    list_size (int_range 3 12)
      (oneofl [ Traffic_burst; Update_policy; Kill_authority; Rebalance; Expire ]))

let prop_chaos =
  qt ~count:15 "random operational chaos never breaks semantics" gen_chaos (fun ops ->
      let rng = Prng.create 77 in
      let mk_policy () =
        Policy_gen.acl (Prng.split rng)
          { Policy_gen.default_acl with rules = 60; chains = 8; chain_depth = 3 }
      in
      let policy = ref (mk_policy ()) in
      let d =
        ref
          (Deployment.build
             ~config:
               { Deployment.default_config with
                 k = 4; replication = 2; cache_capacity = 32;
                 cache_hard_timeout = Some 1.0 }
             ~policy:!policy ~topology:(Topology.full_mesh 5 ())
             ~authority_ids:[ 1; 2; 3 ] ())
      in
      let now = ref 0. in
      let headers = Traffic.headers_for (Prng.split rng) !policy 60 in
      let faithful () =
        Array.for_all
          (fun h ->
            let expected =
              Option.value ~default:Action.Drop (Classifier.action !policy h)
            in
            Action.equal (Deployment.inject !d ~now:!now ~ingress:0 h).Deployment.action
              expected)
          headers
      in
      List.for_all
        (fun op ->
          now := !now +. 0.5;
          (match op with
          | Traffic_burst ->
              for i = 0 to 29 do
                ignore (Deployment.inject !d ~now:!now ~ingress:(i mod 5) headers.(i mod 60))
              done
          | Update_policy ->
              policy := mk_policy ();
              d := Deployment.update_policy !d ~now:!now !policy
          | Kill_authority ->
              let auths = Deployment.authority_ids !d in
              if List.length auths > 1 then d := Deployment.fail_authority !d (List.hd auths)
          | Rebalance ->
              d := Deployment.rebalance !d ~loads:(Deployment.measured_partition_loads !d)
          | Expire -> ignore (Deployment.expire_caches !d ~now:!now));
          faithful ())
        ops)

let suite =
  [
    ( "integration",
      [
        tc "deployment lifecycle" test_lifecycle;
        tc "lifecycle with live failure detection" test_lifecycle_with_control_plane;
        prop_chaos;
      ] );
  ]
