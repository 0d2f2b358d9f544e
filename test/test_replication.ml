open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let policy =
  Classifier.of_specs s2
    [
      (30, [ ("f1", "00000001") ], Action.Drop);
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 3);
      (0, [], Action.Drop);
    ]

let build ~replication () =
  let config = { Deployment.default_config with replication; k = 4 } in
  Deployment.build ~config ~policy ~topology:(Topology.line 5 ())
    ~authority_ids:[ 1; 3; 4 ] ()

let test_replicas_assigned () =
  let part = Partitioner.compute policy ~k:4 in
  let a = Assignment.greedy ~replication:2 part ~authority_switches:[ 0; 1; 2 ] in
  List.iter
    (fun (p : Partitioner.partition) ->
      let rs = Assignment.replicas_of a p.pid in
      check Alcotest.int "two replicas" 2 (List.length rs);
      check Alcotest.int "replicas distinct" 2 (List.length (List.sort_uniq Int.compare rs)))
    part.Partitioner.partitions

let test_replication_capped () =
  let part = Partitioner.compute policy ~k:2 in
  let a = Assignment.greedy ~replication:5 part ~authority_switches:[ 0; 1 ] in
  List.iter
    (fun (p : Partitioner.partition) ->
      check Alcotest.int "capped at pool size" 2
        (List.length (Assignment.replicas_of a p.pid)))
    part.Partitioner.partitions

let test_backup_tables_preinstalled () =
  let d = build ~replication:2 () in
  (* every partition's table exists on exactly 2 switches *)
  List.iter
    (fun (p : Partitioner.partition) ->
      let holders =
        List.filter
          (fun i ->
            List.exists
              (fun (q : Partitioner.partition) -> q.pid = p.pid)
              (Switch.authority_partitions (Deployment.switch d i)))
          [ 0; 1; 2; 3; 4 ]
      in
      check Alcotest.int "two holders" 2 (List.length holders))
    (Deployment.partitioner d).Partitioner.partitions

let test_failover_no_new_installs () =
  let d = build ~replication:2 () in
  let victim = List.hd (Deployment.authority_ids d) in
  let d' = Deployment.fail_authority d victim in
  (* backups were pre-installed: the failover may top up backup copies but
     must not need to move every partition *)
  let total = List.length (Deployment.partitioner d').Partitioner.partitions in
  check Alcotest.bool "fewer installs than partitions" true
    (Deployment.last_new_authority_installs d' <= total);
  (* semantics intact after failover *)
  let rng = Prng.create 7 in
  let probes = List.init 200 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  check Alcotest.bool "still correct" true (Deployment.semantically_equal d' probes);
  check Alcotest.bool "exact oracle agrees" true (Deployment.counterexample d' = None)

let test_failover_without_replication_needs_installs () =
  let d = build ~replication:1 () in
  let victim = List.hd (Deployment.authority_ids d) in
  let moved = List.length (Assignment.partitions_of (Deployment.assignment d) victim) in
  let d' = Deployment.fail_authority d victim in
  if moved > 0 then
    check Alcotest.bool "unreplicated failover moves tables" true
      (Deployment.last_new_authority_installs d' >= moved)

let test_failover_without_replication_replaces_correctly () =
  (* the re-placement path: with no warm backup, every partition the victim
     hosted must land on a survivor, and the network must keep answering
     with the policy's verdicts *)
  let d = build ~replication:1 () in
  let victim = List.hd (Deployment.authority_ids d) in
  let d' = Deployment.fail_authority d victim in
  check Alcotest.bool "victim left the pool" false
    (List.mem victim (Deployment.authority_ids d'));
  List.iter
    (fun (p : Partitioner.partition) ->
      let holders = Assignment.replicas_of (Deployment.assignment d') p.pid in
      check Alcotest.bool "partition re-placed on a survivor" true
        (holders <> [] && not (List.mem victim holders)))
    (Deployment.partitioner d').Partitioner.partitions;
  let rng = Prng.create 11 in
  let probes = List.init 200 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  check Alcotest.bool "semantics preserved" true
    (Deployment.semantically_equal d' probes);
  check Alcotest.bool "exact oracle agrees" true (Deployment.counterexample d' = None)

let test_promote_prefers_backup () =
  let part = Partitioner.compute policy ~k:4 in
  let a = Assignment.greedy ~replication:2 part ~authority_switches:[ 0; 1; 2 ] in
  let victim = 0 in
  let a' = Assignment.reassign a ~failed:victim in
  List.iter
    (fun (p : Partitioner.partition) ->
      let old_rs = Assignment.replicas_of a p.pid in
      let new_primary = Assignment.switch_for a' p.pid in
      if List.hd old_rs = victim then
        (* promoted to the old backup *)
        check Alcotest.int "backup promoted" (List.nth old_rs 1) new_primary
      else check Alcotest.int "unaffected primary" (List.hd old_rs) new_primary)
    part.Partitioner.partitions

let test_hosted_by () =
  let part = Partitioner.compute policy ~k:4 in
  let a = Assignment.greedy ~replication:2 part ~authority_switches:[ 0; 1 ] in
  let total_hosted = List.length (Assignment.hosted_by a 0) + List.length (Assignment.hosted_by a 1) in
  check Alcotest.int "each partition hosted twice" (2 * 4) total_hosted

let test_data_plane_failover () =
  let d = build ~replication:2 () in
  let rng = Prng.create 17 in
  let probes = List.init 150 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  (* primary goes dark with NO controller involvement *)
  let victim = List.hd (Deployment.authority_ids d) in
  Deployment.mark_unreachable d victim;
  (* every miss falls back to the backup replica in the data plane *)
  List.iter
    (fun hd ->
      let o = Deployment.inject d ~now:0. ~ingress:0 hd in
      (match o.Deployment.authority with
      | Some a when a = victim -> Alcotest.fail "miss served by the dead switch"
      | _ -> ());
      let expected = Option.value ~default:Action.Drop (Classifier.action policy hd) in
      if not (Action.equal o.Deployment.action expected) then
        Alcotest.fail "backup fallback changed semantics")
    probes;
  (* recovery restores the primary path *)
  Deployment.mark_reachable d victim;
  Deployment.flush_caches d;
  let served_by_victim = ref false in
  List.iter
    (fun hd ->
      match (Deployment.inject d ~now:1. ~ingress:0 hd).Deployment.authority with
      | Some a when a = victim -> served_by_victim := true
      | _ -> ())
    probes;
  check Alcotest.bool "primary serves again after recovery" true !served_by_victim

let test_data_plane_failover_without_backups () =
  let d = build ~replication:1 () in
  Deployment.flush_caches d;
  (* kill every authority: misses degrade to the controller path
     (NOX-style reactive setup) instead of being lost *)
  List.iter (fun a -> Deployment.mark_unreachable d a) (Deployment.authority_ids d);
  let o = Deployment.inject d ~now:0. ~ingress:0 (h 2 0) in
  check action "policy action still applied" (Action.Forward 3) o.Deployment.action;
  check (Alcotest.option Alcotest.int) "no authority reached" None o.Deployment.authority;
  check Alcotest.bool "flagged degraded" true o.Deployment.degraded;
  check Alcotest.bool "controller installed a microflow entry" true
    (Option.is_some o.Deployment.installed);
  check Alcotest.int "degraded miss counted" 1 (Deployment.degraded_misses d);
  (* the reactive exact-match entry absorbs the repeat *)
  let o2 = Deployment.inject d ~now:0.1 ~ingress:0 (h 2 0) in
  check Alcotest.bool "repeat hits the cache" true o2.Deployment.cache_hit;
  check Alcotest.bool "repeat is not degraded" false o2.Deployment.degraded;
  check Alcotest.int "no second degraded miss" 1 (Deployment.degraded_misses d)

let test_strict_update_failover_race () =
  (* an authority dies while a strict policy update's deletion flow-mods
     are still in flight: the promoted backup must serve the NEW policy,
     and no live switch may keep a cache entry spliced from the changed
     rule *)
  let policy2 =
    Classifier.of_specs s2
      [
        (30, [ ("f1", "00000001") ], Action.Drop);
        (10, [ ("f1", "0xxxxxxx") ], Action.Forward 2);
        (0, [], Action.Drop);
      ]
  in
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with replication = 2; k = 4 }
      ~policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
  in
  let cp = Control_plane.create d in
  (* warm a cache entry spliced from the rule that is about to change *)
  let o = Deployment.inject d ~now:0. ~ingress:0 (h 2 0) in
  check action "old policy action" (Action.Forward 3) o.Deployment.action;
  let changed = (Deployment.diff_policies ~old_policy:policy policy2).changed in
  check Alcotest.bool "update really changes a rule" true (changed <> []);
  Control_plane.update_policy cp ~now:1. policy2;
  (* the victim dies before any deletion aimed at it can be acked *)
  let victim = List.hd (Deployment.authority_ids (Control_plane.deployment cp)) in
  Control_plane.kill_switch cp victim;
  let t = ref 1.001 in
  while !t < 10. do
    Control_plane.tick cp ~now:!t;
    t := !t +. 0.05
  done;
  check (Alcotest.list Alcotest.int) "victim declared dead" [ victim ]
    (Control_plane.failed_switches cp);
  let d' = Control_plane.deployment cp in
  (* no live switch holds a cache entry spliced from a changed rule *)
  Array.iteri
    (fun i sw ->
      if i <> victim then
        List.iter
          (fun (e : Tcam.entry) ->
            match Switch.origin_of_cache_rule sw e.Tcam.rule.Rule.id with
            | Some o when List.mem o changed ->
                Alcotest.failf "switch %d kept a stale entry from rule %d" i o
            | _ -> ())
          (Tcam.entries (Switch.cache sw)))
    (Deployment.switches d');
  (* a fresh miss is served by a surviving replica under the new policy *)
  let o2 = Deployment.inject d' ~now:10. ~ingress:0 (h 2 0) in
  check action "new policy action served" (Action.Forward 2) o2.Deployment.action;
  match o2.Deployment.authority with
  | Some a when a = victim -> Alcotest.fail "miss served by the dead authority"
  | _ -> ()

let prop_reassign_keeps_replication =
  qt ~count:30 "reassign restores the replication factor"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 3))
    (fun (k, r) ->
      let part = Partitioner.compute policy ~k in
      let a = Assignment.greedy ~replication:r part ~authority_switches:[ 0; 1; 2; 3 ] in
      let a' = Assignment.reassign a ~failed:1 in
      List.for_all
        (fun (p : Partitioner.partition) ->
          let rs = Assignment.replicas_of a' p.pid in
          List.length rs = min r 3
          && (not (List.mem 1 rs))
          && List.length (List.sort_uniq Int.compare rs) = List.length rs)
        part.Partitioner.partitions)

let suite =
  [
    ( "replication",
      [
        tc "replicas assigned distinctly" test_replicas_assigned;
        tc "replication capped at pool" test_replication_capped;
        tc "backup tables pre-installed" test_backup_tables_preinstalled;
        tc "failover with backups" test_failover_no_new_installs;
        tc "failover without backups moves tables" test_failover_without_replication_needs_installs;
        tc "failover without backups re-places correctly"
          test_failover_without_replication_replaces_correctly;
        tc "promotion prefers the backup" test_promote_prefers_backup;
        tc "hosted_by counts replicas" test_hosted_by;
        tc "data-plane failover to backup" test_data_plane_failover;
        tc "data-plane failover without backups" test_data_plane_failover_without_backups;
        tc "strict update racing authority failover" test_strict_update_failover_race;
        prop_reassign_keeps_replication;
      ] );
  ]
