(* Bounded partitioning and traffic-measured rebalancing (paper §5). *)

open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let policy = Policy_gen.acl (Prng.create 8) { Policy_gen.default_acl with rules = 250 }

(* --- compute_bounded --- *)

let test_bounded_fits () =
  let budget = 40 in
  let r = Partitioner.compute_bounded policy ~max_entries:budget in
  List.iter
    (fun (p : Partitioner.partition) ->
      if Classifier.length p.table > budget then
        Alcotest.failf "partition %d has %d entries (budget %d)" p.pid
          (Classifier.length p.table) budget)
    r.Partitioner.partitions;
  check Alcotest.bool "uses several partitions" true
    (List.length r.Partitioner.partitions > 1)

let test_bounded_minimal_when_it_fits () =
  let r = Partitioner.compute_bounded policy ~max_entries:10_000 in
  check Alcotest.int "single partition suffices" 1 (List.length r.Partitioner.partitions)

let test_bounded_cap () =
  let r = Partitioner.compute_bounded ~max_partitions:4 policy ~max_entries:1 in
  check Alcotest.bool "capped" true (List.length r.Partitioner.partitions <= 4)

let test_bounded_invalid () =
  try
    ignore (Partitioner.compute_bounded policy ~max_entries:0);
    Alcotest.fail "max_entries=0 accepted"
  with Invalid_argument _ -> ()

let prop_bounded_still_covers =
  qt ~count:20 "bounded partitions still tile the flowspace"
    QCheck2.Gen.(int_range 5 60)
    (fun budget ->
      let small =
        Policy_gen.acl (Prng.create budget) { Policy_gen.default_acl with rules = 80 }
      in
      let r = Partitioner.compute_bounded small ~max_entries:budget in
      let region =
        Region.of_preds (Classifier.schema small)
          (List.map (fun (p : Partitioner.partition) -> p.region) r.Partitioner.partitions)
      in
      Region.equal_sets region (Region.full (Classifier.schema small)))

(* --- measured loads and rebalance --- *)

let tiny_policy =
  Classifier.of_specs s2
    [
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 3);
      (10, [ ("f1", "1xxxxxxx") ], Action.Forward 3);
      (0, [], Action.Drop);
    ]

let build () =
  let config = { Deployment.default_config with k = 4; cache_capacity = 0 } in
  Deployment.build ~config ~policy:tiny_policy ~topology:(Topology.line 5 ())
    ~authority_ids:[ 1; 3 ] ()

let test_measured_loads () =
  let d = build () in
  (* hammer one corner of the flowspace: that partition gets the load *)
  for i = 0 to 99 do
    ignore (Deployment.inject d ~now:0. ~ingress:0 (h (i mod 16) (i mod 8)))
  done;
  let loads = Deployment.measured_partition_loads d in
  check Alcotest.int "every partition listed" 4 (List.length loads);
  let total = List.fold_left (fun acc (_, l) -> acc +. l) 0. loads in
  check (Alcotest.float 1e-9) "all misses measured" 100. total;
  let hottest = List.fold_left (fun acc (_, l) -> Float.max acc l) 0. loads in
  check Alcotest.bool "load is skewed" true (hottest >= 99.)

let test_rebalance_moves_hot_partition () =
  let d = build () in
  for i = 0 to 99 do
    ignore (Deployment.inject d ~now:0. ~ingress:0 (h (i mod 16) (i mod 8)))
  done;
  let loads = Deployment.measured_partition_loads d in
  let hot_pid, _ = List.fold_left (fun (bp, bl) (p, l) -> if l > bl then (p, l) else (bp, bl)) (-1, -1.) loads in
  let d' = Deployment.rebalance d ~loads in
  (* the hot partition must sit alone on its authority switch *)
  let host = Assignment.switch_for (Deployment.assignment d') hot_pid in
  check (Alcotest.list Alcotest.int) "hot partition isolated" [ hot_pid ]
    (Assignment.partitions_of (Deployment.assignment d') host);
  (* semantics survive the move *)
  let rng = Prng.create 3 in
  let probes = List.init 200 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  check Alcotest.bool "still correct" true (Deployment.semantically_equal d' probes)

let test_rebalance_keeps_partitions () =
  let d = build () in
  let before = (Deployment.partitioner d).Partitioner.partitions in
  let d' = Deployment.rebalance d ~loads:(List.map (fun (p : Partitioner.partition) -> (p.pid, 1.)) before) in
  let after = (Deployment.partitioner d').Partitioner.partitions in
  check Alcotest.int "same partition count" (List.length before) (List.length after);
  List.iter2
    (fun (a : Partitioner.partition) (b : Partitioner.partition) ->
      check Alcotest.bool "same regions" true (Pred.equal a.region b.region))
    before after

(* --- split_region / refit (the adaptive re-cut path) --- *)

let k4 = Partitioner.compute policy ~k:4

let max_pid r =
  List.fold_left
    (fun acc (p : Partitioner.partition) -> max acc p.pid)
    min_int r.Partitioner.partitions

let test_split_region_fresh_disjoint_halves () =
  let src = List.hd k4.Partitioner.partitions in
  match Partitioner.split_region k4 policy ~pid:src.Partitioner.pid with
  | None -> Alcotest.fail "no productive cut in a 250-rule region"
  | Some ((lo_pid, lo), (hi_pid, hi)) ->
      let m = max_pid k4 in
      check Alcotest.int "lo pid fresh" (m + 1) lo_pid;
      check Alcotest.int "hi pid fresh" (m + 2) hi_pid;
      let schema = Classifier.schema policy in
      check Alcotest.bool "halves disjoint" true
        (Region.is_empty (Region.inter (Region.of_preds schema [ lo ])
                            (Region.of_preds schema [ hi ])));
      check Alcotest.bool "halves tile the source region" true
        (Region.equal_sets
           (Region.of_preds schema [ lo; hi ])
           (Region.of_preds schema [ src.Partitioner.region ]))

let test_split_region_unknown_pid () =
  check Alcotest.bool "unknown pid refused" true
    (Partitioner.split_region k4 policy ~pid:9999 = None)

let test_refit_reproduces_split_layout () =
  let src = List.hd k4.Partitioner.partitions in
  match Partitioner.split_region k4 policy ~pid:src.Partitioner.pid with
  | None -> Alcotest.fail "no productive cut"
  | Some ((lo_pid, lo), (hi_pid, hi)) ->
      let regions =
        (lo_pid, lo) :: (hi_pid, hi)
        :: List.filter_map
             (fun (p : Partitioner.partition) ->
               if p.pid = src.Partitioner.pid then None else Some (p.pid, p.region))
             k4.Partitioner.partitions
      in
      let r = Partitioner.refit k4 policy ~regions in
      check Alcotest.int "one more partition" (List.length k4.Partitioner.partitions + 1)
        (List.length r.Partitioner.partitions);
      let schema = Classifier.schema policy in
      check Alcotest.bool "refit still tiles the flowspace" true
        (Region.equal_sets
           (Region.of_preds schema
              (List.map (fun (p : Partitioner.partition) -> p.region)
                 r.Partitioner.partitions))
           (Region.full schema));
      (* region identity survives: refit must not re-run the decision tree *)
      List.iter
        (fun (pid, want) ->
          let got =
            List.find (fun (p : Partitioner.partition) -> p.pid = pid)
              r.Partitioner.partitions
          in
          check Alcotest.bool "region preserved verbatim" true
            (Pred.equal want got.Partitioner.region))
        regions

(* --- closed-loop adaptive migration, end to end --- *)

let acl_policy =
  Policy_gen.acl (Prng.create 21) { Policy_gen.default_acl with rules = 120; chains = 20 }

let adaptive_cp_config =
  {
    Control_plane.default_config with
    echo_interval = 0.2;
    retx_timeout = 0.05;
    retx_limit = 8;
    rebalance_interval = Some 0.1;
    hotspot_threshold = 1.5;
    hotspot_window = 2;
    migration_step = 0.05;
  }

let adaptive_dconfig =
  { Deployment.default_config with k = 4; replication = 2; cache_capacity = 0 }

let adaptive_topology = Topology.star 6 ()

let adaptive_mk ?(migration_step = 0.05) ?(events = []) () =
  let faults = Fault.plan ~seed:11 ~controllers:3 ~events () in
  let config =
    {
      Cluster.default_config with
      snapshot_every = 1000;
      cp = { adaptive_cp_config with migration_step };
    }
  in
  Cluster.create ~config ~faults ~dconfig:adaptive_dconfig ~policy:acl_policy
    ~topology:adaptive_topology ~authority_ids:[ 1; 2; 3 ] ()

(* drive the cluster while hammering one partition's region: 10 misses
   per 20 ms tick, all inside the first partition — a persistent hotspot *)
let drive_hot ?(until = 1.5) ?(on_tick = fun ~now:_ -> ()) cl =
  Cluster.push_deployment cl ~now:0.;
  let hot =
    List.hd (Deployment.partitioner (Cluster.deployment cl)).Partitioner.partitions
  in
  let headers = Traffic.headers_for (Prng.create 5) hot.Partitioner.table 64 in
  let i = ref 0 in
  let t = ref 0.02 in
  while !t <= until do
    let d = Cluster.deployment cl in
    for _ = 1 to 10 do
      ignore (Deployment.inject d ~now:!t ~ingress:4 headers.(!i mod Array.length headers));
      incr i
    done;
    Cluster.tick cl ~now:!t;
    on_tick ~now:!t;
    t := !t +. 0.02
  done

let acl_probes =
  Array.to_list (Traffic.headers_for (Prng.create 3) acl_policy 200)

let journal_kinds cl =
  List.filter_map
    (fun (_, _, e) ->
      match e with
      | Journal.Migration_begin m -> Some (`Begin m.Journal.mid)
      | Journal.Migration_flip mid -> Some (`Flip mid)
      | Journal.Migration_commit mid -> Some (`Commit mid)
      | Journal.Migration_abort mid -> Some (`Abort mid)
      | _ -> None)
    (Journal.entries (Cluster.journal cl))

let check_cluster_invariants cl =
  check Alcotest.int "no duplicate installs" 0 (Cluster.duplicate_installs cl);
  check Alcotest.int "no stale-epoch frames accepted" 0 (Cluster.stale_accepted cl);
  check Alcotest.int "nothing pending" 0 (Cluster.pending_requests cl);
  check Alcotest.bool "deployment = policy" true
    (Deployment.semantically_equal (Cluster.deployment cl) acl_probes)

let test_hotspot_triggers_staged_migration () =
  let cl = adaptive_mk () in
  drive_hot cl;
  let cp = Cluster.leader_cp cl in
  check Alcotest.bool "migration started" true (Control_plane.migrations_started cp >= 1);
  check Alcotest.bool "migration committed" true
    (Control_plane.migrations_committed cp >= 1);
  check Alcotest.int "nothing aborted" 0 (Control_plane.migrations_aborted cp);
  check Alcotest.bool "rules shipped to the destination" true
    (Control_plane.rules_moved cp > 0);
  check Alcotest.bool "migration resolved" false (Control_plane.migration_active cp);
  (* the journal records the full staged sequence for the first migration *)
  (match journal_kinds cl with
  | `Begin m :: `Flip m' :: `Commit m'' :: _ when m = m' && m' = m'' -> ()
  | _ -> Alcotest.fail "journal must open with begin/flip/commit of one migration");
  check_cluster_invariants cl

(* the staged protocol under a leader crash: the standby's journal replay
   must resolve the in-flight migration by stage — installed-but-not-
   flipped rolls back, flipped finishes the retirement *)

let test_crash_before_flip_aborts () =
  (* migration_step 0.6 stretches the stages; detection lands the begin
     around t=0.3, so a crash at 0.5 hits the Installed stage *)
  let cl =
    adaptive_mk ~migration_step:0.6
      ~events:[ Fault.Controller_crash { controller = 0; at = 0.5 } ]
      ()
  in
  drive_hot cl ~until:3.;
  check Alcotest.int "one takeover" 1 (Cluster.takeovers cl);
  (match journal_kinds cl with
  | `Begin m :: rest ->
      check Alcotest.bool "the interrupted migration aborted" true
        (List.mem (`Abort m) rest);
      check Alcotest.bool "it never flipped" false (List.mem (`Flip m) rest)
  | _ -> Alcotest.fail "expected a migration to begin before the crash");
  check_cluster_invariants cl

let test_crash_after_flip_commits () =
  (* same stretch, crash at 1.1: after the flip (~0.9), before the
     commit (~1.5) — the Flipped stage, which the takeover must finish *)
  let cl =
    adaptive_mk ~migration_step:0.6
      ~events:[ Fault.Controller_crash { controller = 0; at = 1.1 } ]
      ()
  in
  drive_hot cl ~until:3.;
  check Alcotest.int "one takeover" 1 (Cluster.takeovers cl);
  (match journal_kinds cl with
  | `Begin m :: rest ->
      check Alcotest.bool "the interrupted migration flipped" true
        (List.mem (`Flip m) rest);
      check Alcotest.bool "takeover committed it" true (List.mem (`Commit m) rest);
      check Alcotest.bool "no abort" false (List.mem (`Abort m) rest)
  | _ -> Alcotest.fail "expected a migration to begin before the crash");
  check_cluster_invariants cl

(* The replicated controller's invariant: replaying the journal over a
   scratch deployment ([Deployment.build] of its [Build] entry, then
   [Deployment.apply] for the rest) reaches the deployment the leader
   built live: the same policy, layout, tables (rule for rule, in table
   order), replicas, authority pool and migration stage.  Checked after
   every tick that journaled something, through a strict policy update
   that moves a priority (tables patched in place), a staged migration
   whose leader crashes after the flip, the takeover that finishes it, a
   lazy update back (re-partitioned, the layout being a migration's) and
   the migrations after. *)
let test_live_equals_replayed () =
  let cl =
    adaptive_mk ~migration_step:0.6
      ~events:[ Fault.Controller_crash { controller = 0; at = 1.1 } ]
      ()
  in
  let schema = Classifier.schema acl_policy in
  (* every eighth rule forwards elsewhere, and the lowest rule jumps to
     the top: no predicate changes *)
  let variant =
    let rules = Classifier.rules acl_policy in
    let top = List.fold_left (fun m (r : Rule.t) -> max m r.priority) 0 rules in
    let last = (List.nth rules (List.length rules - 1)).Rule.id in
    Classifier.create schema
      (List.map
         (fun (r : Rule.t) ->
           if r.id = last then Rule.make ~id:r.id ~priority:(top + 1) r.pred r.action
           else if r.id mod 8 <> 0 then r
           else
             Rule.with_action r
               (match r.action with
               | Action.Forward p -> Action.Forward (p + 1)
               | _ -> Action.Forward 0))
         rules)
  in
  let replay ~now =
    match Journal.decode schema (Journal.encode (Cluster.journal cl)) with
    | Error e -> Alcotest.failf "journal failed to decode: %s" e
    | Ok j ->
        let d = ref None in
        Journal.replay j (fun e ->
            match (e, !d) with
            | Journal.Build { policy; authority_ids }, _ ->
                d :=
                  Some
                    (Deployment.build ~config:adaptive_dconfig
                       ~policy:(Classifier.of_table_order schema policy)
                       ~topology:adaptive_topology ~authority_ids ())
            | _, Some m -> d := Some (Deployment.apply m ~now e)
            | Journal.Epoch _, None -> ()
            | _, None -> Alcotest.fail "a decision precedes the Build");
        Option.get !d
  in
  let rules c = List.map (fun (r : Rule.t) -> (r.id, r.priority, r.action)) (Classifier.rules c) in
  let view d =
    ( rules (Deployment.policy d),
      List.map
        (fun (p : Partitioner.partition) -> (p.pid, Pred.to_string p.region, rules p.table))
        (Deployment.partitioner d).Partitioner.partitions,
      Assignment.all_replicas (Deployment.assignment d),
      Deployment.authority_ids d,
      Option.map (fun ((m : Journal.migration), stage) -> (m.mid, stage))
        (Deployment.migration d) )
  in
  let updates = ref [ (0.1, true, variant); (1.46, false, acl_policy) ] in
  let last_seq = ref (-1) and checks = ref 0 and stages = ref [] and kept = ref [] in
  let on_tick ~now =
    (match !updates with
    | (at, strict, policy) :: rest
      when now >= at && Deployment.migration (Cluster.deployment cl) = None ->
        Cluster.update_policy cl ~now ~strict policy;
        kept := (Deployment.last_update (Cluster.deployment cl)).Deployment.kept_layout :: !kept;
        updates := rest
    | _ -> ());
    match List.rev (Journal.entries (Cluster.journal cl)) with
    | (seq, _, _) :: _ when seq > !last_seq ->
        last_seq := seq;
        incr checks;
        let live = view (Cluster.deployment cl) in
        let _, _, _, _, stage = live in
        Option.iter (fun (_, s) -> stages := s :: !stages) stage;
        if view (replay ~now) <> live then
          Alcotest.failf "replayed deployment differs from the live one at t=%.2f" now
    | _ -> ()
  in
  drive_hot cl ~until:3. ~on_tick;
  let journaled =
    List.filter_map
      (fun (_, _, e) ->
        match e with Journal.Policy_update { strict; _ } -> Some strict | _ -> None)
      (Journal.entries (Cluster.journal cl))
  in
  check Alcotest.(list bool) "a strict update, then a lazy one" [ true; false ] journaled;
  check Alcotest.(list bool) "patched, then re-partitioned" [ true; false ] (List.rev !kept);
  check Alcotest.int "one takeover" 1 (Cluster.takeovers cl);
  check Alcotest.bool "checked on many ticks" true (!checks >= 5);
  check Alcotest.bool "checked while installed" true
    (List.mem Deployment.Installed !stages);
  check Alcotest.bool "checked while flipped" true (List.mem Deployment.Flipped !stages);
  (match journal_kinds cl with
  | `Begin m :: rest ->
      check Alcotest.bool "the takeover committed the flipped migration" true
        (List.mem (`Commit m) rest)
  | _ -> Alcotest.fail "expected a migration to begin before the crash")

let suite =
  [
    ( "bounded partitioning",
      [
        tc "fits the budget" test_bounded_fits;
        tc "minimal when everything fits" test_bounded_minimal_when_it_fits;
        tc "partition cap respected" test_bounded_cap;
        tc "invalid budget rejected" test_bounded_invalid;
        prop_bounded_still_covers;
      ] );
    ( "rebalance",
      [
        tc "measured loads" test_measured_loads;
        tc "hot partition isolated" test_rebalance_moves_hot_partition;
        tc "partitions unchanged" test_rebalance_keeps_partitions;
      ] );
    ( "split-region",
      [
        tc "fresh disjoint halves tile the source" test_split_region_fresh_disjoint_halves;
        tc "unknown pid refused" test_split_region_unknown_pid;
        tc "refit reproduces the split layout" test_refit_reproduces_split_layout;
      ] );
    ( "adaptive migration",
      [
        tc "hotspot triggers a staged migration" test_hotspot_triggers_staged_migration;
        tc "leader crash before flip: takeover aborts" test_crash_before_flip_aborts;
        tc "leader crash after flip: takeover commits" test_crash_after_flip_commits;
        tc "live deployment = journal replay, every tick" test_live_equals_replayed;
      ] );
  ]
