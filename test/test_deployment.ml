open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let policy =
  Classifier.of_specs s2
    [
      (30, [ ("f1", "00000001") ], Action.Drop);
      (20, [ ("f1", "000000xx"); ("f2", "1xxxxxxx") ], Action.Forward 4);
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 3);
      (0, [], Action.Drop);
    ]

(* line topology 0-1-2-3-4, authorities at 1 and 3 *)
let build ?(config = Deployment.default_config) () =
  Deployment.build ~config ~policy ~topology:(Topology.line 5 ())
    ~authority_ids:[ 1; 3 ] ()

let test_build_installs () =
  let d = build () in
  (* every switch has partition rules; only authorities have tables *)
  Array.iteri
    (fun i sw ->
      let n_auth = List.length (Switch.authority_partitions sw) in
      if List.mem i [ 1; 3 ] then (
        if n_auth = 0 then Alcotest.failf "authority %d has no partitions" i)
      else check Alcotest.int "non-authority empty" 0 n_auth)
    (Deployment.switches d)

let test_first_packet_path () =
  let d = build () in
  let o = Deployment.inject d ~now:0. ~ingress:0 (h 2 0) in
  check action "action" (Action.Forward 3) o.Deployment.action;
  check Alcotest.bool "was a miss" false o.Deployment.cache_hit;
  check Alcotest.bool "visited an authority" true (Option.is_some o.Deployment.authority);
  check Alcotest.bool "installed a cache rule" true (Option.is_some o.Deployment.installed);
  (* the path detours through the authority on its way to egress 3 *)
  let auth = Option.get o.Deployment.authority in
  check Alcotest.bool "path passes authority" true (List.mem auth o.Deployment.path);
  check Alcotest.int "path starts at ingress" 0 (List.hd o.Deployment.path)

let test_second_packet_cut_through () =
  let d = build () in
  ignore (Deployment.inject d ~now:0. ~ingress:0 (h 2 0));
  let o = Deployment.inject d ~now:0.1 ~ingress:0 (h 2 0) in
  check Alcotest.bool "cache hit" true o.Deployment.cache_hit;
  check (Alcotest.option Alcotest.int) "no authority" None o.Deployment.authority;
  check (Alcotest.list Alcotest.int) "direct path" [ 0; 1; 2; 3 ] o.Deployment.path

let test_drop_stays_local () =
  let d = build () in
  let o = Deployment.inject d ~now:0. ~ingress:0 (h 1 0) in
  check action "dropped" Action.Drop o.Deployment.action;
  (* the drop verdict happens at the authority; the packet dies there *)
  check Alcotest.bool "no egress leg" true (List.length o.Deployment.path <= 3)

let test_semantics_random_probes () =
  let d = build () in
  let rng = Prng.create 77 in
  let probes =
    List.init 300 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256))
  in
  check Alcotest.bool "all probes agree with policy" true
    (Deployment.semantically_equal d probes)

let test_cache_timeout_expiry () =
  let config =
    { Deployment.default_config with cache_idle_timeout = Some 1.0; cache_capacity = 10 }
  in
  let d = build ~config () in
  ignore (Deployment.inject d ~now:0. ~ingress:0 (h 2 0));
  check Alcotest.bool "cached" true (Deployment.total_cache_entries d > 0);
  let expired = Deployment.expire_caches d ~now:5. in
  check Alcotest.bool "expired" true (expired > 0);
  check Alcotest.int "caches empty" 0 (Deployment.total_cache_entries d)

let test_update_policy () =
  let d = build () in
  ignore (Deployment.inject d ~now:0. ~ingress:0 (h 2 0));
  (* flip the broad rule's action *)
  let policy' =
    Classifier.of_specs s2
      [
        (30, [ ("f1", "00000001") ], Action.Drop);
        (10, [ ("f1", "0xxxxxxx") ], Action.Forward 2);
        (0, [], Action.Drop);
      ]
  in
  let d' = Deployment.update_policy d ~now:1. policy' in
  check Alcotest.int "caches flushed" 0 (Deployment.total_cache_entries d');
  let o = Deployment.inject d' ~now:2. ~ingress:0 (h 2 0) in
  check action "new action" (Action.Forward 2) o.Deployment.action

let test_failover () =
  let d = build () in
  let d' = Deployment.fail_authority d 1 in
  check (Alcotest.list Alcotest.int) "one authority left" [ 3 ]
    (Deployment.authority_ids d');
  (* all partitions now served by 3; semantics intact *)
  let rng = Prng.create 5 in
  let probes = List.init 100 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  check Alcotest.bool "still correct" true (Deployment.semantically_equal d' probes);
  (* and every miss goes to switch 3 *)
  Deployment.flush_caches d';
  let o = Deployment.inject d' ~now:0. ~ingress:0 (h 2 0) in
  check (Alcotest.option Alcotest.int) "authority 3" (Some 3) o.Deployment.authority;
  try
    ignore (Deployment.fail_authority d' 3);
    Alcotest.fail "last authority failover accepted"
  with Invalid_argument _ -> ()

let test_bad_build () =
  (try
     ignore
       (Deployment.build ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[] ());
     Alcotest.fail "no authorities accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Deployment.build ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 9 ] ());
    Alcotest.fail "out-of-range authority accepted"
  with Invalid_argument _ -> ()

(* property: DIFANE vs centralized classifier on arbitrary header streams,
   including cache reuse between packets *)
let prop_end_to_end_equivalence =
  qt ~count:60 "deployment = classifier for whole packet streams"
    QCheck2.Gen.(list_size (int_range 1 60) gen_header_tiny2)
    (fun headers ->
      let d = build () in
      List.for_all
        (fun hd ->
          let o = Deployment.inject d ~now:0. ~ingress:0 hd in
          match Classifier.action policy hd with
          | Some a -> Action.equal a o.Deployment.action
          | None -> false)
        headers)

(* Invalidation and flushes remove cache entries wholesale; the entries'
   provenance must go with them, or [Switch.cache_meta_of_rule] keeps
   answering for rules no bank holds and the table grows with every
   round.  Microflow entries on a 3-switch line with 64-entry caches:
   every ingress fills its bank, then one targeted invalidation of every
   origin and two flushes each empty the caches. *)
let test_removal_drops_provenance () =
  let config = { Deployment.default_config with cache_capacity = 64; cache_mode = `Microflow } in
  let policy =
    Classifier.of_specs s2
      [ (10, [ ("f1", "0xxxxxxx") ], Action.Forward 2); (0, [], Action.Forward 1) ]
  in
  let d = Deployment.build ~config ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] () in
  let fill round =
    List.iter
      (fun ingress ->
        for i = 0 to 63 do
          ignore (Deployment.inject d ~now:(float_of_int round) ~ingress (h i (round * 16)))
        done)
      [ 0; 2 ]
  in
  let cached () =
    Array.to_list (Deployment.switches d)
    |> List.concat_map (fun sw ->
           List.map (fun (e : Tcam.entry) -> (sw, e.Tcam.rule.Rule.id)) (Tcam.entries (Switch.cache sw)))
  in
  let leaked = ref 0 and removed = ref 0 in
  let round i clear =
    fill i;
    let before = cached () in
    check Alcotest.bool "caches filled" true (List.length before >= 128);
    clear ();
    check Alcotest.int "caches emptied" 0 (Deployment.total_cache_entries d);
    List.iter
      (fun (sw, id) ->
        incr removed;
        if Switch.cache_meta_of_rule sw id <> None || Switch.origins_of_cache_rule sw id <> []
        then incr leaked)
      before
  in
  round 0 (fun () -> ignore (Deployment.invalidate_origins d ~origins:(fun _ -> true)));
  round 1 (fun () -> Deployment.flush_caches d);
  round 2 (fun () -> Deployment.flush_caches d);
  check Alcotest.bool "entries were removed" true (!removed >= 384);
  check Alcotest.int "removed entries still carrying provenance" 0 !leaked

(* [diff_policies]'s changed ids against their definition — a
   [Classifier.find] of every id in either policy — on random policies
   and edits: rules dropped, re-prioritised, re-actioned and added under
   fresh ids. *)
let prop_changed_rule_ids =
  let gen =
    let open QCheck2.Gen in
    let* n = int_range 1 30 in
    let* specs = list_repeat n (triple gen_pred_tiny2 (int_bound 20) (int_bound 4)) in
    let* edits = list_repeat (n + 5) (int_bound 5) in
    return (specs, edits)
  in
  qt ~count:300 "changed_rule_ids = per-id find" gen (fun (specs, edits) ->
      let act k = if k = 0 then Action.Drop else Action.Forward k in
      let old_rules = List.mapi (fun id (pd, pr, a) -> Rule.make ~id ~priority:pr pd (act a)) specs in
      let new_rules =
        List.concat
          (List.mapi
             (fun i e ->
               match (List.nth_opt old_rules i, e) with
               | Some _, 0 -> []
               | Some r, 1 -> [ Rule.make ~id:r.Rule.id ~priority:(r.Rule.priority + 1) r.Rule.pred r.Rule.action ]
               | Some r, 2 -> [ Rule.make ~id:r.Rule.id ~priority:r.Rule.priority r.Rule.pred Action.Drop ]
               | Some r, _ -> [ r ]
               | None, e when e < 3 -> [ Rule.make ~id:(100 + i) ~priority:e (Pred.any s2) (act e) ]
               | None, _ -> [])
             edits)
      in
      let old_policy = Classifier.create s2 old_rules in
      let new_policy = Classifier.create s2 (List.rev new_rules) in
      let ids c = List.map (fun (r : Rule.t) -> r.Rule.id) (Classifier.rules c) in
      let expected =
        List.filter
          (fun id ->
            match (Classifier.find old_policy id, Classifier.find new_policy id) with
            | None, None -> false
            | Some a, Some b -> not (Rule.equal a b)
            | _ -> true)
          (List.sort_uniq Int.compare (ids old_policy @ ids new_policy))
      in
      (Deployment.diff_policies ~old_policy new_policy).changed = expected)

(* [diff_policies] against the id-sorted merge it replaced
   ([Diff_scan]): the same changed ids, and the same edits as a set of
   pairs, on random policies under action flips, priority moves (onto
   another rule's priority too, so ties reorder by id), predicate edits,
   added and removed ids.  New policies either share their untouched
   rules physically with the old one or are decoded through
   [Message.read_rules], which shares nothing. *)
type diff_edit =
  | Flip of int
  | Move of int * int
  | Repred of int * Pred.t
  | Fresh of Pred.t * int
  | Remove of int

let test_diff_oracle () =
  let lockstep = ref 0 and suffix = ref 0 and decoded = ref 0 and local = ref 0 in
  let gen =
    let open QCheck2.Gen in
    let* n = int_range 1 40 in
    let* specs = list_repeat n (pair gen_pred_tiny2 (int_bound 12)) in
    let edit =
      let* i = int_bound 60 in
      frequency
        [ (4, return (Flip i));
          (2, map (fun p -> Move (i, p)) (int_bound 12));
          (1, map (fun pd -> Repred (i, pd)) gen_pred_tiny2);
          (1, map2 (fun pd p -> Fresh (pd, p)) gen_pred_tiny2 (int_bound 12));
          (1, return (Remove i)) ]
    in
    let* edits = list_size (int_range 0 5) edit in
    let* only_flips = bool in
    let* decode = bool in
    return (specs, edits, only_flips, decode)
  in
  let prop (specs, edits, only_flips, decode) =
    let old_rules =
      List.mapi (fun id (pd, pr) -> Rule.make ~id ~priority:pr pd (Action.Forward (id mod 3))) specs
    in
    let edits =
      if only_flips then List.filter (function Flip _ -> true | _ -> false) edits else edits
    in
    let apply (rules, next) e =
      let pick i = List.nth rules (i mod List.length rules) in
      let swap (r : Rule.t) r' =
        List.map (fun (x : Rule.t) -> if x.id = r.id then r' else x) rules
      in
      match e with
      | Fresh (pd, p) -> (Rule.make ~id:next ~priority:p pd Action.Drop :: rules, next + 1)
      | _ when rules = [] -> (rules, next)
      | Flip i ->
          let r = pick i in
          let a = match r.action with Action.Drop -> Action.Forward 1 | _ -> Action.Drop in
          (swap r (Rule.with_action r a), next)
      | Move (i, p) ->
          let r = pick i in
          (swap r (Rule.make ~id:r.id ~priority:p r.pred r.action), next)
      | Repred (i, pd) ->
          let r = pick i in
          (swap r (Rule.with_pred r pd), next)
      | Remove i ->
          let r = pick i in
          (List.filter (fun (x : Rule.t) -> x.id <> r.id) rules, next)
    in
    let new_rules, _ = List.fold_left apply (old_rules, 1000) edits in
    let old_policy = Classifier.create s2 old_rules in
    let new_policy = Classifier.create s2 new_rules in
    let new_policy =
      if decode then begin
        incr decoded;
        match Message.rules_of_bytes s2 (Message.rules_to_bytes (Classifier.rules new_policy)) with
        | Ok rules -> Classifier.of_table_order s2 rules
        | Error e -> Alcotest.failf "decode: %s" e
      end
      else new_policy
    in
    let ids c = List.map (fun (r : Rule.t) -> r.Rule.id) (Classifier.rules c) in
    incr (if ids old_policy = ids new_policy then lockstep else suffix);
    let got = Deployment.diff_policies ~old_policy new_policy in
    let want_ids, want_edits = Diff_scan.diff old_policy new_policy in
    let as_set pairs =
      List.sort (fun ((a : Rule.t), _) ((b : Rule.t), _) -> Int.compare a.id b.id) pairs
    in
    let same_pairs ((o, n) : Rule.t * Rule.t) ((o', n') : Rule.t * Rule.t) =
      Rule.equal o o' && Rule.equal n n'
    in
    if want_edits <> None then incr local;
    got.changed = want_ids
    &&
    match (got.edits, want_edits) with
    | None, None -> true
    | Some a, Some b -> List.equal same_pairs (as_set a) (as_set b)
    | _ -> false
  in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 32 |])
    (QCheck2.Test.make ~count:400 ~name:"diff_policies = id-sorted merge" gen prop);
  if !lockstep < 100 || !suffix < 100 || !decoded < 100 || !local < 100 then
    Alcotest.failf "coverage: %d lockstep, %d suffix, %d decoded, %d predicate-preserving cases"
      !lockstep !suffix !decoded !local

(* ---- incremental updates against from-scratch ones ----

   Random small policies take random change sequences.  A step is an
   update, or a disturbance the next update must repair: a load-driven
   rebalance (the assignment moves away from the greedy one), a switch
   reset (a blank switch), a stale table at a replica (an outdated copy
   a late transfer re-installed) or a region split (a migration's
   refitted layout, which [compute] would not return).  An update step
   either only re-actions and re-prioritises rules (the layout-kept
   path) or mixes in predicate edits, adds and deletes (the
   re-partitioning path).  After each update the deployment must hold
   what a from-scratch re-partition gives, numbered from the layout's
   first pid: a kept layout keeps its pids, and a re-partition hands out
   only pids no earlier layout held. *)

type edit =
  | Set_action of int * int
  | Set_priority of int * int
  | Set_pred of int * Pred.t
  | Add of Pred.t * int * int
  | Delete of int

type step =
  | Update of edit list
  | Rebalance of int list
  | Reset of int
  | Stale of int * int
  | Split of int

let act k = if k = 0 then Action.Drop else Action.Forward k

let gen_edit ~local =
  let open QCheck2.Gen in
  let* i = int_bound 50 in
  let action = map (fun a -> Set_action (i, a)) (int_bound 4) in
  let priority = map (fun p -> Set_priority (i, p)) (int_range 1 20) in
  if local then oneof [ action; priority ]
  else
    oneof
      [ action; priority;
        map (fun pd -> Set_pred (i, pd)) gen_pred_tiny2;
        map3 (fun pd p a -> Add (pd, p, a)) gen_pred_tiny2 (int_range 1 20) (int_bound 4);
        return (Delete i) ]

let gen_step =
  let open QCheck2.Gen in
  frequency
    [ ( 8,
        bool >>= fun local ->
        map (fun es -> Update es) (list_size (int_range 1 4) (gen_edit ~local)) );
      (1, map (fun ls -> Rebalance ls) (list_repeat 8 (int_bound 100)));
      (1, map (fun i -> Reset i) (int_bound 4));
      (1, map2 (fun i j -> Stale (i, j)) (int_bound 4) (int_bound 8));
      (1, map (fun i -> Split i) (int_bound 8)) ]

let gen_history =
  let open QCheck2.Gen in
  let* specs = list_size (int_range 1 10) (triple gen_pred_tiny2 (int_range 1 20) (int_bound 4)) in
  let* k = int_range 1 5 in
  let* replication = int_range 1 2 in
  let* steps = list_size (int_range 1 6) gen_step in
  let* probes = list_repeat 40 gen_header_tiny2 in
  return (specs, k, replication, steps, probes)

(* Rule 0 is a lowest-priority catch-all no edit touches, so every
   policy stays total and non-empty. *)
let apply_edit (rules, next_id) e =
  let edited = List.filter (fun (r : Rule.t) -> r.id <> 0) rules in
  let pick i = List.nth edited (i mod List.length edited) in
  let replace (r : Rule.t) r' = List.map (fun (x : Rule.t) -> if x.id = r.id then r' else x) rules in
  match e with
  | Add (pd, p, a) -> (Rule.make ~id:next_id ~priority:p pd (act a) :: rules, next_id + 1)
  | _ when edited = [] -> (rules, next_id)
  | Set_action (i, a) ->
      let r = pick i in
      (replace r (Rule.with_action r (act a)), next_id)
  | Set_priority (i, p) ->
      let r = pick i in
      (replace r (Rule.make ~id:r.id ~priority:p r.pred r.action), next_id)
  | Set_pred (i, pd) ->
      let r = pick i in
      (replace r (Rule.with_pred r pd), next_id)
  | Delete i ->
      let r = pick i in
      (List.filter (fun (x : Rule.t) -> x.id <> r.id) rules, next_id)

(* Everything a from-scratch re-partition of [policy] would leave: its
   partitioner, greedy assignment, tables at exactly the replicas, and
   partition banks; each table agrees with the policy in its region
   (exactly), and each replica's index answers as its table.  The
   re-partition is numbered from the deployment's first pid, so regions
   and tables are compared in order. *)
let matches_scratch d policy probes =
  let config = Deployment.config d in
  let part = Deployment.partitioner d in
  let fresh =
    Partitioner.compute ~heuristic:config.heuristic
      ~first_pid:(List.hd part.partitions).pid policy ~k:config.k
  in
  let assignment = Deployment.assignment d in
  let greedy =
    Assignment.greedy ~replication:config.replication fresh
      ~authority_switches:(Deployment.authority_ids d)
  in
  let prules = Partitioner.partition_rules fresh ~assignment:(Assignment.switch_for greedy) in
  let first_match_equal a b =
    match (a, b) with Some a, Some b -> Rule.equal a b | None, None -> true | _ -> false
  in
  List.equal same_partition part.partitions fresh.partitions
  && part.total_entries = fresh.total_entries
  && part.max_entries = fresh.max_entries
  && List.for_all
       (fun (p : Partitioner.partition) ->
         Equiv.agree_on p.table policy p.region
         && Assignment.replicas_of assignment p.pid = Assignment.replicas_of greedy p.pid)
       part.partitions
  && List.for_all Fun.id
       (List.mapi
          (fun i sw ->
            List.equal Rule.equal (Switch.partition_rules sw) prules
            && List.sort Int.compare
                 (List.map (fun (p : Partitioner.partition) -> p.pid) (Switch.authority_partitions sw))
               = List.sort Int.compare (Assignment.hosted_by greedy i))
          (Array.to_list (Deployment.switches d)))
  && List.for_all
       (fun hd ->
         let p = Partitioner.find part hd in
         List.for_all
           (fun host ->
             match Switch.authority_table (Deployment.switch d host) p.pid with
             | Some (held, idx) ->
                 same_partition held p
                 && first_match_equal (Indexed.first_match idx hd) (Classifier.first_match p.table hd)
             | None -> false)
           (Assignment.replicas_of assignment p.pid))
       probes

(* Migration 0: split the [i]th partition (mod their count) in place,
   both halves kept at its replicas; [None] when it cannot be cut. *)
let split_migration d i =
  let part = Deployment.partitioner d in
  let src = List.nth part.partitions (i mod List.length part.partitions) in
  Partitioner.split_region part (Deployment.policy d) ~pid:src.pid
  |> Option.map (fun ((lo_pid, lo_region), (hi_pid, hi_region)) ->
         let replicas = Assignment.replicas_of (Deployment.assignment d) src.pid in
         { Journal.mid = 0; src_pid = src.pid; src_region = src.region;
           src_replicas = replicas; lo_pid; lo_region; lo_replicas = replicas;
           hi_pid; hi_region; hi_replicas = replicas })

let test_incremental_equals_scratch () =
  let kept = ref 0 and recomputed = ref 0 in
  let prop (specs, k, replication, steps, probes) =
    let rules =
      Rule.make ~id:0 ~priority:0 (Pred.any s2) Action.Drop
      :: List.mapi (fun i (pd, p, a) -> Rule.make ~id:(i + 1) ~priority:p pd (act a)) specs
    in
    let config = { Deployment.default_config with k; replication } in
    let d =
      ref
        (Deployment.build ~config ~policy:(Classifier.create s2 rules)
           ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ())
    in
    let state = ref (rules, List.length rules) in
    let held = Hashtbl.create 16 in
    let hold part =
      List.iter
        (fun (p : Partitioner.partition) -> Hashtbl.replace held p.pid ())
        part.Partitioner.partitions
    in
    hold (Deployment.partitioner !d);
    List.for_all
      (function
        | Stale (i, j) ->
            let part = Deployment.partitioner !d in
            let p = List.nth part.partitions (j mod List.length part.partitions) in
            let hosts = Assignment.replicas_of (Deployment.assignment !d) p.pid in
            let outdated =
              Classifier.create (Classifier.schema p.table)
                (List.map
                   (fun r -> Rule.with_action r (Action.Forward 9))
                   (Classifier.rules p.table))
            in
            Switch.install_authority
              (Deployment.switch !d (List.nth hosts (i mod List.length hosts)))
              { p with table = outdated };
            true
        | Split i -> (
            match split_migration !d i with
            | None -> true
            | Some m ->
                d :=
                  List.fold_left
                    (fun d e -> Deployment.apply d ~now:1. e)
                    !d
                    [ Journal.Migration_begin m; Journal.Migration_flip 0 ];
                let fresh = not (Hashtbl.mem held m.lo_pid || Hashtbl.mem held m.hi_pid) in
                hold (Deployment.partitioner !d);
                fresh)
        | Rebalance loads ->
            let part = Deployment.partitioner !d in
            d :=
              Deployment.rebalance !d
                ~loads:
                  (List.mapi
                     (fun i (p : Partitioner.partition) ->
                       (p.pid, float_of_int (List.nth loads (i mod 8))))
                     part.partitions);
            true
        | Reset i ->
            Switch.reset (Deployment.switch !d i);
            true
        | Update edits ->
            state := List.fold_left apply_edit !state edits;
            let policy = Classifier.create s2 (fst !state) in
            let pids d =
              List.map (fun (p : Partitioner.partition) -> p.pid)
                (Deployment.partitioner d).partitions
            in
            let before = pids !d in
            d := Deployment.update_policy !d ~now:1. policy;
            let kept_layout = (Deployment.last_update !d).kept_layout in
            incr (if kept_layout then kept else recomputed);
            let pids_ok =
              if kept_layout then pids !d = before
              else not (List.exists (Hashtbl.mem held) (pids !d))
            in
            hold (Deployment.partitioner !d);
            pids_ok && matches_scratch !d policy probes)
      steps
  in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 20 |])
    (QCheck2.Test.make ~count:250 ~name:"incremental update = from-scratch update" gen_history
       prop);
  (* both paths are exercised, each many times over *)
  if !kept < 100 || !recomputed < 100 then
    Alcotest.failf "coverage: %d layout-kept and %d re-partitioning updates" !kept !recomputed

(* A migration splits a region, a lazy update that edits a predicate
   re-partitions, and a second migration splits again: every pid any of
   these layouts holds is one no earlier layout held.  Cache provenance
   is keyed by pid, and a lazy update leaves the old entries cached, so a
   reused pid would take an entry spliced under the old region for one
   of the new. *)
let test_pids_never_reused () =
  let config = { Deployment.default_config with k = 2 } in
  let d = ref (build ~config ()) in
  let handed = ref [] in
  let layout () =
    List.map (fun (p : Partitioner.partition) -> p.pid) (Deployment.partitioner !d).partitions
  in
  let record pids =
    List.iter
      (fun pid ->
        if List.mem pid !handed then Alcotest.failf "pid %d handed out twice" pid)
      pids;
    handed := pids @ !handed
  in
  let split () =
    let before = layout () in
    let part = Deployment.partitioner !d in
    let src = List.hd part.partitions in
    match Partitioner.split_region part (Deployment.policy !d) ~pid:src.pid with
    | None -> Alcotest.fail "no cut left"
    | Some ((lo_pid, lo_region), (hi_pid, hi_region)) ->
        record [ lo_pid; hi_pid ];
        let replicas = Assignment.replicas_of (Deployment.assignment !d) src.pid in
        let m =
          { Journal.mid = 0; src_pid = src.pid; src_region = src.region;
            src_replicas = replicas; lo_pid; lo_region; lo_replicas = replicas;
            hi_pid; hi_region; hi_replicas = replicas }
        in
        d :=
          List.fold_left
            (fun d e -> Deployment.apply d ~now:1. e)
            !d
            [ Journal.Migration_begin m; Journal.Migration_flip 0; Journal.Migration_commit 0 ];
        check (Alcotest.list Alcotest.int) "split layout"
          (List.sort Int.compare (lo_pid :: hi_pid :: List.tl before))
          (List.sort Int.compare (layout ()))
  in
  record (layout ());
  split ();
  ignore (Deployment.inject !d ~now:1. ~ingress:0 (h 2 0));
  let moved =
    Classifier.of_specs s2
      [
        (30, [ ("f1", "00000011") ], Action.Drop);
        (20, [ ("f1", "000000xx"); ("f2", "1xxxxxxx") ], Action.Forward 4);
        (10, [ ("f1", "0xxxxxxx") ], Action.Forward 3);
        (0, [], Action.Drop);
      ]
  in
  d := Deployment.update_policy ~flush:false !d ~now:2. moved;
  check Alcotest.bool "re-partitioned" false (Deployment.last_update !d).kept_layout;
  check Alcotest.bool "stale entries kept" true (Deployment.total_cache_entries !d > 0);
  record (layout ());
  split ();
  split ()

(* policy-churn's shape: a 2,000-rule ACL on the campus at k = 16 with
   1024-entry caches, warmed by 2,000 packets, and a variant flipping
   the actions of about 3% of the rules. *)
let churn_fixture =
  lazy
    (let policy = Policy_gen.acl (Prng.create 2010) { Policy_gen.default_acl with rules = 2000 } in
     let rules = Classifier.rules policy in
     let last = List.length rules - 1 in
     let rng = Prng.create 2010 in
     let flip (r : Rule.t) =
       Rule.with_action r (match r.action with Action.Drop -> Action.Forward 1 | _ -> Action.Drop)
     in
     let variant =
       Classifier.of_table_order (Classifier.schema policy)
         (List.mapi (fun i r -> if i < last && Prng.float rng < 0.03 then flip r else r) rules)
     in
     let topo_rng = Prng.create 2010 in
     let topology = Topology.campus ~rand:(fun () -> Prng.float topo_rng) ~edge_switches:12 () in
     let d =
       Deployment.build
         ~config:{ Deployment.default_config with k = 16; cache_capacity = 1024 }
         ~policy ~topology ~authority_ids:[ 2; 3; 4 ] ()
     in
     let headers = Traffic.headers_for (Prng.create 2011) policy 2000 in
     Array.iteri
       (fun j hd ->
         ignore (Deployment.inject d ~now:(float_of_int j *. 1e-5) ~ingress:(5 + (j mod 6)) hd))
       headers;
     (policy, variant, d))

let minor_words f =
  let before = Gc.minor_words () in
  let v = Sys.opaque_identity (f ()) in
  (Gc.minor_words () -. before, v)

(* An action-only update costs what changed: the lockstep diff
   allocates nothing for an unchanged rule, and the patch swaps the
   flipped rules into their tables in place.  About 17.5k minor words
   today; re-sorting both policies by id for the diff made it 159k. *)
let test_update_allocation () =
  let policy, variant, d = Lazy.force churn_fixture in
  let d = Deployment.update_policy ~flush:false d ~now:1. variant in
  let d = Deployment.update_policy ~flush:false d ~now:1. policy in
  let words, d' = minor_words (fun () -> Deployment.update_policy ~flush:false d ~now:1. variant) in
  check Alcotest.bool "layout kept" true (Deployment.last_update d').kept_layout;
  check Alcotest.bool "rules changed" true (List.length (Deployment.last_update d').changed >= 20);
  if words > 30_000. then
    Alcotest.failf "action-only update allocates %.0f minor words (bound 30,000)" words

(* The strict-delete walk allocates per switch and per victim, not per
   cache entry: about 50 words a switch and 75 a victim today, over
   some 140 cached entries. *)
let test_strict_walk_allocation () =
  let policy, variant, d = Lazy.force churn_fixture in
  let changed = (Deployment.diff_policies ~old_policy:policy variant).changed in
  let live _ = true in
  ignore (Deployment.cache_entries_of_origins d ~live changed);
  let words, victims =
    minor_words (fun () -> Deployment.cache_entries_of_origins d ~live changed)
  in
  let victims = List.length victims and switches = Array.length (Deployment.switches d) in
  check Alcotest.bool "warm caches hold victims" true (victims > 0);
  let bound = float_of_int ((64 * switches) + (128 * victims)) in
  if words > bound then
    Alcotest.failf "%d victims on %d switches take %.0f minor words (bound %.0f)" victims switches
      words bound

let suite =
  [
    ( "deployment",
      [
        tc "build installs banks" test_build_installs;
        tc "first packet detours via authority" test_first_packet_path;
        tc "second packet cuts through" test_second_packet_cut_through;
        tc "drop handled at authority" test_drop_stays_local;
        tc "random probe equivalence" test_semantics_random_probes;
        tc "cache timeout expiry" test_cache_timeout_expiry;
        tc "policy update is consistent" test_update_policy;
        tc "authority failover" test_failover;
        tc "build validation" test_bad_build;
        tc "invalidation and flush drop provenance" test_removal_drops_provenance;
        prop_changed_rule_ids;
        tc "diff_policies = id-sorted merge" test_diff_oracle;
        tc "incremental update = from-scratch update" test_incremental_equals_scratch;
        tc "split, re-partition, split: pids never reused" test_pids_never_reused;
        tc "action-only update allocation bound" test_update_allocation;
        tc "strict-delete walk allocation bound" test_strict_walk_allocation;
        prop_end_to_end_equivalence;
      ] );
  ]
