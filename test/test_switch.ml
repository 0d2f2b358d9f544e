open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let policy =
  Classifier.of_specs s2
    [
      (20, [ ("f1", "00000001") ], Action.Drop);
      (10, [ ("f1", "000000xx") ], Action.Forward 1);
      (0, [], Action.Forward 2);
    ]

(* A two-partition world: f1 < 128 and f1 >= 128. *)
let setup () =
  let part = Partitioner.compute policy ~k:2 in
  let auth = Switch.create ~id:7 ~cache_capacity:10 in
  let ingress = Switch.create ~id:0 ~cache_capacity:10 in
  let prules = Partitioner.partition_rules part ~assignment:(fun _ -> 7) in
  Switch.install_partition_rules ingress prules;
  Switch.install_partition_rules auth prules;
  List.iter (fun p -> Switch.install_authority auth p) part.Partitioner.partitions;
  (ingress, auth)

let test_miss_tunnels () =
  let ingress, _ = setup () in
  match Switch.process ingress ~now:0. (h 2 0) with
  | Switch.Tunnel 7 -> ()
  | _ -> Alcotest.fail "expected tunnel to authority 7"

let test_authority_serves_locally () =
  let _, auth = setup () in
  match Switch.process auth ~now:0. (h 2 0) with
  | Switch.Local (a, Switch.Authority_bank) -> check action "authority action" (Action.Forward 1) a
  | _ -> Alcotest.fail "expected local authority hit"

let test_serve_miss_and_cache () =
  let ingress, auth = setup () in
  let reply = Option.get (Switch.serve_miss auth ~now:0. (h 2 0)) in
  check action "action" (Action.Forward 1) reply.Switch.action;
  check Alcotest.int "origin" 1 reply.Switch.origin_id;
  ignore
    (Switch.install_cache_rule ~origin_id:reply.Switch.origin_id ingress ~now:0.
       reply.Switch.cache_rule);
  (* second packet of the flow hits the cache *)
  (match Switch.process ingress ~now:1. (h 2 0) with
  | Switch.Local (a, Switch.Cache_bank) -> check action "cached action" (Action.Forward 1) a
  | _ -> Alcotest.fail "expected cache hit");
  (* the cached piece must NOT swallow the higher-priority drop rule *)
  match Switch.process ingress ~now:1. (h 1 0) with
  | Switch.Tunnel _ -> ()
  | Switch.Local _ -> Alcotest.fail "cache stole a higher-priority header"
  | Switch.Unmatched | Switch.Misconfigured -> Alcotest.fail "unmatched"

let test_misrouted_miss () =
  let ingress, _ = setup () in
  (* ingress is not an authority: serve_miss must refuse *)
  check Alcotest.bool "not authority" true
    (Option.is_none (Switch.serve_miss ingress ~now:0. (h 2 0)))

let test_counters_and_origins () =
  let ingress, auth = setup () in
  let reply = Option.get (Switch.serve_miss auth ~now:0. (h 2 0)) in
  ignore
    (Switch.install_cache_rule ~origin_id:reply.Switch.origin_id ingress ~now:0.
       reply.Switch.cache_rule);
  ignore (Switch.process ingress ~now:1. (h 2 0));
  ignore (Switch.process ingress ~now:2. (h 2 0));
  check (Alcotest.option Alcotest.int) "origin mapping" (Some 1)
    (Switch.origin_of_cache_rule ingress reply.Switch.cache_rule.Rule.id);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int64)) "aggregated"
    [ (1, 2L) ]
    (Switch.aggregate_counters ingress);
  let c = Switch.stats ingress in
  check Alcotest.int64 "cache hits" 2L c.Switch.cache_hits

let test_cache_expiry () =
  let ingress, auth = setup () in
  let reply = Option.get (Switch.serve_miss auth ~now:0. (h 2 0)) in
  ignore
    (Switch.install_cache_rule ~idle_timeout:5. ~origin_id:reply.Switch.origin_id ingress
       ~now:0. reply.Switch.cache_rule);
  check Alcotest.int "cached" 1 (Switch.cache_occupancy ingress);
  ignore (Switch.expire_cache ingress ~now:10.);
  check Alcotest.int "expired" 0 (Switch.cache_occupancy ingress);
  (* origin mapping cleaned up *)
  check (Alcotest.option Alcotest.int) "origin gone" None
    (Switch.origin_of_cache_rule ingress reply.Switch.cache_rule.Rule.id);
  match Switch.process ingress ~now:11. (h 2 0) with
  | Switch.Tunnel _ -> ()
  | _ -> Alcotest.fail "expired entry should miss again"

let test_partition_bank_validation () =
  let sw = Switch.create ~id:0 ~cache_capacity:4 in
  try
    Switch.install_partition_rules sw
      [ Rule.make ~id:1 ~priority:0 (Pred.any s2) Action.Drop ];
    Alcotest.fail "non-tunnel partition rule accepted"
  with Invalid_argument _ -> ()

(* Switches that install one bank share its index: only the first
   install builds it, and every switch tunnels through it. *)
let test_partition_bank_shared () =
  let part = Partitioner.compute policy ~k:2 in
  let bank = Switch.partition_bank (Partitioner.partition_rules part ~assignment:(fun _ -> 7)) in
  let switches = Array.init 4 (fun id -> Switch.create ~id ~cache_capacity:4) in
  Switch.install_partition_bank switches.(0) bank;
  let before = Gc.minor_words () in
  for i = 1 to 3 do
    Switch.install_partition_bank switches.(i) bank
  done;
  check (Alcotest.float 0.) "later installs build nothing" 0. (Gc.minor_words () -. before);
  Array.iter
    (fun sw ->
      match Switch.process sw ~now:0. (h 200 0) with
      | Switch.Tunnel 7 -> ()
      | _ -> Alcotest.fail "expected tunnel to authority 7")
    switches

let test_flow_mod_banks () =
  let sw = Switch.create ~id:0 ~cache_capacity:4 in
  let r = Rule.make ~id:5 ~priority:1 (Pred.any s2) Action.Drop in
  Switch.apply_flow_mod sw ~now:0.
    { Message.command = Message.Add; bank = Message.Cache; rule = r;
      idle_timeout = None; hard_timeout = None };
  check Alcotest.int "cache add" 1 (Switch.cache_occupancy sw);
  Switch.apply_flow_mod sw ~now:0.
    { Message.command = Message.Delete; bank = Message.Cache; rule = r;
      idle_timeout = None; hard_timeout = None };
  check Alcotest.int "cache delete" 0 (Switch.cache_occupancy sw);
  try
    Switch.apply_flow_mod sw ~now:0.
      { Message.command = Message.Add; bank = Message.Authority; rule = r;
        idle_timeout = None; hard_timeout = None };
    Alcotest.fail "authority flow-mod accepted"
  with Invalid_argument _ -> ()

(* A controller Add over a spliced entry's id replaces the entry, and
   the spliced provenance must go with it: the new rule is not a cover
   member, and aggregation's index must not offer it as one. *)
let test_flow_mod_add_drops_provenance () =
  let sw = Switch.create ~id:0 ~cache_capacity:4 in
  let pred = Pred.of_strings s2 [ ("f1", "00000000") ] in
  let meta =
    { Switch.pid = 0; kind = Switch.Cover; group = None;
      parts = [ { Switch.part_origin = 3; part_rank = 1; part_pred = pred } ] }
  in
  let spliced = Rule.make ~id:5 ~priority:1 pred Action.Drop in
  ignore (Switch.install_cache_meta sw ~now:0. spliced (Some meta));
  check (Alcotest.option Alcotest.int) "indexed" (Some 5)
    (Aggregate.equivalent_live_cover sw spliced meta);
  Switch.apply_flow_mod sw ~now:0.
    { Message.command = Message.Add; bank = Message.Cache; rule = spliced;
      idle_timeout = None; hard_timeout = None };
  check Alcotest.int "same-id add replaced the entry" 1 (Switch.cache_occupancy sw);
  check Alcotest.bool "provenance dropped" true (Switch.cache_meta_of_rule sw 5 = None);
  check (Alcotest.option Alcotest.int) "unindexed" None
    (Aggregate.equivalent_live_cover sw spliced meta)

let test_partition_load_counting () =
  let _, auth = setup () in
  ignore (Switch.serve_miss auth ~now:0. (h 2 0));
  ignore (Switch.serve_miss auth ~now:0. (h 2 0));
  ignore (Switch.serve_miss auth ~now:0. (h 200 0));
  let loads = Switch.partition_load auth in
  let total = List.fold_left (fun acc (_, n) -> Int64.add acc n) 0L loads in
  check Alcotest.int64 "three misses counted" 3L total

(* A same-id reinstall must surface the displaced entry's final counters
   as a [Replaced] flow-removed — the old path silently dropped them,
   losing packets from the origin rule's attribution. *)
let test_replace_notification () =
  let sw = Switch.create ~id:0 ~cache_capacity:4 in
  Switch.attach sw;
  let r = Rule.make ~id:50 ~priority:1 (Pred.of_strings s2 [ ("f1", "0000_0010") ]) (Action.Forward 1) in
  ignore (Switch.install_cache_rule ~origin_id:42 sw ~now:0. r);
  ignore (Switch.process sw ~now:1. (h 2 0));
  ignore (Switch.process sw ~now:2. (h 2 0));
  ignore (Switch.drain_notifications sw);
  let r' = Rule.make ~id:50 ~priority:2 (Pred.of_strings s2 [ ("f1", "0000_001x") ]) (Action.Forward 1) in
  ignore (Switch.install_cache_rule ~origin_id:43 sw ~now:3. r');
  (match Switch.drain_notifications sw with
  | [ Message.Flow_removed fr ] ->
      check Alcotest.int "removed rule" 50 fr.Message.removed_rule;
      check Alcotest.bool "replaced reason" true (fr.Message.reason = Message.Replaced);
      check Alcotest.int "old cookie" 42 fr.Message.cookie;
      check Alcotest.int64 "final packets" 2L fr.Message.final_packets
  | ms -> Alcotest.failf "expected one Replaced notification, got %d" (List.length ms));
  (* provenance now points at the new origin *)
  check (Alcotest.option Alcotest.int) "origin remapped" (Some 43)
    (Switch.origin_of_cache_rule sw 50);
  check Alcotest.int "occupancy unchanged" 1 (Switch.cache_occupancy sw)

(* A partition rule that cannot tunnel is a broken bank, not uncovered
   flowspace: the packet must land in [misconfigured], not [unmatched].
   The broken rule reaches the bank through the barrier-commit path,
   which must tolerate it instead of crashing mid-dispatch. *)
let test_misconfigured_partition_rule () =
  let sw = Switch.create ~id:0 ~cache_capacity:4 in
  let broken = Rule.make ~id:1 ~priority:1 (Pred.of_strings s2 [ ("f1", "0000_0001") ]) Action.Drop in
  let good =
    Rule.make ~id:2 ~priority:1 (Pred.of_strings s2 [ ("f1", "0000_0010") ])
      (Action.To_authority 9)
  in
  let add rule =
    ignore
      (Switch.handle_control sw ~now:0.
         (Message.Flow_mod
            { Message.command = Message.Add; bank = Message.Partition; rule;
              idle_timeout = None; hard_timeout = None }))
  in
  add broken;
  add good;
  ignore (Switch.handle_control sw ~now:0. (Message.Barrier_request 1));
  (* the broken rule claims this header: misconfigured, not unmatched *)
  (match Switch.process sw ~now:1. (h 1 0) with
  | Switch.Misconfigured -> ()
  | _ -> Alcotest.fail "expected Misconfigured verdict");
  (* the good rule still tunnels *)
  (match Switch.process sw ~now:1. (h 2 0) with
  | Switch.Tunnel 9 -> ()
  | _ -> Alcotest.fail "expected tunnel to 9");
  (* nothing claims this header: genuinely unmatched *)
  (match Switch.process sw ~now:1. (h 4 0) with
  | Switch.Unmatched -> ()
  | _ -> Alcotest.fail "expected Unmatched verdict");
  let st = Switch.stats sw in
  check Alcotest.int64 "misconfigured" 1L st.Switch.misconfigured;
  check Alcotest.int64 "unmatched" 1L st.Switch.unmatched

(* property: after any sequence of miss-serve-and-install, the ingress
   switch never returns an action that disagrees with the policy *)
let prop_cache_never_lies =
  qt ~count:100 "cache never changes policy semantics"
    QCheck2.Gen.(list_size (int_range 1 40) gen_header_tiny2)
    (fun headers ->
      let ingress, auth = setup () in
      List.for_all
        (fun hd ->
          let expected = Option.get (Classifier.action policy hd) in
          match Switch.process ingress ~now:0. hd with
          | Switch.Local (a, _) -> Action.equal a expected
          | Switch.Unmatched | Switch.Misconfigured -> false
          | Switch.Tunnel _ -> (
              match Switch.serve_miss auth ~now:0. hd with
              | None -> false
              | Some reply ->
                  ignore
                    (Switch.install_cache_rule ~origin_id:reply.Switch.origin_id ingress
                       ~now:0. reply.Switch.cache_rule);
                  Action.equal reply.Switch.action expected))
        headers)

(* ---- plan-served misses against from-scratch splicing ---- *)

let part_equal (a : Switch.cache_part) (b : Switch.cache_part) =
  a.part_origin = b.part_origin && a.part_rank = b.part_rank && Pred.equal a.part_pred b.part_pred

let meta_equal (a : Switch.cache_meta) (b : Switch.cache_meta) =
  a.pid = b.pid && a.kind = b.kind && a.group = b.group && List.equal part_equal a.parts b.parts

(* action, origin, pid, the primary rule, and every install's rule and
   meta — the group tag carries the member ids in install order *)
let reply_equal (a : Switch.miss_reply) (b : Switch.miss_reply) =
  Action.equal a.action b.action && a.origin_id = b.origin_id && a.pid = b.pid
  && Rule.equal a.cache_rule b.cache_rule
  && List.equal (fun (r, m) (r', m') -> Rule.equal r r' && meta_equal m m') a.installs b.installs

let modes = [ (`Spliced, None); (`Spliced, Some 4); (`Microflow, None) ]

(* Every switch serves every header under every mode; each reply must be
   the one the oracle splices from scratch out of the tables the switch
   holds, cache-rule ids included. *)
let serves_match_scratch d headers =
  Array.for_all
    (fun sw ->
      List.for_all
        (fun hd ->
          List.for_all
            (fun (mode, cover_limit) ->
              let c = ref (Switch.fresh_cache_id sw) in
              let next_id () = incr c; !c in
              let want =
                Splice_scan.serve_miss ~mode ?cover_limit ~next_id (Switch.authority_partitions sw) hd
              in
              match (Switch.serve_miss ~mode ?cover_limit sw ~now:0. hd, want) with
              | Some got, Some want -> reply_equal got want
              | None, None -> true
              | _ -> false)
            modes)
        headers)
    (Deployment.switches d)

type plan_case = {
  policy : Classifier.t;
  k : int;
  headers : Header.t list;
  recoloured : int list; (* rule positions whose action changes *)
  moved : int list; (* rule positions whose priority changes *)
}

let gen_tiny2_policy =
  let open QCheck2.Gen in
  let* n = int_range 2 10 in
  let* specs = list_repeat n (pair (int_bound 10) gen_pred_tiny2) in
  let rules =
    Rule.make ~id:n ~priority:(-1) (Pred.any s2) (Action.Forward 0)
    :: List.mapi
         (fun i (pr, pd) ->
           Rule.make ~id:i ~priority:pr pd (if i mod 2 = 0 then Action.Drop else Action.Forward i))
         specs
  in
  let* headers = list_size (int_range 4 12) gen_header_tiny2 in
  return (Classifier.create s2 rules, headers)

let gen_acl_policy =
  let open QCheck2.Gen in
  let* seed = int_bound 10_000 in
  let* rules = int_range 15 40 in
  let* salt = int_bound 1_000_000 in
  let policy =
    Policy_gen.acl (Prng.create seed)
      { Policy_gen.default_acl with rules; chains = 4; chain_depth = 4 }
  in
  return (policy, Array.to_list (Traffic.headers_for (Prng.create salt) policy 10))

let gen_plan_case =
  let open QCheck2.Gen in
  let* policy, headers = oneof [ gen_tiny2_policy; gen_acl_policy ] in
  let* k = int_range 1 4 in
  let* recoloured = list_size (int_range 1 6) (int_bound 1000) in
  let* moved = list_size (int_bound 2) (int_bound 1000) in
  return { policy; k; headers; recoloured; moved }

(* The policy with the picked rules' actions changed and the other picks'
   priorities raised: no predicate changes, so the update keeps the
   layout and patches or rebuilds tables in place. *)
let edited c =
  let rules = Classifier.rules c.policy in
  let n = List.length rules in
  let picked l i = List.exists (fun j -> j mod n = i) l in
  Classifier.create (Classifier.schema c.policy)
    (List.mapi
       (fun i (r : Rule.t) ->
         let r = if picked c.recoloured i then Rule.with_action r (Action.Forward (100 + i)) else r in
         if picked c.moved i then Rule.make ~id:r.id ~priority:(r.priority + 3) r.pred r.action
         else r)
       rules)

let test_plan_equals_scratch () =
  let swapped_warm = ref 0 and rebuilt = ref 0 in
  let prop c =
    let d =
      Deployment.build
        ~config:{ Deployment.default_config with k = c.k }
        ~policy:c.policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
    in
    (* the first round of serves builds the plans the update must keep *)
    let before_ok = serves_match_scratch d c.headers in
    let held =
      Array.map
        (fun sw ->
          List.map
            (fun (p : Partitioner.partition) -> (p, snd (Option.get (Switch.authority_table sw p.pid))))
            (Switch.authority_partitions sw))
        (Deployment.switches d)
    in
    let d = Deployment.update_policy d ~now:1. (edited c) in
    Array.iteri
      (fun i sw ->
        List.iter
          (fun ((p : Partitioner.partition), idx) ->
            match Switch.authority_table sw p.pid with
            | Some (p', idx')
              when not (List.equal Rule.equal (Classifier.rules p.table) (Classifier.rules p'.table)) ->
                if idx' != idx then incr rebuilt
                else if List.exists (Pred.matches p.region) c.headers then incr swapped_warm
            | Some _ | None -> ())
          held.(i))
      (Deployment.switches d);
    before_ok && serves_match_scratch d c.headers
  in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 21 |])
    (QCheck2.Test.make ~count:250 ~name:"plan-served miss = from-scratch splice" gen_plan_case prop);
  (* both update paths ran on tables with plans, many times over *)
  if !swapped_warm < 50 || !rebuilt < 50 then
    Alcotest.failf "coverage: %d swapped tables with warm plans, %d rebuilt" !swapped_warm !rebuilt

(* Installing policy-churn's tables — a 2,000-rule campus ACL cut into
   16 partitions, each table decoded from its frame — costs what
   indexing them costs, about 35 words a rule: the switch takes a
   decoded table as it stands, in table order.  Re-sorting and
   re-checking it through [Classifier.create] would add about 57. *)
let test_install_partition_words () =
  let policy = Policy_gen.acl (Prng.create 7) { Policy_gen.default_acl with rules = 2000 } in
  let schema = Classifier.schema policy in
  let frames =
    List.map
      (fun (p : Partitioner.partition) ->
        let msg =
          Message.Install_partition
            { pid = p.pid; region = p.region; table_rules = Classifier.rules p.table }
        in
        match Message.decode schema (Message.encode ~xid:1 msg) with
        | Ok (_, _, m) -> m
        | Error e -> Alcotest.failf "p%d failed to decode: %s" p.pid e)
      (Partitioner.compute policy ~k:16).Partitioner.partitions
  in
  let rules =
    List.fold_left
      (fun n m ->
        match m with Message.Install_partition t -> n + List.length t.table_rules | _ -> n)
      0 frames
  in
  let sw = Switch.create ~id:0 ~cache_capacity:16 in
  let install () = List.iter (fun m -> ignore (Switch.handle_control sw ~now:0. m)) frames in
  install ();
  let w0 = Gc.minor_words () in
  install ();
  let per_rule = (Gc.minor_words () -. w0) /. float_of_int rules in
  check Alcotest.int "every table held" 16 (List.length (Switch.authority_partitions sw));
  if per_rule > 45. then
    Alcotest.failf "%.1f minor words per installed rule (bound 45)" per_rule

let suite =
  [
    ( "switch",
      [
        tc "miss tunnels to authority" test_miss_tunnels;
        tc "authority serves locally" test_authority_serves_locally;
        tc "serve miss + reactive cache" test_serve_miss_and_cache;
        tc "misrouted miss refused" test_misrouted_miss;
        tc "counters and origin attribution" test_counters_and_origins;
        tc "cache expiry" test_cache_expiry;
        tc "partition bank validation" test_partition_bank_validation;
        tc "one bank, one index" test_partition_bank_shared;
        tc "flow-mod bank handling" test_flow_mod_banks;
        tc "controller add drops spliced provenance" test_flow_mod_add_drops_provenance;
        tc "partition load counting" test_partition_load_counting;
        tc "replace emits flow-removed" test_replace_notification;
        tc "misconfigured partition rule" test_misconfigured_partition_rule;
        tc "install-partition words per rule" test_install_partition_words;
        prop_cache_never_lies;
        tc "plan-served miss = from-scratch splice" test_plan_equals_scratch;
      ] );
  ]
