(* Cache-rule aggregation: merge legality, cover-set dependency safety,
   the rank-priority, expiry-heap and scrub-cascade regressions, and the
   property the whole layer rests on — with aggregation on or off, the
   exact oracle finds no header the network decides against the
   policy. *)

open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]
let p f1 = Pred.of_strings s2 [ ("f1", f1) ]

let frag_meta ?(pid = 0) ~origin ~rank pred =
  {
    Switch.pid;
    kind = Switch.Fragment;
    group = None;
    parts = [ { Switch.part_origin = origin; part_rank = rank; part_pred = pred } ];
  }

(* ---- buddy_union: the merge's algebraic core ---- *)

let test_buddy_union () =
  (* adjacent on one field: exact union *)
  (match Pred.buddy_union (p "00000000") (p "00000001") with
  | Some u -> check pred "one-bit buddies" (p "0000000x") u
  | None -> Alcotest.fail "buddies did not merge");
  (* two bits apart: union is not a rectangle *)
  check Alcotest.bool "two bits apart" true
    (Pred.buddy_union (p "00000000") (p "00000011") = None);
  (* identical predicates are not buddies (zero differing fields) *)
  check Alcotest.bool "identical" true
    (Pred.buddy_union (p "0000000x") (p "0000000x") = None);
  (* differing on two fields: no exact union *)
  let a = Pred.of_strings s2 [ ("f1", "00000000"); ("f2", "00000000") ] in
  let b = Pred.of_strings s2 [ ("f1", "00000001"); ("f2", "00000001") ] in
  check Alcotest.bool "two fields differ" true (Pred.buddy_union a b = None)

(* ---- merge legality at the install layer ---- *)

let fresh ?(capacity = 8) ?(config = Aggregate.enabled_default) () =
  (Switch.create ~id:0 ~cache_capacity:capacity, Aggregate.create config)

let install1 t sw ~now rule meta = ignore (Aggregate.install t sw ~now [ (rule, meta) ])

let test_fragments_merge () =
  let sw, t = fresh () in
  let r1 = Rule.make ~id:100 ~priority:1 (p "00000000") (Action.Forward 1) in
  let r2 = Rule.make ~id:101 ~priority:1 (p "00000001") (Action.Forward 1) in
  install1 t sw ~now:0. r1 (frag_meta ~origin:10 ~rank:1 r1.Rule.pred);
  install1 t sw ~now:0. r2 (frag_meta ~origin:11 ~rank:1 r2.Rule.pred);
  check Alcotest.int "one resident entry" 1 (Tcam.occupancy (Switch.cache sw));
  check Alcotest.int "one merge" 1 (Aggregate.stats t).Aggregate.merges;
  (* the merged entry covers both operands and keeps both origins *)
  let e = List.hd (Tcam.entries (Switch.cache sw)) in
  check pred "union pred" (p "0000000x") e.Tcam.rule.Rule.pred;
  check (Alcotest.list Alcotest.int) "origin set" [ 10; 11 ]
    (Switch.origins_of_cache_rule sw e.Tcam.rule.Rule.id)

let test_no_merge_across_actions () =
  let sw, t = fresh () in
  let r1 = Rule.make ~id:100 ~priority:1 (p "00000000") (Action.Forward 1) in
  let r2 = Rule.make ~id:101 ~priority:1 (p "00000001") (Action.Drop) in
  install1 t sw ~now:0. r1 (frag_meta ~origin:10 ~rank:1 r1.Rule.pred);
  install1 t sw ~now:0. r2 (frag_meta ~origin:11 ~rank:1 r2.Rule.pred);
  check Alcotest.int "both resident" 2 (Tcam.occupancy (Switch.cache sw));
  check Alcotest.int "no merges" 0 (Aggregate.stats t).Aggregate.merges

let test_no_merge_across_pids () =
  let sw, t = fresh () in
  let r1 = Rule.make ~id:100 ~priority:1 (p "00000000") (Action.Forward 1) in
  let r2 = Rule.make ~id:101 ~priority:1 (p "00000001") (Action.Forward 1) in
  install1 t sw ~now:0. r1 (frag_meta ~pid:0 ~origin:10 ~rank:1 r1.Rule.pred);
  install1 t sw ~now:0. r2 (frag_meta ~pid:1 ~origin:11 ~rank:1 r2.Rule.pred);
  check Alcotest.int "both resident" 2 (Tcam.occupancy (Switch.cache sw))

let test_fragment_merge_takes_max_rank () =
  let sw, t = fresh () in
  let r1 = Rule.make ~id:100 ~priority:1 (p "00000000") (Action.Forward 1) in
  let r2 = Rule.make ~id:101 ~priority:3 (p "00000001") (Action.Forward 1) in
  install1 t sw ~now:0. r1 (frag_meta ~origin:10 ~rank:1 r1.Rule.pred);
  install1 t sw ~now:0. r2 (frag_meta ~origin:11 ~rank:3 r2.Rule.pred);
  let e = List.hd (Tcam.entries (Switch.cache sw)) in
  check Alcotest.int "merged at max rank" 3 e.Tcam.rule.Rule.priority

let test_covers_never_merge_across_groups () =
  (* two cover-set members from different groups, equal rank, buddy
     predicates: merging would entangle two atomically-evicted sets *)
  let sw, t = fresh () in
  let meta gid id pred =
    {
      Switch.pid = 0;
      kind = Switch.Cover;
      group = Some (gid, [ id ]);
      parts = [ { Switch.part_origin = id; part_rank = 2; part_pred = pred } ];
    }
  in
  let r1 = Rule.make ~id:100 ~priority:2 (p "00000000") (Action.Forward 1) in
  let r2 = Rule.make ~id:101 ~priority:2 (p "00000001") (Action.Forward 1) in
  install1 t sw ~now:0. r1 (meta 900 100 r1.Rule.pred);
  install1 t sw ~now:0. r2 (meta 901 101 r2.Rule.pred);
  check Alcotest.int "both resident" 2 (Tcam.occupancy (Switch.cache sw));
  check Alcotest.int "no merges" 0 (Aggregate.stats t).Aggregate.merges

let test_subsumed_install_suppressed () =
  let sw, t = fresh () in
  let broad = Rule.make ~id:100 ~priority:2 (p "0000000x") (Action.Forward 1) in
  let narrow = Rule.make ~id:101 ~priority:1 (p "00000000") (Action.Forward 1) in
  install1 t sw ~now:0. broad (frag_meta ~origin:10 ~rank:2 broad.Rule.pred);
  install1 t sw ~now:0. narrow (frag_meta ~origin:10 ~rank:1 narrow.Rule.pred);
  check Alcotest.int "one resident entry" 1 (Tcam.occupancy (Switch.cache sw));
  check Alcotest.int "suppressed" 1 (Aggregate.stats t).Aggregate.suppressed

let test_disabled_installs_plainly () =
  let sw, t = fresh ~config:Aggregate.default () in
  let r1 = Rule.make ~id:100 ~priority:1 (p "00000000") (Action.Forward 1) in
  let r2 = Rule.make ~id:101 ~priority:1 (p "00000001") (Action.Forward 1) in
  install1 t sw ~now:0. r1 (frag_meta ~origin:10 ~rank:1 r1.Rule.pred);
  install1 t sw ~now:0. r2 (frag_meta ~origin:11 ~rank:1 r2.Rule.pred);
  check Alcotest.int "both resident" 2 (Tcam.occupancy (Switch.cache sw));
  check Alcotest.int "no merges" 0 (Aggregate.stats t).Aggregate.merges

(* ---- satellite 1 regression: cache priorities must encode table rank ---- *)

(* The chain where naive caching is unsafe: a narrow drop over a broad
   accept (same shape as test_splice.chained). *)
let chained =
  Classifier.of_specs s2
    [
      (30, [ ("f1", "00000001") ], Action.Drop);
      (20, [ ("f1", "000000xx"); ("f2", "1xxxxxxx") ], Action.Forward 9);
      (10, [ ("f1", "000000xx") ], Action.Forward 1);
      (0, [], Action.Drop);
    ]

let test_rank_priorities_pick_the_winner () =
  (* Cover-style entries reproduce authority rules verbatim, so the
     narrow drop and the broad accept OVERLAP once cached.  Under the
     old constant cache priority (always 0) the tie broke toward the
     older entry — the broad accept installed first — and the drop rule
     was bypassed.  Rank-based priorities must pick the table's winner
     regardless of install order. *)
  let top = Option.get (Classifier.find chained 0) in
  let broad = Option.get (Classifier.find chained 2) in
  let plan = Splice.plan (Indexed.of_classifier chained) in
  let rank_top = Splice.rank plan top in
  let rank_broad = Splice.rank plan broad in
  check Alcotest.int "top rank (4-rule table)" 4 rank_top;
  check Alcotest.int "broad rank" 2 rank_broad;
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  (* broad first => lower cache id => the old tie-break favoured it *)
  ignore
    (Switch.install_cache_rule ~origin_id:broad.Rule.id sw ~now:0.
       (Rule.make ~id:1 ~priority:rank_broad broad.Rule.pred broad.Rule.action));
  ignore
    (Switch.install_cache_rule ~origin_id:top.Rule.id sw ~now:0.
       (Rule.make ~id:2 ~priority:rank_top top.Rule.pred top.Rule.action));
  match Switch.process sw ~now:1. (h 1 0) with
  | Switch.Local (a, Switch.Cache_bank) ->
      check action "narrow drop wins" Action.Drop a
  | _ -> Alcotest.fail "expected a cache-bank decision"

(* ---- satellite 3 regression: replace-then-expire staleness ---- *)

let test_replace_then_expire () =
  let tcam = Tcam.create ~capacity:4 in
  let r = Rule.make ~id:1 ~priority:0 (p "00000000") Action.Drop in
  (* short-lived install, then a same-id replacement with a long lease:
     the heap still holds the OLD deadline; popping it must not expire
     the fresh entry *)
  (match Tcam.insert ~idle_timeout:0.1 tcam ~now:0. r with
  | `Ok -> ()
  | _ -> Alcotest.fail "first insert");
  (match Tcam.insert ~idle_timeout:10. tcam ~now:0.05 r with
  | `Replaced _ -> ()
  | _ -> Alcotest.fail "expected same-id replacement");
  check Alcotest.int "no premature expiry" 0
    (List.length (Tcam.expire_entries tcam ~now:0.2));
  check Alcotest.bool "entry survives its stale deadline" true (Tcam.mem tcam 1);
  (* the hard-timeout lane has the same staleness hazard *)
  let r2 = Rule.make ~id:2 ~priority:0 (p "00000001") Action.Drop in
  ignore (Tcam.insert ~hard_timeout:0.1 tcam ~now:0. r2);
  ignore (Tcam.insert ~hard_timeout:10. tcam ~now:0.05 r2);
  check Alcotest.int "no premature hard expiry" 0
    (List.length (Tcam.expire_entries tcam ~now:0.2));
  check Alcotest.bool "hard-lease entry survives" true (Tcam.mem tcam 2);
  (* both leases do end *)
  check Alcotest.int "eventual expiry" 2
    (List.length (Tcam.expire_entries tcam ~now:11.))

let test_touch_defers_idle_expiry () =
  let tcam = Tcam.create ~capacity:4 in
  let r = Rule.make ~id:3 ~priority:0 (p "00000010") Action.Drop in
  ignore (Tcam.insert ~idle_timeout:0.1 tcam ~now:0. r);
  check Alcotest.bool "touch live entry" true (Tcam.touch tcam ~now:0.09 3);
  check Alcotest.int "refreshed, not expired" 0
    (List.length (Tcam.expire_entries tcam ~now:0.15));
  check Alcotest.int "idles out after the refresh" 1
    (List.length (Tcam.expire_entries tcam ~now:0.25));
  check Alcotest.bool "touch dead entry" false (Tcam.touch tcam ~now:0.3 3)

(* ---- cover sets: dependency safety and group atomicity ---- *)

let cover_setup ?(capacity = 8) () =
  let part = Partitioner.compute chained ~k:2 in
  let auth = Switch.create ~id:7 ~cache_capacity:capacity in
  let ingress = Switch.create ~id:0 ~cache_capacity:capacity in
  let prules = Partitioner.partition_rules part ~assignment:(fun _ -> 7) in
  Switch.install_partition_rules ingress prules;
  Switch.install_partition_rules auth prules;
  List.iter (fun pa -> Switch.install_authority auth pa) part.Partitioner.partitions;
  (ingress, auth, Aggregate.create Aggregate.enabled_default)

let serve_covers ?idle_timeout (ingress, auth, t) ~now hdr =
  let reply = Option.get (Switch.serve_miss ~cover_limit:4 auth ~now hdr) in
  ignore (Aggregate.install ?idle_timeout t ingress ~now reply.Switch.installs);
  reply

let test_cover_set_preserves_dependencies () =
  let ((ingress, _, _) as env) = cover_setup () in
  let reply = serve_covers env ~now:0. (h 2 0) in
  (* broad accept depends on the narrow drop and the f2-range rule *)
  check Alcotest.int "cover set size" 3 (List.length reply.Switch.installs);
  check Alcotest.int "all members resident" 3 (Tcam.occupancy (Switch.cache ingress));
  (* the covered headers decide exactly as the policy does — including
     the header owned by the HIGHER-priority drop the cover set carries *)
  (match Switch.process ingress ~now:1. (h 2 0) with
  | Switch.Local (a, Switch.Cache_bank) -> check action "origin header" (Action.Forward 1) a
  | _ -> Alcotest.fail "expected cache hit on the broad member");
  match Switch.process ingress ~now:1. (h 1 0) with
  | Switch.Local (a, Switch.Cache_bank) -> check action "dependency header" Action.Drop a
  | _ -> Alcotest.fail "expected cache hit on the high-rank member"

let test_cover_group_dies_atomically () =
  let ((ingress, _, _) as env) = cover_setup () in
  let reply = serve_covers env ~now:0. (h 2 0) in
  (* lose one member behind the cache's back, then sweep *)
  let victim, _ = List.hd reply.Switch.installs in
  ignore (Tcam.remove (Switch.cache ingress) victim.Rule.id);
  ignore (Switch.drop_cover_orphans ingress ~now:1.);
  check Alcotest.int "whole group scrubbed" 0 (Tcam.occupancy (Switch.cache ingress))

let test_cover_group_stays_warm_together () =
  let ((ingress, _, _) as env) = cover_setup () in
  ignore (serve_covers env ~idle_timeout:0.1 ~now:0. (h 2 0));
  (* only the broad member absorbs traffic; its hits must keep the unhit
     high-rank dependencies warm *)
  ignore (Switch.process ingress ~now:0.09 (h 2 0));
  ignore (Switch.process ingress ~now:0.18 (h 2 0));
  ignore (Switch.expire_cache ingress ~now:0.25);
  check Alcotest.int "group refreshed as one unit" 3
    (Tcam.occupancy (Switch.cache ingress));
  (* once the traffic stops the whole group idles out together *)
  ignore (Switch.expire_cache ingress ~now:1.);
  check Alcotest.int "group expires as one unit" 0
    (Tcam.occupancy (Switch.cache ingress))

let test_cover_group_too_big_for_tcam () =
  (* capacity below the set size: members evict each other mid-batch;
     the batch-boundary sweep must leave no partial group behind *)
  let ((ingress, _, _) as env) = cover_setup ~capacity:2 () in
  ignore (serve_covers env ~now:0. (h 2 0));
  check Alcotest.int "no partial cover set survives" 0
    (Tcam.occupancy (Switch.cache ingress))

(* ---- the exact oracle: the network decides as the policy does ---- *)

(* Random chain policies over the tiny schema, closed so every header
   matches; egresses stay within the 3-node line topology below. *)
let gen_policy =
  let open QCheck2.Gen in
  let* n = int_range 3 8 in
  let* specs = list_repeat n (pair (int_bound 10) gen_pred_tiny2) in
  let rules =
    List.mapi
      (fun i (pr, pd) ->
        let act =
          match i mod 3 with
          | 0 -> Action.Drop
          | 1 -> Action.Forward 1
          | _ -> Action.Forward 2
        in
        Rule.make ~id:i ~priority:pr pd act)
      specs
  in
  let rules = Rule.make ~id:n ~priority:(-1) (Pred.any s2) (Action.Forward 1) :: rules in
  return (Classifier.create s2 rules)

(* A stream step: a header plus an op selector that occasionally expires,
   flushes or invalidates BOTH arms identically before injecting. *)
let gen_case =
  let open QCheck2.Gen in
  triple gen_policy (int_range 2 8)
    (list_size (int_range 10 40) (pair gen_header_tiny2 (int_bound 15)))

(* [Aggregate.install] skips the buddy search for cover entries, which
   is exact only while [find_merge] has no answer for them: every live
   cover entry, asked about with its own provenance, finds no partner. *)
let cover_entries_unmergeable d =
  Array.for_all
    (fun sw ->
      List.for_all
        (fun (e : Tcam.entry) ->
          let r = e.Tcam.rule in
          match Switch.cache_meta_of_rule sw r.Rule.id with
          | Some ({ Switch.kind = Switch.Cover; _ } as m) ->
              Option.is_none
                (Aggregate.find_merge sw ~pid:m.Switch.pid ~kind:Switch.Cover
                   ~group:m.Switch.group ~priority:r.Rule.priority ~action:r.Rule.action
                   r.Rule.pred)
          | Some _ | None -> true)
        (Tcam.entries (Switch.cache sw)))
    (Deployment.switches d)

let tiny_deployment ~capacity aggregation policy =
  let config =
    {
      Deployment.default_config with
      k = 4;
      cache_capacity = capacity;
      cache_idle_timeout = Some 0.05;
      aggregation;
    }
  in
  Deployment.build ~config ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] ()

(* One replay of a case: before each packet the step's op expires,
   flushes or invalidates; the packet must get the policy's action, and
   after it the exact oracle must find nothing. *)
let replay_case aggregation (policy, capacity, stream) =
  let d = tiny_deployment ~capacity aggregation policy in
  let ok =
    List.for_all
      (fun (step, (hdr, op)) ->
        let now = float_of_int step /. 50. in
        (match op with
        | 0 -> ignore (Deployment.expire_caches d ~now)
        | 1 -> Deployment.flush_caches d
        | 2 -> ignore (Deployment.invalidate_origins ~now d ~origins:(fun o -> o mod 2 = 0))
        | _ -> ());
        let got = (Deployment.inject d ~now ~ingress:0 hdr).Deployment.action in
        Classifier.action policy hdr = Some got
        && Deployment.counterexample d = None
        && cover_entries_unmergeable d)
      (List.mapi (fun i x -> (i, x)) stream)
  in
  (d, ok)

let prop_aggregation_preserves_forwarding =
  qt ~count:400 "aggregated deployment forwards as the policy, as plain does" gen_case
    (fun case ->
      List.for_all
        (fun aggregation -> snd (replay_case aggregation case))
        [ Aggregate.default; Aggregate.enabled_default ])

(* The oracle's [None] is a claim about every header: on tiny2 all
   65,536 of them can be injected, and each must then get the policy's
   action. *)
let prop_oracle_none_means_every_header =
  qt ~count:6 "oracle None: every tiny2 header forwards as the policy" gen_case
    (fun ((policy, _, _) as case) ->
      let d, ok = replay_case Aggregate.enabled_default case in
      ok
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 let hdr = h a b in
                 Classifier.action policy hdr
                 = Some (Deployment.inject d ~now:1. ~ingress:0 hdr).Deployment.action)
               (List.init 256 Fun.id))
           (List.init 256 Fun.id))

(* The oracle can fail: an entry a controller installs with the wrong
   action is reported, with a header inside that entry, and so is a
   wrong authority table, with a header inside its region. *)
let test_oracle_reports_a_wrong_entry () =
  let policy =
    Classifier.of_specs s2
      [
        (30, [ ("f1", "00000001") ], Action.Drop);
        (10, [ ("f1", "000000xx") ], Action.Forward 1);
        (0, [], Action.Forward 2);
      ]
  in
  let d = tiny_deployment ~capacity:8 Aggregate.default policy in
  let install id action =
    let rule = Rule.make ~id ~priority:id (p "0000001x") action in
    Switch.apply_flow_mod (Deployment.switch d 0) ~now:0.
      { Message.command = Message.Add; bank = Message.Cache; rule; idle_timeout = None;
        hard_timeout = None };
    rule
  in
  check Alcotest.bool "a fresh deployment agrees" true (Deployment.counterexample d = None);
  ignore (install 500 (Action.Forward 1));
  check Alcotest.bool "a right entry agrees" true (Deployment.counterexample d = None);
  (* above the right entry, so it decides *)
  let wrong = install 501 Action.Drop in
  (match Deployment.counterexample d with
  | Some (0, hdr) ->
      check Alcotest.bool "header inside the entry" true (Rule.matches wrong hdr);
      check Alcotest.bool "the policy disagrees" true
        (Classifier.action policy hdr = Some (Action.Forward 1))
  | Some (sw, _) -> Alcotest.failf "reported at switch %d, not the ingress" sw
  | None -> Alcotest.fail "a wrong entry went unreported");
  (* and an authority table holding a wrong action, at the authority *)
  Deployment.flush_caches d;
  let part = List.hd (Deployment.partitioner d).Partitioner.partitions in
  let table = Classifier.rules part.Partitioner.table in
  Switch.install_authority (Deployment.switch d 1)
    { part with
      table =
        Classifier.of_table_order s2
          (List.map (fun r -> Rule.with_action r (Action.Forward 7)) table) };
  match Deployment.counterexample d with
  | Some (1, hdr) ->
      check Alcotest.bool "header inside the region" true
        (Pred.matches part.Partitioner.region hdr)
  | Some (sw, _) -> Alcotest.failf "reported at switch %d, not the authority" sw
  | None -> Alcotest.fail "a wrong authority table went unreported"

(* Two cover groups share a member: group 901 guards its broad forward
   with group 900's narrow drop.  A delete breaks group 900, whose scrub
   removes the shared drop; group 901 is then broken too and must go in
   the same scrub, not wait for the next install batch while its broad
   rule answers the drop's headers. *)
let test_cover_scrub_cascades () =
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  let cover gid members id ~rank f1 action =
    let r = Rule.make ~id ~priority:rank (p f1) action in
    ignore
      (Switch.install_cache_meta sw ~now:0. r
         (Some
            { Switch.pid = 0; kind = Switch.Cover; group = Some (gid, members);
              parts = [ { Switch.part_origin = id; part_rank = rank; part_pred = r.Rule.pred } ]
            }));
    r
  in
  ignore (cover 900 [ 1; 2 ] 1 ~rank:3 "0000000x" Action.Drop);
  let guarded = cover 900 [ 1; 2 ] 2 ~rank:1 "00000xxx" (Action.Forward 2) in
  ignore (cover 901 [ 1; 3 ] 3 ~rank:2 "000000xx" (Action.Forward 1));
  check Alcotest.int "both groups whole" 0 (Switch.drop_cover_orphans sw ~now:0.);
  Switch.apply_flow_mod sw ~now:1.
    { Message.command = Message.Delete; bank = Message.Cache; rule = guarded;
      idle_timeout = None; hard_timeout = None };
  check Alcotest.int "no member of a broken group survives" 0
    (Tcam.occupancy (Switch.cache sw));
  match Switch.process sw ~now:1. (h 0 0) with
  | Switch.Local (_, Switch.Cache_bank) -> Alcotest.fail "a broken group decided a packet"
  | _ -> ()

(* ---- the cache-bank probes against the scan oracles ---- *)

(* Predicates from a small pool so that equal predicates and buddies
   are common: field 1 takes three masks — exact, a middle-wildcard
   (bits 3 and 4 free) and a /4 prefix — over values that differ in bit
   1 or bit 5, so buddies differ in a middle bit, not only as prefix
   siblings; field 2 is one of two exact values a bit-5 flip apart, or
   a wildcard.  All 16 bits sit in the low lane. *)
let gen_pool_pred_tiny2 =
  let open QCheck2.Gen in
  let* mask = oneofl [ 0xff; 0xe7; 0xf0 ] in
  let* flips = oneofl [ 0x00; 0x02; 0x20; 0x22 ] in
  let* f2 = oneofl [ Some 0x10; Some 0x30; None ] in
  let t1 = Ternary.make ~width:8 ~value:(Int64.of_int (0x42 lxor flips)) ~mask:(Int64.of_int mask) in
  let t2 =
    match f2 with Some v -> Ternary.exact ~width:8 (Int64.of_int v) | None -> Ternary.any 8
  in
  return (Pred.make s2 [ t1; t2 ])

(* The same kind of pool over the named fields of a wide schema.  Each
   shape fixes its fields and lets each one take one of two buddy
   values.  In acl_5tuple, dst_ip's top bit is bit 0 of the high lane,
   and the ports and proto lie wholly in the high lane, so these buddies
   differ in a high-lane bit; 10.0.0.0/32 and 10.0.0.128/32 differ in a
   middle bit.  An openflow_basic bank (136 bits) cannot be packed, so
   its probes fall back to every entry. *)
let gen_pool_pred_wide schema =
  let open QCheck2.Gen in
  let ip = Ternary.of_ipv4 in
  let port v = Ternary.exact ~width:16 (Int64.of_int v) in
  let proto v = Ternary.exact ~width:8 (Int64.of_int v) in
  let* shape =
    oneofl
      [
        [ ("dst_ip", [ ip "0.0.0.0/1"; ip "128.0.0.0/1" ]); ("proto", [ proto 6; proto 7 ]) ];
        [ ("dst_ip", [ ip "10.0.0.0"; ip "10.0.0.128" ]); ("dst_port", [ port 80; port 81 ]) ];
        [ ("src_port", [ port 1024; port 1025 ]); ("proto", [ proto 6 ]) ];
      ]
  in
  let* fields =
    flatten_l (List.map (fun (name, opts) -> map (fun t -> (name, t)) (oneofl opts)) shape)
  in
  return (Pred.of_fields schema fields)

(* Headers that land in the wide pool's predicates, and beside them. *)
let gen_header_wide schema =
  let open QCheck2.Gen in
  let* dst_ip = oneofl [ 0x00000001L; 0x80000001L; 0x0A000000L; 0x0A000080L ] in
  let* dst_port = oneofl [ 80L; 81L; 443L ] in
  let* src_port = oneofl [ 1024L; 1025L; 5000L ] in
  let* proto = oneofl [ 6L; 7L; 17L ] in
  let values =
    Array.init (Schema.arity schema) (fun i ->
        match Schema.field_name schema i with
        | "dst_ip" -> dst_ip
        | "dst_port" -> dst_port
        | "src_port" -> src_port
        | "proto" -> proto
        | _ -> 0L)
  in
  return (Header.make schema values)

let gen_bank_pred schema =
  if Schema.equal schema s2 then gen_pool_pred_tiny2 else gen_pool_pred_wide schema

let gen_bank_header schema =
  if Schema.equal schema s2 then gen_header_tiny2 else gen_header_wide schema

type spec = { sp_pred : Pred.t; sp_prio : int; sp_drop : bool; sp_origin : int }

let gen_spec schema =
  let open QCheck2.Gen in
  let* sp_pred = gen_bank_pred schema in
  let* sp_prio = int_range 1 3 in
  let* sp_drop = frequencyl [ (4, false); (1, true) ] in
  let* sp_origin = int_bound 5 in
  return { sp_pred; sp_prio; sp_drop; sp_origin }

type op =
  | Install of { specs : spec list; cover : bool; exact : bool; pid : int;
                 idle : bool; aggregate : bool }
  | Expire of float  (* advance the clock, then run idle expiry *)
  | Absorb of int  (* the [n mod occupancy]-th live entry *)
  | Invalidate of int  (* origins [o] with [o mod 3 = n] *)
  | Flush
  | Delete of int  (* controller Delete flow-mod of the n-th live entry *)
  | Hit of Header.t

let gen_index_op schema =
  let open QCheck2.Gen in
  frequency
    [
      ( 8,
        let* specs = list_size (int_range 1 4) (gen_spec schema) in
        let* cover = frequencyl [ (2, true); (1, false) ] in
        let* exact = bool in
        let* pid = frequencyl [ (4, 0); (1, 1) ] in
        let* idle = bool in
        let* aggregate = frequencyl [ (4, true); (1, false) ] in
        return (Install { specs; cover; exact; pid; idle; aggregate }) );
      (2, map (fun n -> Expire (float_of_int n *. 0.02)) (int_range 1 4));
      (1, map (fun n -> Absorb n) nat);
      (1, map (fun n -> Invalidate n) (int_bound 2));
      (1, return Flush);
      (1, map (fun n -> Delete n) nat);
      (2, map (fun h -> Hit h) (gen_bank_header schema));
    ]

let gen_index_case =
  let open QCheck2.Gen in
  let* schema = frequencyl [ (2, s2); (1, Schema.acl_5tuple); (1, Schema.openflow_basic) ] in
  triple (return schema) (int_range 4 16) (list_size (int_range 5 30) (gen_index_op schema))

(* What a case exercised, for the coverage floor below. *)
type index_cov = {
  mutable merge_hits : int;  (* index-backed find_merge answers Some *)
  mutable duplicates : int;  (* equivalent_live_cover names another entry *)
  mutable orphans : int;  (* entries the checked scrubs removed *)
  mutable shared : bool;  (* a cover member was shared through subst *)
}

let nth_live sw n =
  match Tcam.entries (Switch.cache sw) with
  | [] -> None
  | es -> Some (List.nth es (n mod List.length es))

let removed_ids msgs =
  List.filter_map
    (function Message.Flow_removed f -> Some f.Message.removed_rule | _ -> None)
    msgs

(* Every (field, bit) position of a predicate's schema. *)
let field_bits pred =
  List.concat
    (List.init (Pred.arity pred) (fun f ->
         List.init (Ternary.width (Pred.field pred f)) (fun b -> (f, b))))

(* After every step: each live entry's exact and one-bit-flipped
   predicates, queried with its own provenance, get the same answer from
   the bank's probes as from the scan; then the orphan scrub removes
   exactly the entries the scan finds incomplete, in its order. *)
let index_agrees_with_scan cov sw ~now =
  let merge_sig = Option.map (fun ((r : Rule.t), _, u) -> (r.Rule.id, Pred.to_string u)) in
  let queries_agree =
    List.for_all
      (fun (e : Tcam.entry) ->
        let r = e.Tcam.rule in
        match Switch.cache_meta_of_rule sw r.Rule.id with
        | None -> true
        | Some m ->
            let eq = Aggregate.equivalent_live_cover sw r m in
            if eq <> None && eq <> Some r.Rule.id then cov.duplicates <- cov.duplicates + 1;
            eq = Aggregate_scan.equivalent_live_cover sw r m
            && List.for_all
                 (fun (f, b) ->
                   let t = Pred.field r.Rule.pred f in
                   match Ternary.bit t b with
                   | `Any -> true
                   | `Zero | `One ->
                       let flipped =
                         Ternary.make ~width:(Ternary.width t)
                           ~value:(Int64.logxor (Ternary.value t) (Int64.shift_left 1L b))
                           ~mask:(Ternary.mask t)
                       in
                       let q = Pred.with_field r.Rule.pred f flipped in
                       let ask find =
                         find sw ~pid:m.Switch.pid ~kind:m.Switch.kind ~group:m.Switch.group
                           ~priority:r.Rule.priority ~action:r.Rule.action q
                       in
                       let got = merge_sig (ask Aggregate.find_merge) in
                       if got <> None then cov.merge_hits <- cov.merge_hits + 1;
                       got = merge_sig (ask Aggregate_scan.find_merge))
                 (field_bits r.Rule.pred))
      (Tcam.entries (Switch.cache sw))
  in
  let expected = Aggregate_scan.cover_orphans sw in
  ignore (Switch.drain_notifications sw);
  let n = Switch.drop_cover_orphans sw ~now in
  let removed = removed_ids (Switch.drain_notifications sw) in
  cov.orphans <- cov.orphans + n;
  queries_agree && removed = expected && n = List.length expected

let fresh_cov () = { merge_hits = 0; duplicates = 0; orphans = 0; shared = false }

let run_index_case ?(cov = fresh_cov ()) (_schema, capacity, ops) =
  let sw = Switch.create ~id:0 ~cache_capacity:capacity in
  Switch.attach sw;
  let agg = Aggregate.create Aggregate.enabled_default in
  let plain = Aggregate.create Aggregate.default in
  let clock = ref 0. in
  List.for_all
    (fun op ->
      let now = !clock in
      (match op with
      | Install { specs; cover; exact; pid; idle; aggregate } ->
          let rules =
            List.map
              (fun sp ->
                let action = if sp.sp_drop then Action.Drop else Action.Forward 1 in
                Rule.make ~id:(Switch.fresh_cache_id sw) ~priority:sp.sp_prio sp.sp_pred action,
                sp)
              specs
          in
          let group =
            if cover then
              Some (Switch.fresh_cache_id sw, List.map (fun ((r : Rule.t), _) -> r.Rule.id) rules)
            else None
          in
          let kind = if cover then Switch.Cover else if exact then Switch.Exact else Switch.Fragment in
          let batch =
            List.map
              (fun ((r : Rule.t), sp) ->
                ( r,
                  { Switch.pid; kind; group;
                    parts = [ { Switch.part_origin = sp.sp_origin; part_rank = r.Rule.priority;
                                part_pred = r.Rule.pred } ] } ))
              rules
          in
          let t = if aggregate then agg else plain in
          let before = (Aggregate.stats agg).Aggregate.suppressed in
          ignore
            (Aggregate.install ?idle_timeout:(if idle then Some 0.05 else None) t sw ~now batch);
          if cover && (Aggregate.stats agg).Aggregate.suppressed > before then cov.shared <- true
      | Expire dt ->
          clock := !clock +. dt;
          ignore (Switch.expire_cache sw ~now:!clock)
      | Absorb n ->
          Option.iter
            (fun (e : Tcam.entry) -> ignore (Switch.absorb_cache_rule sw ~now e.Tcam.rule.Rule.id))
            (nth_live sw n)
      | Invalidate n -> ignore (Switch.invalidate_origins sw ~now (fun o -> o mod 3 = n))
      | Flush -> Switch.flush_cache sw
      | Delete n ->
          Option.iter
            (fun (e : Tcam.entry) ->
              ignore
                (Switch.handle_control sw ~now
                   (Message.Flow_mod
                      { Message.command = Message.Delete; bank = Message.Cache;
                        rule = e.Tcam.rule; idle_timeout = None; hard_timeout = None })))
            (nth_live sw n)
      | Hit h -> ignore (Switch.process sw ~now h));
      index_agrees_with_scan cov sw ~now:!clock)
    ops

let prop_index_matches_scan =
  qt ~count:300 "cache index answers as the scan oracles" gen_index_case
    (fun case -> run_index_case case)

(* Of 300 generated cases (fixed seed), enough must reach each path the
   property compares — buddy hits on every kind of bank, a second live
   cover entry with an equal predicate (the tie rule), orphan scrubs and
   cover members shared through subst — that a generator change starving
   one fails here instead of thinning the property. *)
let test_index_case_coverage () =
  let cases =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 18 |]) ~n:300 gen_index_case
  in
  let covs =
    List.map
      (fun ((schema, _, _) as c) ->
        let cov = fresh_cov () in
        (run_index_case ~cov c, schema, cov))
      cases
  in
  check Alcotest.bool "index agrees with scan" true (List.for_all (fun (ok, _, _) -> ok) covs);
  let share_of covs f =
    List.length (List.filter (fun (_, _, c) -> f c) covs) * 100 / max 1 (List.length covs)
  in
  let share = share_of covs in
  check Alcotest.bool "buddy hits" true (share (fun c -> c.merge_hits > 0) >= 80);
  List.iter
    (fun schema ->
      let own = List.filter (fun (_, s, _) -> Schema.equal s schema) covs in
      check Alcotest.bool "buddy hits on each bank" true
        (List.length own >= 50 && share_of own (fun c -> c.merge_hits > 0) >= 80))
    [ s2; Schema.acl_5tuple; Schema.openflow_basic ];
  check Alcotest.bool "duplicate covers" true (share (fun c -> c.duplicates > 0) >= 10);
  check Alcotest.bool "orphan scrubs" true (share (fun c -> c.orphans > 0) >= 20);
  check Alcotest.bool "shared members" true (share (fun c -> c.shared) >= 8)

let suite =
  [
    ( "aggregate",
      [
        tc "buddy_union algebra" test_buddy_union;
        tc "adjacent same-action fragments merge" test_fragments_merge;
        tc "no merge across actions" test_no_merge_across_actions;
        tc "no merge across partitions" test_no_merge_across_pids;
        tc "fragment merge takes the max rank" test_fragment_merge_takes_max_rank;
        tc "covers never merge across groups" test_covers_never_merge_across_groups;
        tc "subsumed install suppressed" test_subsumed_install_suppressed;
        tc "disabled config installs plainly" test_disabled_installs_plainly;
        tc "rank priorities pick the winner (regression)"
          test_rank_priorities_pick_the_winner;
        tc "replace-then-expire keeps the fresh lease (regression)"
          test_replace_then_expire;
        tc "touch defers idle expiry" test_touch_defers_idle_expiry;
        tc "cover set preserves dependencies" test_cover_set_preserves_dependencies;
        tc "cover group dies atomically" test_cover_group_dies_atomically;
        tc "cover group stays warm together" test_cover_group_stays_warm_together;
        tc "cover scrub cascades through shared members (regression)"
          test_cover_scrub_cascades;
        tc "oversized cover group leaves no partial set"
          test_cover_group_too_big_for_tcam;
        prop_aggregation_preserves_forwarding;
        prop_oracle_none_means_every_header;
        tc "oracle reports a wrong cache entry or table" test_oracle_reports_a_wrong_entry;
        prop_index_matches_scan;
        tc "index property reaches every path" test_index_case_coverage;
      ] );
  ]
