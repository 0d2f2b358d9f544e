open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let policy =
  Classifier.of_specs s2
    [
      (20, [ ("f1", "00000001") ], Action.Drop);
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 3);
      (0, [], Action.Drop);
    ]

(* --- channel --- *)

let test_channel_latency () =
  let ch = Channel.create s2 ~latency:0.5 in
  Channel.send ch ~now:0. ~xid:1 Message.Hello;
  check Alcotest.int "in flight" 0 (List.length (Channel.poll ch ~now:0.4));
  let arrived = Channel.poll ch ~now:0.5 in
  check Alcotest.int "arrived" 1 (List.length arrived);
  (let x, _, _ = List.hd arrived in
   check Alcotest.int "xid preserved" 1 x);
  check Alcotest.int "drained" 0 (Channel.pending ch)

let test_channel_order_and_counters () =
  let ch = Channel.create s2 ~latency:0.1 in
  Channel.send ch ~now:0. ~xid:1 (Message.Echo_request 1);
  Channel.send ch ~now:0.01 ~xid:2 (Message.Echo_request 2);
  let msgs = Channel.poll ch ~now:1. in
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2 ] (List.map (fun (x, _, _) -> x) msgs);
  check Alcotest.int "frames" 2 (Channel.frames_carried ch);
  check Alcotest.bool "bytes counted" true (Channel.bytes_carried ch >= 32)

(* --- switch control handler --- *)

let test_handle_echo_barrier () =
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  (match Switch.handle_control sw ~now:0. (Message.Echo_request 7) with
  | [ Message.Echo_reply 7 ] -> ()
  | _ -> Alcotest.fail "echo mishandled");
  match Switch.handle_control sw ~now:0. (Message.Barrier_request 3) with
  | [ Message.Barrier_reply 3 ] -> ()
  | _ -> Alcotest.fail "barrier mishandled"

let test_handle_stats () =
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  let r = Rule.make ~id:5 ~priority:1 (Pred.any s2) (Action.Forward 1) in
  ignore (Switch.install_cache_rule sw ~now:0. r);
  ignore (Switch.process sw ~now:1. (h 1 1));
  ignore (Switch.process sw ~now:2. (h 2 2));
  match
    Switch.handle_control sw ~now:10.
      (Message.Stats_request { Message.table_bank = Message.Cache; cookie = 42 })
  with
  | [ Message.Stats_reply { Message.request_cookie = 42; flows = [ f ] } ] ->
      check Alcotest.int "rule id" 5 f.Message.rule_id;
      check Alcotest.int64 "packets" 2L f.Message.packets;
      check (Alcotest.float 1e-9) "duration" 10. f.Message.duration
  | _ -> Alcotest.fail "stats mishandled"

let test_handle_flow_mod () =
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  let r = Rule.make ~id:5 ~priority:1 (Pred.any s2) Action.Drop in
  let fm command =
    Message.Flow_mod
      { Message.command; bank = Message.Cache; rule = r; idle_timeout = None;
        hard_timeout = None }
  in
  check Alcotest.int "add silent" 0 (List.length (Switch.handle_control sw ~now:0. (fm Message.Add)));
  check Alcotest.int "added" 1 (Switch.cache_occupancy sw);
  ignore (Switch.handle_control sw ~now:0. (fm Message.Delete));
  check Alcotest.int "deleted" 0 (Switch.cache_occupancy sw)

let test_xid_dedup () =
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  let prule = Rule.make ~id:1 ~priority:0 (Pred.any s2) (Action.To_authority 1) in
  let fm =
    Message.Flow_mod
      { Message.command = Message.Add; bank = Message.Partition; rule = prule;
        idle_timeout = None; hard_timeout = None }
  in
  (* a tracked partition add is acked; its replay is re-acked from memory *)
  (match Switch.handle_control ~xid:5 sw ~now:0. fm with
  | [ Message.Ack 5 ] -> ()
  | _ -> Alcotest.fail "partition add not acked");
  (match Switch.handle_control ~xid:5 sw ~now:0. fm with
  | [ Message.Ack 5 ] -> ()
  | _ -> Alcotest.fail "replay not re-acked");
  (match Switch.handle_control ~xid:6 sw ~now:0. (Message.Barrier_request 1) with
  | [ Message.Barrier_reply 1 ] -> ()
  | _ -> Alcotest.fail "barrier mishandled");
  (* the duplicate add was suppressed: the bank works and holds one rule *)
  (match Switch.process sw ~now:0. (h 2 0) with
  | Switch.Tunnel 1 -> ()
  | _ -> Alcotest.fail "partition bank not committed");
  (* replaying an Install_partition must not duplicate the table *)
  let part = Partitioner.compute policy ~k:2 in
  let p = List.hd part.Partitioner.partitions in
  let ip =
    Message.Install_partition
      { Message.pid = p.pid; region = p.region; table_rules = Classifier.rules p.table }
  in
  (match Switch.handle_control ~xid:7 sw ~now:0. ip with
  | [ Message.Ack 7 ] -> ()
  | _ -> Alcotest.fail "install not acked");
  ignore (Switch.handle_control ~xid:7 sw ~now:0. ip);
  check Alcotest.int "one authority table despite replay" 1
    (List.length (Switch.authority_partitions sw))

let test_straggler_add_merges_after_barrier () =
  (* a partition add whose first copy was lost arrives (as a
     retransmission) after the barrier committed the rest of the batch:
     it must merge into the live bank, not wait for a barrier that will
     never come *)
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  let prule id f1 =
    Rule.make ~id ~priority:0
      (Pred.make s2 [ Ternary.exact ~width:8 (Int64.of_int f1); Ternary.any 8 ])
      (Action.To_authority 1)
  in
  let fm rule =
    Message.Flow_mod
      { Message.command = Message.Add; bank = Message.Partition; rule;
        idle_timeout = None; hard_timeout = None }
  in
  ignore (Switch.handle_control ~xid:1 sw ~now:0. (fm (prule 0 7)));
  ignore (Switch.handle_control ~xid:2 sw ~now:0. (Message.Barrier_request 9));
  (* the straggler (xid 3 was lost in flight the first time) *)
  ignore (Switch.handle_control ~xid:3 sw ~now:1. (fm (prule 1 9)));
  (match Switch.process sw ~now:1. (Header.make s2 [| 9L; 0L |]) with
  | Switch.Tunnel 1 -> ()
  | _ -> Alcotest.fail "straggler add never reached the partition bank");
  match Switch.process sw ~now:1. (Header.make s2 [| 7L; 0L |]) with
  | Switch.Tunnel 1 -> ()
  | _ -> Alcotest.fail "committed rule lost by the merge"

(* --- control plane --- *)

let build_cp ?(config = Control_plane.default_config) () =
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with replication = 2; k = 4 }
      ~policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
  in
  (d, Control_plane.create ~config d)

let drive cp ~from ~until ~step =
  let t = ref from in
  while !t <= until do
    Control_plane.tick cp ~now:!t;
    t := !t +. step
  done

let test_echo_keeps_alive () =
  let _, cp = build_cp () in
  drive cp ~from:0. ~until:20. ~step:0.25;
  check (Alcotest.list Alcotest.int) "nothing failed" [] (Control_plane.failed_switches cp)

(* The control plane's clock never runs back: a tick at or after the
   last one is accepted, an earlier one is refused. *)
let test_tick_clock_monotone () =
  let _, cp = build_cp () in
  drive cp ~from:0. ~until:1. ~step:0.25;
  Control_plane.tick cp ~now:1.;
  match Control_plane.tick cp ~now:0.5 with
  | () -> Alcotest.fail "a tick before the last one was accepted"
  | exception Invalid_argument _ -> ()

let test_failure_detection_and_failover () =
  let d, cp = build_cp () in
  ignore d;
  Control_plane.kill_switch cp 1;
  drive cp ~from:0. ~until:20. ~step:0.25;
  check (Alcotest.list Alcotest.int) "switch 1 declared dead" [ 1 ]
    (Control_plane.failed_switches cp);
  (* failover happened: 3 is the only authority now *)
  check (Alcotest.list Alcotest.int) "authority failover" [ 3 ]
    (Deployment.authority_ids (Control_plane.deployment cp));
  (* and the deployment still enforces the policy *)
  let rng = Prng.create 3 in
  let probes = List.init 100 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  check Alcotest.bool "post-failover semantics" true
    (Deployment.semantically_equal (Control_plane.deployment cp) probes)

let test_stats_aggregation () =
  let d, cp = build_cp () in
  (* create traffic so an ingress cache holds spliced entries with hits *)
  let o = Deployment.inject d ~now:0. ~ingress:0 (h 2 0) in
  check Alcotest.bool "cached" true (Option.is_some o.Deployment.installed);
  ignore (Deployment.inject d ~now:0.1 ~ingress:0 (h 2 0));
  ignore (Deployment.inject d ~now:0.2 ~ingress:0 (h 2 0));
  drive cp ~from:1. ~until:12. ~step:0.5;
  let counters = Control_plane.rule_counters cp in
  (* rule 1 (the broad forward) decided that flow; counters must attribute
     the cache hits to it *)
  match List.assoc_opt 1 counters with
  | Some n -> check Alcotest.bool "packets attributed" true (Int64.compare n 2L >= 0)
  | None -> Alcotest.failf "no counter for origin rule 1 (got %d entries)" (List.length counters)

let test_targeted_invalidation () =
  let d, cp = build_cp () in
  ignore (Deployment.inject d ~now:0. ~ingress:0 (h 2 0));
  check Alcotest.bool "entry cached" true (Deployment.total_cache_entries d > 0);
  let sent = Control_plane.delete_cached_origins cp ~now:1. [ 1 ] in
  check Alcotest.bool "deletions sent" true (sent > 0);
  (* deliver the deletions *)
  drive cp ~from:1.001 ~until:1.1 ~step:0.01;
  check Alcotest.int "cache emptied" 0 (Deployment.total_cache_entries d)

(* A longest-prefix table's default route has priority -1.  Pushed
   through the encoded channel it must stay the lowest rule: read back as
   an unsigned field it would outrank every prefix. *)
let test_push_negative_priority () =
  let policy =
    Policy_gen.prefix_table (Prng.create 8) { Policy_gen.default_prefixes with prefixes = 200; egresses = 5 }
  in
  check Alcotest.bool "the default route has priority -1" true
    (List.exists (fun (r : Rule.t) -> r.priority = -1) (Classifier.rules policy));
  let d =
    Deployment.build ~install:false
      ~config:{ Deployment.default_config with k = 8 }
      ~policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
  in
  let cp = Control_plane.create d in
  Control_plane.push_deployment cp ~now:0.;
  drive cp ~from:0.001 ~until:0.2 ~step:0.01;
  let probes = Array.to_list (Traffic.headers_for (Prng.create 9) policy 1000) in
  check Alcotest.bool "pushed prefix table = policy" true
    (Deployment.semantically_equal d probes)

let test_push_deployment () =
  (* blank switches, configuration delivered purely as encoded messages *)
  let d =
    Deployment.build ~install:false
      ~config:{ Deployment.default_config with replication = 2; k = 4 }
      ~policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
  in
  (* nothing installed yet: packets are unmatched *)
  (match Switch.process (Deployment.switch d 0) ~now:0. (h 2 0) with
  | Switch.Unmatched -> ()
  | _ -> Alcotest.fail "blank switch matched something");
  let cp = Control_plane.create d in
  Control_plane.push_deployment cp ~now:0.;
  drive cp ~from:0.001 ~until:0.2 ~step:0.01;
  (* all banks installed via messages: full DIFANE semantics *)
  let rng = Prng.create 21 in
  let probes = List.init 200 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  check Alcotest.bool "message-driven install is faithful" true
    (Deployment.semantically_equal d probes);
  (* every partition table reached both replicas *)
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
      check Alcotest.int "two replicas hold the table" 2 (List.length holders))
    (Deployment.partitioner d).Partitioner.partitions;
  check Alcotest.bool "frames were spent" true (Control_plane.control_frames cp > 10)

let test_partition_transfer_codec () =
  let part = Partitioner.compute policy ~k:2 in
  let p = List.hd part.Partitioner.partitions in
  let msg =
    Message.Install_partition
      { Message.pid = p.pid; region = p.region; table_rules = Classifier.rules p.table }
  in
  (match Message.decode s2 (Message.encode ~xid:5 msg) with
  | Ok (5, _, msg') -> check Alcotest.bool "transfer roundtrip" true (Message.equal msg msg')
  | _ -> Alcotest.fail "transfer decode failed");
  match Message.decode s2 (Message.encode ~xid:6 (Message.Drop_partition 3)) with
  | Ok (6, _, Message.Drop_partition 3) -> ()
  | _ -> Alcotest.fail "drop_partition roundtrip failed"

let test_control_overhead_counted () =
  let _, cp = build_cp () in
  drive cp ~from:0. ~until:5. ~step:0.5;
  check Alcotest.bool "frames flowed" true (Control_plane.control_frames cp > 0);
  check Alcotest.bool "bytes counted" true
    (Control_plane.control_bytes cp > Control_plane.control_frames cp)

(* --- reliability under faults --- *)

let blank_deployment () =
  Deployment.build ~install:false
    ~config:{ Deployment.default_config with replication = 2; k = 4 }
    ~policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()

let test_lossy_push_converges () =
  (* a 25% frame-loss channel (with duplication, corruption, jitter and
     reordering riding along): retransmission must still converge the
     full configuration, exactly *)
  let d = blank_deployment () in
  let faults = Fault.plan ~seed:11 ~link:(Fault.lossy_link ~jitter:2e-3 0.25) () in
  let cp =
    Control_plane.create
      ~config:{ Control_plane.default_config with retx_timeout = 0.02 }
      ~faults d
  in
  Control_plane.push_deployment cp ~now:0.;
  drive cp ~from:0.005 ~until:3. ~step:0.005;
  let stats = Control_plane.stats cp in
  check Alcotest.bool "channel really was lossy" true (stats.Control_plane.dropped > 0);
  check Alcotest.bool "retransmissions happened" true
    (Control_plane.retransmissions cp > 0);
  check Alcotest.int "every request eventually acked" 0
    (Control_plane.pending_requests cp);
  check Alcotest.int "nothing abandoned" 0 (Control_plane.giveups cp);
  let rng = Prng.create 21 in
  let probes = List.init 200 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  check Alcotest.bool "converged configuration is exact" true
    (Deployment.semantically_equal d probes)

let test_crash_restart_resync () =
  let d = blank_deployment () in
  let cp = Control_plane.create d in
  Control_plane.push_deployment cp ~now:0.;
  drive cp ~from:0.001 ~until:0.5 ~step:0.01;
  check Alcotest.bool "authority installed" true
    (Switch.authority_partitions (Deployment.switch d 1) <> []);
  (* the device dies losing all state, then comes back blank *)
  Control_plane.crash_switch cp ~now:1. 1;
  check (Alcotest.list Alcotest.int) "crash wiped the banks" []
    (List.map (fun (p : Partitioner.partition) -> p.pid)
       (Switch.authority_partitions (Deployment.switch d 1)));
  drive cp ~from:1.01 ~until:2. ~step:0.05;
  Control_plane.restart_switch cp ~now:2. 1;
  drive cp ~from:2.001 ~until:3. ~step:0.01;
  (* resync restored everything *)
  check Alcotest.bool "authority tables back after resync" true
    (Switch.authority_partitions (Deployment.switch d 1) <> []);
  check (Alcotest.list Alcotest.int) "not counted as failed" []
    (Control_plane.failed_switches cp);
  let rng = Prng.create 4 in
  let probes = List.init 200 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256)) in
  check Alcotest.bool "semantics restored" true (Deployment.semantically_equal d probes)

let test_premature_death_recovers () =
  (* echo losses can declare a live switch dead; the next answered probe
     must take it back (and restore its authority duty) *)
  let d = blank_deployment () in
  let cp = Control_plane.create d in
  Control_plane.push_deployment cp ~now:0.;
  drive cp ~from:0.001 ~until:0.5 ~step:0.01;
  (* simulate the false positive directly: down the control link long
     enough for detection, then restore it *)
  Control_plane.set_link cp ~now:1. 1 false;
  drive cp ~from:1.01 ~until:8. ~step:0.25;
  check (Alcotest.list Alcotest.int) "declared dead while link down" [ 1 ]
    (Control_plane.failed_switches cp);
  check (Alcotest.list Alcotest.int) "demoted" [ 3 ]
    (Deployment.authority_ids (Control_plane.deployment cp));
  Control_plane.set_link cp ~now:8.5 1 true;
  drive cp ~from:8.51 ~until:15. ~step:0.25;
  check (Alcotest.list Alcotest.int) "recovered on the next echo" []
    (Control_plane.failed_switches cp);
  check (Alcotest.list Alcotest.int) "authority restored" [ 1; 3 ]
    (Deployment.authority_ids (Control_plane.deployment cp))

(* One-pass invalidation against the per-id walk it replaced
   ([Invalidate_scan]), on random cache states with aggregation on.
   Traffic over a few narrow blocks makes microflow entries buddy-merge
   across origins, and extra installs carry two or three origins each,
   so merged entries standing for several changed ids are common.  The
   changed ids come in random order and some switches are dead; the
   (switch, rule id) delete sequences must be identical, and the control
   plane must send one delete per element. *)
let test_one_pass_invalidation () =
  let multi = ref 0 in
  let gen =
    let open QCheck2.Gen in
    let* specs = list_size (int_range 1 8) (pair gen_pred_tiny2 (int_range 1 20)) in
    let* microflow = bool in
    let* packets = list_size (int_range 10 80) (triple (int_bound 4) (int_bound 15) (int_bound 3)) in
    let* extra = list_size (int_range 0 6) (pair (int_bound 4) (list_size (int_range 2 3) (int_bound 9))) in
    let* changed = list_size (int_range 1 6) (int_bound 9) in
    let* dead = list_size (int_range 0 2) (int_bound 4) in
    return (specs, microflow, packets, extra, changed, dead)
  in
  let prop (specs, microflow, packets, extra, changed, dead) =
    let rules =
      Rule.make ~id:0 ~priority:0 (Pred.any s2) (Action.Forward 1)
      :: List.mapi
           (fun i (pd, p) -> Rule.make ~id:(i + 1) ~priority:p pd (Action.Forward (1 + (i mod 2))))
           specs
    in
    let config =
      { Deployment.default_config with
        k = 2;
        cache_mode = (if microflow then `Microflow else `Spliced);
        aggregation = Aggregate.enabled_default }
    in
    let d =
      Deployment.build ~config ~policy:(Classifier.create s2 rules)
        ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
    in
    List.iteri
      (fun i (ingress, lo, block) ->
        ignore
          (Deployment.inject d ~now:(float_of_int i *. 1e-3) ~ingress (h ((block * 64) + lo) 0)))
      packets;
    List.iteri
      (fun i (sw, origins) ->
        let s = Deployment.switch d sw in
        let rule =
          Rule.make ~id:(Switch.fresh_cache_id s) ~priority:0 (Pred.exact s2 (h (200 + i) 9))
            (Action.Forward 1)
        in
        let parts =
          List.map
            (fun o -> { Switch.part_origin = o; part_rank = 0; part_pred = rule.Rule.pred })
            origins
        in
        ignore
          (Switch.install_cache_meta s ~now:1. rule
             (Some { Switch.pid = -1; kind = Switch.Exact; group = None; parts })))
      extra;
    let ids = List.fold_left (fun acc id -> if List.mem id acc then acc else acc @ [ id ]) [] changed in
    let live i = not (List.mem i dead) in
    let switches = Deployment.switches d in
    Array.iter
      (fun sw ->
        List.iter
          (fun (e : Tcam.entry) ->
            let os = Switch.origins_of_cache_rule sw e.Tcam.rule.Rule.id in
            if List.length (List.filter (fun o -> List.mem o ids) os) >= 2 then incr multi)
          (Tcam.entries (Switch.cache sw)))
      switches;
    let expected = Invalidate_scan.deletes switches ~live ids in
    let got =
      List.map (fun (i, (r : Rule.t)) -> (i, r.Rule.id)) (Deployment.cache_entries_of_origins d ~live ids)
    in
    let cp = Control_plane.create d in
    got = expected
    && Control_plane.delete_cached_origins cp ~now:2. ids
       = List.length (Invalidate_scan.deletes switches ~live:(fun _ -> true) ids)
  in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 7 |])
    (QCheck2.Test.make ~count:300 ~name:"one-pass deletes = per-id walk" gen prop);
  if !multi < 50 then Alcotest.failf "coverage: only %d entries carried two changed origins" !multi

let suite =
  [
    ( "channel",
      [
        tc "latency" test_channel_latency;
        tc "order and counters" test_channel_order_and_counters;
      ] );
    ( "switch control",
      [
        tc "echo / barrier" test_handle_echo_barrier;
        tc "stats from live counters" test_handle_stats;
        tc "cache flow-mods" test_handle_flow_mod;
        tc "duplicate xids suppressed" test_xid_dedup;
        tc "straggler add merges after barrier" test_straggler_add_merges_after_barrier;
      ] );
    ( "control plane",
      [
        tc "healthy switches stay alive" test_echo_keeps_alive;
        tc "tick clock never runs back" test_tick_clock_monotone;
        tc "failure detection triggers failover" test_failure_detection_and_failover;
        tc "stats aggregate to origin rules" test_stats_aggregation;
        tc "targeted cache invalidation" test_targeted_invalidation;
        tc "one-pass invalidation = per-id walk" test_one_pass_invalidation;
        tc "control overhead counted" test_control_overhead_counted;
        tc "push deployment over channels" test_push_deployment;
        tc "pushed negative priority stays lowest" test_push_negative_priority;
        tc "partition transfer codec" test_partition_transfer_codec;
      ] );
    ( "reliability",
      [
        tc "lossy push converges exactly" test_lossy_push_converges;
        tc "crash/restart resyncs state" test_crash_restart_resync;
        tc "premature death declaration recovers" test_premature_death_recovers;
      ] );
  ]
