open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let policy =
  Classifier.of_specs s2
    [
      (30, [ ("f1", "00000001") ], Action.Drop);
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 3);
      (5, [ ("f2", "1xxxxxxx") ], Action.Forward 1);
      (0, [], Action.Drop);
    ]

(* same shape, different forwarding decisions — an observable update *)
let policy' =
  Classifier.of_specs s2
    [
      (30, [ ("f1", "00000001") ], Action.Forward 2);
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 4);
      (5, [ ("f2", "1xxxxxxx") ], Action.Drop);
      (0, [], Action.Drop);
    ]

let probes =
  let rng = Prng.create 7 in
  List.init 200 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256))

let mk ?(snapshot_every = 64) ?(events = []) () =
  let faults = Fault.plan ~seed:11 ~controllers:3 ~events () in
  let config =
    {
      Cluster.default_config with
      snapshot_every;
      cp =
        {
          Control_plane.default_config with
          echo_interval = 0.2;
          retx_timeout = 0.05;
          retx_limit = 8;
        };
    }
  in
  Cluster.create ~config ~faults
    ~dconfig:{ Deployment.default_config with k = 4; replication = 2 }
    ~policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3; 4 ] ()

(* tick to [until], running [at]-stamped actions as their time passes *)
let drive ?(actions = []) cl ~until =
  Cluster.push_deployment cl ~now:0.;
  let step = 0.02 in
  let pending = ref (List.sort (fun (a, _) (b, _) -> Float.compare a b) actions) in
  let t = ref step in
  while !t <= until do
    let now = !t in
    Cluster.tick cl ~now;
    (match !pending with
    | (at, f) :: rest when at <= now ->
        f now;
        pending := rest
    | _ -> ());
    t := !t +. step
  done

let check_invariants cl =
  check Alcotest.int "no duplicate installs" 0 (Cluster.duplicate_installs cl);
  check Alcotest.int "no stale-epoch frames accepted" 0 (Cluster.stale_accepted cl);
  check Alcotest.int "nothing pending" 0 (Cluster.pending_requests cl);
  check Alcotest.bool "deployment = policy" true
    (Deployment.semantically_equal (Cluster.deployment cl) probes)

let test_steady_state_no_takeover () =
  let cl = mk () in
  drive cl ~until:3.;
  check Alcotest.int "no takeover" 0 (Cluster.takeovers cl);
  check Alcotest.int "leader unchanged" 0 (Cluster.leader cl);
  check Alcotest.int "epoch unchanged" 1 (Cluster.epoch cl);
  check_invariants cl

let test_leader_crash_takeover () =
  let cl =
    mk ~events:[ Fault.Controller_crash { controller = 0; at = 1.0 } ] ()
  in
  drive cl ~until:4.;
  check Alcotest.int "one takeover" 1 (Cluster.takeovers cl);
  check Alcotest.int "lowest live id leads" 1 (Cluster.leader cl);
  check Alcotest.int "epoch bumped" 2 (Cluster.epoch cl);
  check Alcotest.bool "journal was replayed" true (Cluster.entries_replayed cl > 0);
  (match Cluster.takeover_latencies cl with
  | [ l ] -> check Alcotest.bool "takeover latency sane" true (l > 0. && l < 2.)
  | _ -> Alcotest.fail "expected exactly one takeover latency");
  check_invariants cl

let test_update_survives_leader_crash () =
  (* the update is journaled just before the leader dies mid-push; the
     standby's replay must land on the *new* policy *)
  let cl =
    mk ~events:[ Fault.Controller_crash { controller = 0; at = 1.06 } ] ()
  in
  drive cl ~until:4.
    ~actions:[ (1.0, fun now -> Cluster.update_policy cl ~now policy') ];
  check Alcotest.int "one takeover" 1 (Cluster.takeovers cl);
  let live = Deployment.policy (Cluster.deployment cl) in
  check Alcotest.bool "rebuilt deployment runs the updated policy" true
    (List.for_all
       (fun hd -> Classifier.action live hd = Classifier.action policy' hd)
       probes);
  check_invariants cl

let test_isolated_leader_is_fenced () =
  let cl = mk () in
  drive cl ~until:5.
    ~actions:[ (1.0, fun now -> Cluster.isolate cl ~now 0 true) ];
  check Alcotest.int "takeover happened" 1 (Cluster.takeovers cl);
  check Alcotest.int "standby 1 leads" 1 (Cluster.leader cl);
  (* the isolated leader kept mastering (echoes, retransmissions) until
     the switches' fencing deposed it *)
  check Alcotest.bool "stale master was fenced" true (Cluster.stale_rejected cl > 0);
  check_invariants cl

let test_second_takeover_replays_from_snapshot () =
  let cl =
    mk ~snapshot_every:3
      ~events:
        [
          Fault.Controller_crash { controller = 0; at = 1.0 };
          Fault.Controller_crash { controller = 1; at = 2.5 };
        ]
      ()
  in
  drive cl ~until:5.;
  check Alcotest.int "two takeovers" 2 (Cluster.takeovers cl);
  check Alcotest.int "last replica leads" 2 (Cluster.leader cl);
  check Alcotest.int "epoch 3" 3 (Cluster.epoch cl);
  check Alcotest.bool "journal was compacted" true (Cluster.snapshots cl >= 1);
  check_invariants cl

let test_seeded_run_replays_bit_identically () =
  let run () =
    let cl =
      mk ~events:[ Fault.Controller_crash { controller = 0; at = 1.0 } ] ()
    in
    drive cl ~until:4.
      ~actions:[ (0.8, fun now -> Cluster.update_policy cl ~now policy') ];
    (Bytes.to_string (Journal.encode (Cluster.journal cl)), Cluster.cluster_log cl)
  in
  let bytes1, log1 = run () in
  let bytes2, log2 = run () in
  check Alcotest.bool "journal bytes identical" true (String.equal bytes1 bytes2);
  check Alcotest.bool "event log identical" true (log1 = log2)

let suite =
  [
    ( "cluster",
      [
        tc "steady state: no election without cause" test_steady_state_no_takeover;
        tc "leader crash: standby rebuilds and takes over" test_leader_crash_takeover;
        tc "policy update survives a mid-push leader crash" test_update_survives_leader_crash;
        tc "isolated leader is epoch-fenced (split brain)" test_isolated_leader_is_fenced;
        tc "second takeover replays from the snapshot" test_second_takeover_replays_from_snapshot;
        tc "seeded run replays bit-identically" test_seeded_run_replays_bit_identically;
      ] );
  ]
