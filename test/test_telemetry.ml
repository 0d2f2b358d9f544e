(* The telemetry registry, plus the no-drift contract:
   the process-wide registry must agree with the legacy per-module
   accessors it mirrors, because both are bumped on the same line. *)

open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

(* Every test that reads absolute registry values resets first: the
   registry is process-wide and the suite shares one process. *)

(* --- registry semantics --- *)

let test_counter_identity () =
  Telemetry.reset ();
  let a = Telemetry.counter "t_requests" ~labels:[ ("sw", "1"); ("dir", "in") ] in
  (* same name, same labels in a different order: the same cell *)
  let b = Telemetry.counter "t_requests" ~labels:[ ("dir", "in"); ("sw", "1") ] in
  Telemetry.incr a;
  Telemetry.add b 2;
  check Alcotest.int "one shared cell" 3 (Telemetry.value a);
  (* different labels: a distinct cell *)
  let c = Telemetry.counter "t_requests" ~labels:[ ("sw", "2"); ("dir", "in") ] in
  check Alcotest.int "distinct label set" 0 (Telemetry.value c)

let test_kind_mismatch_raises () =
  Telemetry.reset ();
  ignore (Telemetry.counter "t_kind_clash");
  check Alcotest.bool "gauge under a counter name raises" true
    (try
       ignore (Telemetry.gauge "t_kind_clash");
       false
     with Invalid_argument _ -> true)

let test_snapshot_deterministic () =
  Telemetry.reset ();
  (* register in scrambled order; snapshots must sort by (name, labels)
     and two identical histories must render byte-identically *)
  (* reset keeps registrations, so earlier tests' "t_" cells survive:
     use a prefix unique to this test *)
  ignore (Telemetry.counter "td_zz");
  ignore (Telemetry.counter "td_aa" ~labels:[ ("k", "2") ]);
  ignore (Telemetry.counter "td_aa" ~labels:[ ("k", "1") ]);
  ignore (Telemetry.gauge "td_mm");
  let names =
    List.map
      (fun (s : Telemetry.sample) -> (s.Telemetry.name, s.Telemetry.labels))
      (List.filter
         (fun (s : Telemetry.sample) ->
           String.length s.Telemetry.name > 3 && String.sub s.Telemetry.name 0 3 = "td_")
         (Telemetry.snapshot ()))
  in
  check Alcotest.bool "sorted by (name, labels)" true
    (names
    = [
        ("td_aa", [ ("k", "1") ]);
        ("td_aa", [ ("k", "2") ]);
        ("td_mm", []);
        ("td_zz", []);
      ]);
  let r1 = Format.asprintf "%a" Telemetry.pp_text (Telemetry.snapshot ()) in
  let r2 = Format.asprintf "%a" Telemetry.pp_text (Telemetry.snapshot ()) in
  check Alcotest.bool "text render is stable" true (r1 = r2)

let test_histogram_bucketing () =
  Telemetry.reset ();
  let hst = Telemetry.histogram "t_lat" ~buckets:[| 0.001; 0.01; 0.1 |] in
  List.iter (Telemetry.observe hst) [ 0.0005; 0.001; 0.002; 0.05; 99. ];
  let count, sum = histogram_count_sum "t_lat" in
  check Alcotest.int "count" 5 count;
  check (Alcotest.float 1e-9) "sum" 99.0535 sum;
  match Telemetry.find (Telemetry.snapshot ()) "t_lat" with
  | Some (Telemetry.Histogram { buckets; count; _ }) ->
      check Alcotest.int "snapshot count" 5 count;
      (* cumulative: <=0.001 holds 2 (bound is inclusive), <=0.01 adds
         0.002, <=0.1 adds 0.05, +inf catches 99 *)
      check Alcotest.bool "cumulative bucket counts" true
        (List.map snd buckets = [ 2; 3; 4; 5 ]);
      check Alcotest.bool "last bound is +inf" true
        (List.nth buckets 3 |> fst |> Float.is_integer |> not
        || fst (List.nth buckets 3) = infinity)
  | _ -> Alcotest.fail "histogram sample missing"

let test_histogram_bad_buckets () =
  Telemetry.reset ();
  check Alcotest.bool "unsorted bounds raise" true
    (try
       ignore (Telemetry.histogram "t_bad" ~buckets:[| 2.0; 1.0 |]);
       false
     with Invalid_argument _ -> true)

let test_reset_zeroes_but_keeps_registration () =
  Telemetry.reset ();
  let c = Telemetry.counter "t_reset_me" in
  let g = Telemetry.gauge "t_reset_g" in
  Telemetry.add c 7;
  Telemetry.set g 3.5;
  Telemetry.reset ();
  check Alcotest.int "counter zeroed" 0 (Telemetry.value c);
  check (Alcotest.float 0.) "gauge zeroed" 0. (gauge_value "t_reset_g");
  (* the handle survives and keeps pointing at the registered cell *)
  Telemetry.incr c;
  check Alcotest.int "handle still live after reset" 1
    (Telemetry.counter_total (Telemetry.snapshot ()) "t_reset_me")

let test_json_shape () =
  Telemetry.reset ();
  let c = Telemetry.counter "t_json" ~labels:[ ("a", "b\"c") ] in
  Telemetry.add c 5;
  ignore (Telemetry.histogram "t_json_h" ~buckets:[| 1.0 |]);
  let j = Telemetry.to_json (Telemetry.snapshot ()) in
  let contains needle =
    let n = String.length needle and m = String.length j in
    let rec go i = i + n <= m && (String.sub j i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "schema header" true
    (String.length j > 40 && String.sub j 0 33 = {|{"schema":"difane-metrics-v1","me|});
  check Alcotest.bool "escaped label value" true (contains {|"a":"b\"c"|});
  check Alcotest.bool "counter sample" true
    (contains {|{"name":"t_json","labels":{"a":"b\"c"},"type":"counter","value":5}|});
  check Alcotest.bool "+inf bound stringified" true (contains {|"le":"+inf"|});
  check Alcotest.bool "document closes" true (String.sub j (String.length j - 2) 2 = "]}")

(* nan has no JSON spelling: a renderer printing it raw (e.g. a fresh
   TCAM's hit_rate before any lookup) produces an unparseable document.
   Every float escape hatch must map it to null. *)
let test_json_nan_safety () =
  check Alcotest.string "nan -> null" "null" (Telemetry.json_float Float.nan);
  check Alcotest.string "+inf -> string" {|"+inf"|} (Telemetry.json_float infinity);
  check Alcotest.string "-inf -> string" {|"-inf"|} (Telemetry.json_float neg_infinity);
  check Alcotest.string "finite untouched" "0.5" (Telemetry.json_float 0.5);
  check Alcotest.string "fresh hit_rate renders null" "null"
    (Telemetry.json_float (Tcam.hit_rate (Tcam.create ~capacity:4)));
  Telemetry.reset ();
  let g = Telemetry.gauge "t_undefined_gauge" in
  Telemetry.set g Float.nan;
  let j = Telemetry.to_json (Telemetry.snapshot ()) in
  let contains needle =
    let n = String.length needle and m = String.length j in
    let rec go i = i + n <= m && (String.sub j i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "nan gauge -> null in --metrics json" true
    (contains {|{"name":"t_undefined_gauge","type":"gauge","value":null}|});
  check Alcotest.bool "no bare nan token" false (contains "nan")

(* --- integration: registry vs the legacy accessors it mirrors --- *)

let sim_policy =
  Classifier.of_specs s2
    [ (1, [ ("f1", "0xxxxxxx") ], Action.Forward 2); (0, [], Action.Drop) ]

let test_flowsim_agrees_with_registry () =
  Telemetry.reset ();
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with cache_capacity = 64; k = 4 }
      ~policy:sim_policy ~topology:(Topology.line 4 ()) ~authority_ids:[ 1 ] ()
  in
  let rng = Prng.create 7 in
  let flows =
    List.init 500 (fun i ->
        {
          Traffic.flow_id = i;
          header = h (Prng.int rng 256) (Prng.int rng 256);
          ingress = 0;
          start = float_of_int i *. 1e-4;
          packets = 2;
          interval = 1e-4;
        })
  in
  let r = Flowsim.run Flowsim.Config.default d flows in
  let snap = Telemetry.snapshot () in
  let total name = Telemetry.counter_total snap name in
  check Alcotest.int "delivered packets" r.Flowsim.delivered_packets
    (total "sim_packets_delivered");
  check Alcotest.int "cache hits" r.Flowsim.cache_hit_packets (total "sim_cache_hit_packets");
  check Alcotest.int "completed flows" r.Flowsim.completed_flows (total "sim_flows_completed");
  check Alcotest.int "dropped flows" r.Flowsim.dropped_flows (total "sim_flows_dropped");
  (* per-switch labelled counters sum to the per-object stats *)
  let switches = Deployment.switches d in
  let sum f =
    Array.fold_left (fun acc sw -> Int64.add acc (f (Switch.stats sw))) 0L switches
    |> Int64.to_int
  in
  check Alcotest.int "switch cache hits" (sum (fun s -> s.Switch.cache_hits))
    (total "switch_cache_hits");
  check Alcotest.int "switch authority hits" (sum (fun s -> s.Switch.authority_hits))
    (total "switch_authority_hits");
  check Alcotest.int "switch tunnelled" (sum (fun s -> s.Switch.tunnelled))
    (total "switch_tunnelled");
  (* TCAM totals across all cache banks *)
  let tcam f =
    Array.fold_left
      (fun acc sw ->
        let s = Tcam.stats (Switch.cache sw) in
        Int64.add acc (f s))
      0L switches
    |> Int64.to_int
  in
  check Alcotest.int "tcam hits" (tcam (fun s -> s.Tcam.hits)) (total "tcam_hits");
  check Alcotest.int "tcam misses" (tcam (fun s -> s.Tcam.misses)) (total "tcam_misses");
  check Alcotest.int "tcam inserts" (tcam (fun s -> s.Tcam.inserts)) (total "tcam_inserts");
  (* the authority_stat record is consistent with itself *)
  List.iter
    (fun (a : Flowsim.authority_stat) ->
      check Alcotest.bool "authority stat sane" true
        (a.Flowsim.misses_served >= 0 && a.Flowsim.misses_rejected >= 0))
    r.Flowsim.authority_stats;
  (* the first-packet-delay histogram saw every completed flow *)
  match Telemetry.find snap "sim_first_packet_delay" with
  | Some (Telemetry.Histogram { count; _ }) ->
      check Alcotest.int "histogram count = completions" r.Flowsim.completed_flows count
  | _ -> Alcotest.fail "first-packet histogram missing"

let test_lossy_push_agrees_with_registry () =
  Telemetry.reset ();
  let d =
    Deployment.build ~install:false
      ~config:{ Deployment.default_config with replication = 2; k = 4 }
      ~policy:sim_policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
  in
  let faults = Fault.plan ~seed:11 ~link:(Fault.lossy_link ~jitter:2e-3 0.25) () in
  let cp =
    Control_plane.create
      ~config:{ Control_plane.default_config with retx_timeout = 0.02 }
      ~faults d
  in
  Control_plane.push_deployment cp ~now:0.;
  let t = ref 0.005 in
  while !t <= 3. do
    Control_plane.tick cp ~now:!t;
    t := !t +. 0.005
  done;
  let s = Control_plane.stats cp in
  let snap = Telemetry.snapshot () in
  let total name = Telemetry.counter_total snap name in
  check Alcotest.bool "channel really was lossy" true (s.Control_plane.dropped > 0);
  check Alcotest.int "dropped" s.Control_plane.dropped (total "channel_dropped");
  check Alcotest.int "duplicated" s.Control_plane.duplicated (total "channel_duplicated");
  check Alcotest.int "corrupted" s.Control_plane.corrupted (total "channel_corrupted");
  check Alcotest.int "decode errors" s.Control_plane.decode_errors
    (total "channel_decode_errors");
  check Alcotest.int "link dropped" s.Control_plane.link_dropped (total "ctrl_link_dropped");
  check Alcotest.int "retransmissions" (Control_plane.retransmissions cp)
    (total "ctrl_retransmissions");
  check Alcotest.int "giveups" (Control_plane.giveups cp) (total "ctrl_giveups");
  check Alcotest.int "frames" (Control_plane.control_frames cp) (total "channel_frames");
  check Alcotest.int "bytes" (Control_plane.control_bytes cp) (total "channel_bytes")

let test_rebalance_counters_shape () =
  Telemetry.reset ();
  let policy =
    Policy_gen.acl (Prng.create 21) { Policy_gen.default_acl with rules = 120; chains = 20 }
  in
  let d =
    Deployment.build
      ~config:
        { Deployment.default_config with k = 4; replication = 2; cache_capacity = 0 }
      ~policy ~topology:(Topology.star 6 ()) ~authority_ids:[ 1; 2; 3 ] ()
  in
  let cp =
    Control_plane.create
      ~config:
        {
          Control_plane.default_config with
          retx_timeout = 0.05;
          rebalance_interval = Some 0.1;
          hotspot_threshold = 1.5;
          hotspot_window = 2;
          migration_step = 0.05;
        }
      d
  in
  (* hammer one partition's region so the hotspot detector trips *)
  let hot = List.hd (Deployment.partitioner d).Partitioner.partitions in
  let headers = Traffic.headers_for (Prng.create 5) hot.Partitioner.table 64 in
  let i = ref 0 in
  let t = ref 0.02 in
  while !t <= 1.5 do
    for _ = 1 to 10 do
      ignore (Deployment.inject d ~now:!t ~ingress:4 headers.(!i mod Array.length headers));
      incr i
    done;
    Control_plane.tick cp ~now:!t;
    t := !t +. 0.02
  done;
  check Alcotest.bool "a migration ran" true (Control_plane.migrations_started cp >= 1);
  let snap = Telemetry.snapshot () in
  let total name = Telemetry.counter_total snap name in
  check Alcotest.int "started mirrors registry" (Control_plane.migrations_started cp)
    (total "rebalance_migrations_started");
  check Alcotest.int "committed mirrors registry" (Control_plane.migrations_committed cp)
    (total "rebalance_migrations_committed");
  check Alcotest.int "aborted mirrors registry" (Control_plane.migrations_aborted cp)
    (total "rebalance_migrations_aborted");
  check Alcotest.int "rules moved mirrors registry" (Control_plane.rules_moved cp)
    (total "rebalance_rules_moved");
  check Alcotest.bool "rules actually moved" true (Control_plane.rules_moved cp > 0);
  (* every rebalance_* cell is registered and renders through the
     standard snapshot/JSON path *)
  List.iter
    (fun name ->
      match Telemetry.find snap name with
      | Some (Telemetry.Counter _) -> ()
      | _ -> Alcotest.failf "%s missing from the snapshot or not a counter" name)
    [
      "rebalance_migrations_started";
      "rebalance_migrations_committed";
      "rebalance_migrations_aborted";
      "rebalance_rules_moved";
      "rebalance_windows_to_recovery";
    ]

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "counter identity & labels" `Quick test_counter_identity;
        Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch_raises;
        Alcotest.test_case "snapshot deterministic" `Quick test_snapshot_deterministic;
        Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
        Alcotest.test_case "histogram bad buckets" `Quick test_histogram_bad_buckets;
        Alcotest.test_case "reset zeroes, keeps registration" `Quick
          test_reset_zeroes_but_keeps_registration;
        Alcotest.test_case "json shape" `Quick test_json_shape;
        Alcotest.test_case "json nan safety" `Quick test_json_nan_safety;
      ] );
    ( "telemetry-integration",
      [
        Alcotest.test_case "flowsim registry = legacy counters" `Quick
          test_flowsim_agrees_with_registry;
        Alcotest.test_case "lossy push registry = legacy counters" `Quick
          test_lossy_push_agrees_with_registry;
        Alcotest.test_case "rebalance counters registry = legacy counters" `Quick
          test_rebalance_counters_shape;
      ] );
  ]
