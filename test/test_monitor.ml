open Test_util

(* ---- flow records ---- *)

let h2 a b = Header.make Schema.tiny2 [| Int64.of_int a; Int64.of_int b |]

let fr_config =
  { Flow_records.sample_rate = 1; idle_timeout = 10.; active_timeout = 60.;
    max_entries = 8 }

let test_count_based_sampling () =
  let fr =
    Flow_records.create ~config:{ fr_config with Flow_records.sample_rate = 3 } ()
  in
  for i = 1 to 10 do
    Flow_records.observe fr ~now:(float_of_int i) ~ingress:0 (h2 1 1)
  done;
  check Alcotest.int "every 3rd packet" 3 (Flow_records.sampled_packets fr);
  check Alcotest.int "all observed" 10 (Flow_records.observed_packets fr);
  Flow_records.flush fr ~now:11.;
  match Flow_records.exports fr with
  | [ r ] ->
      check Alcotest.int "one flow, 3 sampled packets" 3 r.Flow_records.packets;
      check (Alcotest.float 1e-9) "first at 3rd observe" 3. r.Flow_records.first_seen;
      check (Alcotest.float 1e-9) "last at 9th observe" 9. r.Flow_records.last_seen;
      check Alcotest.bool "flush reason" true (r.Flow_records.reason = Flow_records.Flush)
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let test_idle_and_active_export () =
  let fr = Flow_records.create ~config:fr_config () in
  Flow_records.observe fr ~now:0. ~ingress:0 (h2 1 1);
  (* silence past the idle timeout: the sweep exports it *)
  Flow_records.sweep fr ~now:20.;
  (* a long-lived flow: touches every 5 s keep it alive past the active
     timeout, at which point the touch itself cuts the record *)
  let rec touch t = if t <= 65. then (Flow_records.observe fr ~now:t ~ingress:1 (h2 2 2); touch (t +. 5.)) in
  touch 0.;
  Flow_records.flush fr ~now:70.;
  match Flow_records.exports fr with
  | [ a; b; c ] ->
      check Alcotest.bool "idle reason" true (a.Flow_records.reason = Flow_records.Idle);
      check Alcotest.int "idle ingress" 0 a.Flow_records.ingress;
      check Alcotest.bool "active cut" true (b.Flow_records.reason = Flow_records.Active);
      check Alcotest.bool "remainder flushed" true
        (c.Flow_records.reason = Flow_records.Flush);
      check Alcotest.int "seqs dense" 3
        (List.length
           (List.filter
              (fun (r : Flow_records.record) ->
                r.Flow_records.seq = 0 || r.Flow_records.seq = 1 || r.Flow_records.seq = 2)
              [ a; b; c ]))
  | rs -> Alcotest.failf "expected 3 records, got %d" (List.length rs)

let test_eviction_order () =
  let fr =
    Flow_records.create ~config:{ fr_config with Flow_records.max_entries = 2 } ()
  in
  Flow_records.observe fr ~now:1. ~ingress:0 (h2 1 1);
  Flow_records.observe fr ~now:2. ~ingress:0 (h2 2 2);
  (* cache full: the third flow pushes out the longest-idle (h 1,1) *)
  Flow_records.observe fr ~now:3. ~ingress:0 (h2 3 3);
  match Flow_records.exports fr with
  | [ r ] ->
      check Alcotest.bool "evicted reason" true
        (r.Flow_records.reason = Flow_records.Evicted);
      check header "longest-idle victim" (h2 1 1) r.Flow_records.header
  | rs -> Alcotest.failf "expected 1 export, got %d" (List.length rs)

let test_flows_json_shape_and_determinism () =
  let build () =
    let fr = Flow_records.create ~config:fr_config () in
    List.iter
      (fun (t, i, a) -> Flow_records.observe fr ~now:t ~ingress:i (h2 a a))
      [ (0.1, 0, 1); (0.2, 1, 2); (0.3, 0, 1); (0.4, 2, 3); (0.5, 1, 2) ];
    Flow_records.flush fr ~now:1.;
    Flow_records.to_json fr
  in
  let j1 = build () and j2 = build () in
  check Alcotest.string "bit-identical across identical runs" j1 j2;
  check Alcotest.bool "schema tag" true
    (String.length j1 > 30 && String.sub j1 0 28 = {|{"schema":"difane-flows-v1",|});
  let contains needle =
    let n = String.length needle and m = String.length j1 in
    let rec go i = i + n <= m && (String.sub j1 i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "named header fields" true (contains {|"key":{"f1":1,"f2":1}|});
  check Alcotest.bool "reason rendered" true (contains {|"reason":"flush"|})

(* ---- sampler ---- *)

let test_sampler_boundaries_and_baseline () =
  let c = ref 100 in
  (* the reader subtracts the count at track time: the 100 must not
     show up *)
  let s = Sampler.create ~interval:1.0 () in
  let base = !c in
  Sampler.track s (fun () -> float_of_int (!c - base));
  c := !c + 5;
  Sampler.tick s ~now:2.5;
  c := !c + 7;
  Sampler.finish s ~now:2.5;
  match Sampler.series s with
  | [ sr ] ->
      let pts = sr.Sampler.points in
      check Alcotest.int "boundaries 1,2 plus the tail" 3 (Array.length pts);
      check (Alcotest.float 1e-9) "first boundary" 1.0 pts.(0).Sampler.at;
      check (Alcotest.float 1e-9) "baselined value" 5. pts.(0).Sampler.v;
      check (Alcotest.float 1e-9) "second boundary" 2.0 pts.(1).Sampler.at;
      check (Alcotest.float 1e-9) "tail at now" 2.5 pts.(2).Sampler.at;
      check (Alcotest.float 1e-9) "tail sees later adds" 12. pts.(2).Sampler.v;
      check Alcotest.int "nothing dropped" 0 sr.Sampler.dropped
  | l -> Alcotest.failf "expected 1 series, got %d" (List.length l)

let test_sampler_ring_wraparound () =
  let level = ref 0. in
  let s = Sampler.create ~capacity:4 ~interval:1.0 () in
  Sampler.track s (fun () -> !level);
  for i = 1 to 10 do
    level := float_of_int i;
    Sampler.tick s ~now:(float_of_int i)
  done;
  match Sampler.series s with
  | [ sr ] ->
      let pts = sr.Sampler.points in
      check Alcotest.int "bounded at capacity" 4 (Array.length pts);
      check Alcotest.int "dropped the overflow" 6 sr.Sampler.dropped;
      check Alcotest.bool "newest survive, oldest first" true
        (Array.to_list (Array.map (fun p -> p.Sampler.at) pts) = [ 7.; 8.; 9.; 10. ]);
      check Alcotest.bool "each point holds the level at its boundary" true
        (Array.to_list (Array.map (fun p -> p.Sampler.v) pts) = [ 7.; 8.; 9.; 10. ])
  | l -> Alcotest.failf "expected 1 series, got %d" (List.length l)

(* ---- hotspot detection ---- *)

let pts l = Array.of_list l

let test_hotspot_flags_imbalance () =
  (* two authorities; all the second window's load lands on switch 9 *)
  let series =
    [ (3, pts [ (1., 10.); (2., 20.) ]); (9, pts [ (1., 10.); (2., 60.) ]) ]
  in
  (match Hotspot.detect ~threshold:1.5 ~windows:1 series with
  | [ e ] ->
      check Alcotest.int "hot switch" 9 e.Hotspot.switch_id;
      check (Alcotest.float 1e-9) "window start" 1. e.Hotspot.window_start;
      check (Alcotest.float 1e-9) "load delta" 50. e.Hotspot.load;
      check (Alcotest.float 1e-9) "share" (50. /. 60.) e.Hotspot.share;
      check (Alcotest.float 1e-6) "ratio vs fair half" (2. *. 50. /. 60.) e.Hotspot.ratio
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es));
  (* perfectly balanced load never flags *)
  let balanced = [ (0, pts [ (1., 30.) ]); (1, pts [ (1., 30.) ]) ] in
  check Alcotest.int "balanced: none" 0
    (List.length (Hotspot.detect ~threshold:1.5 ~windows:1 balanced))

(* What the retired [min_load] floor and the rebalancer's [n >= 2] and
   [d >= 1] guards used to filter, the one rule rejects by itself. *)
let test_hotspot_idle_and_threshold () =
  let detect ?(threshold = 1.5) series = Hotspot.detect ~threshold ~windows:1 series in
  let idle = [ (0, pts [ (1., 0.); (2., 0.) ]); (1, pts [ (1., 0.); (2., 0.) ]) ] in
  check Alcotest.int "an idle window is never hot" 0 (List.length (detect idle));
  let alone = [ (0, pts [ (1., 5.); (2., 9.) ]) ] in
  check Alcotest.int "a lone authority is never hot" 0 (List.length (detect alone));
  (* a 2-packet window is still a real imbalance *)
  let tiny = [ (0, pts [ (1., 2.) ]); (1, pts [ (1., 0.) ]) ] in
  check Alcotest.int "flags the smallest imbalance" 1 (List.length (detect tiny));
  (try
     ignore (detect ~threshold:1.0 tiny);
     Alcotest.fail "threshold 1.0 accepted"
   with Invalid_argument _ -> ());
  (* worst picks the highest ratio *)
  let series =
    [ (0, pts [ (1., 9.); (2., 9.) ]); (1, pts [ (1., 1.); (2., 21.) ]) ]
  in
  match Hotspot.worst (detect ~threshold:1.2 series) with
  | Some e -> check Alcotest.int "worst is the window-2 spike" 1 e.Hotspot.switch_id
  | None -> Alcotest.fail "no events"

(* A share of exactly [threshold] x fair is not hot: 2 of 5 and 50 of 125
   misses over 3 authorities at 1.2.  Rounding makes the share test
   [load /. total > t *. (1 /. n)] flag both, and [load > t *. (total /.
   n)] flag 50 of 125. *)
let test_hotspot_boundary () =
  let hot = Hotspot.hot ~threshold:1.2 ~n:3 in
  check Alcotest.bool "2 of 5" false (hot ~total:5. 2.);
  check Alcotest.bool "50 of 125" false (hot ~total:125. 50.);
  check Alcotest.bool "51 of 125" true (hot ~total:125. 51.);
  let series =
    [ (1, pts [ (1., 50.) ]); (2, pts [ (1., 50.) ]); (3, pts [ (1., 25.) ]) ]
  in
  check Alcotest.int "detect agrees" 0 (List.length (Hotspot.detect ~threshold:1.2 ~windows:1 series));
  (* the streak counter: hot, hot, not hot, hot *)
  let s = Hotspot.streaks ~threshold:1.2 in
  let window a = Hotspot.observe s [ (1, a); (2, 10.); (3, 10.) ] in
  let streaks = List.map (fun a -> window a; Hotspot.streak s 1) [ 20.; 20.; 12.; 20. ] in
  check Alcotest.(list int) "streaks" [ 1; 2; 0; 1 ] streaks;
  Hotspot.clear s;
  check Alcotest.int "cleared" 0 (Hotspot.streak s 1);
  (* [difane monitor --quick --seed 42 --threshold 1.2]: switch 2's only
     3-window streak began in an exactly 1.20x window (50 of 125 misses,
     [0.09..0.1]) *)
  let m, _ = Experiments.E_mon.run_monitored ~seed:42 ~quick:true ~alpha:1.0 ~threshold:1.2 () in
  check Alcotest.int "no persistent hotspot" 0
    (List.length (Monitor.persistent_hotspots ~windows:3 m))

(* The rendered persistent-hotspot report of [difane monitor --quick
   --seed 42] (Zipf alpha 1.0) at thresholds where no window's share sits
   on a rounding boundary. *)
let test_persistent_report_pin () =
  List.iter
    (fun (threshold, pins) ->
      let m, _ = Experiments.E_mon.run_monitored ~seed:42 ~quick:true ~alpha:1.0 ~threshold () in
      List.iteri
        (fun i pin ->
          let windows = i + 1 in
          check Alcotest.string
            (Printf.sprintf "threshold %.1f, %d windows" threshold windows)
            pin
            (Digest.to_hex
               (Digest.string (Format.asprintf "%a" (Monitor.pp_persistent ~windows) m))))
        pins)
    [
      (1.3, [ "b3cd54ee28f06e90369e6618e00076d5"; "8c5a06a8520d57d3ff96cbe76e4de6d1"; "ed733ca2ef26bc92e3e442bfd6e3c731" ]);
      (1.5, [ "2e2100f55e7a222e981d2c4824a0307d"; "f3b4be389b21fee2811524f4a40a587e"; "ed733ca2ef26bc92e3e442bfd6e3c731" ]);
    ]

(* ---- end to end: provenance through a monitored simulation ---- *)

let monitored_setup seed =
  Telemetry.reset ();
  let rng = Prng.create seed in
  let policy =
    Policy_gen.acl (Prng.split rng)
      { Policy_gen.default_acl with Policy_gen.rules = 60; chains = 10 }
  in
  let config =
    { Deployment.default_config with Deployment.k = 4; cache_capacity = 32 }
  in
  let d =
    Deployment.build ~config ~policy ~topology:(Topology.star 4 ())
      ~authority_ids:[ 1; 2 ] ()
  in
  let profile =
    {
      Traffic.default with
      Traffic.flows = 1_500;
      rate = 20_000.;
      alpha = 1.2;
      distinct_headers = 300;
      packets_per_flow_mean = 2.0;
      ingresses = [ 3 ];
    }
  in
  (d, Traffic.generate (Prng.create (seed + 1)) policy profile)

let monitor_config = { Monitor.default_config with Monitor.interval = 0.01 }

let monitored_run seed =
  let d, flows = monitored_setup seed in
  let m = Monitor.create ~config:monitor_config d in
  let r = Flowsim.run { Flowsim.Config.default with monitor = Some m } d flows in
  (d, m, r)

let test_monitored_sim_provenance () =
  let d, m, r = monitored_run 11 in
  check Alcotest.bool "packets flowed" true (r.Flowsim.delivered_packets > 0);
  (* every installed cache rule carries a full provenance pair that
     resolves to a real policy rule and a real partition *)
  let policy_ids =
    List.map (fun (ru : Rule.t) -> ru.Rule.id) (Classifier.rules (Deployment.policy d))
  in
  let pids =
    List.map
      (fun (p : Partitioner.partition) -> p.Partitioner.pid)
      (Deployment.partitioner d).Partitioner.partitions
  in
  Array.iter
    (fun sw ->
      List.iter
        (fun (e : Tcam.entry) ->
          match Switch.provenance_of_cache_rule sw e.Tcam.rule.Rule.id with
          | None -> Alcotest.fail "cache rule without provenance"
          | Some (origin, pid) ->
              check Alcotest.bool "origin is a policy rule" true
                (List.mem origin policy_ids);
              check Alcotest.bool "pid is a real partition" true (List.mem pid pids))
        (Tcam.entries (Switch.cache sw)))
    (Deployment.switches d);
  (* per-region cache hits add up to each switch's cache-hit total *)
  Array.iter
    (fun sw ->
      let by_pid =
        List.fold_left (fun acc (_, n) -> Int64.add acc n) 0L (Switch.cache_load sw)
      in
      check Alcotest.int64 "cache_load sums to stats.cache_hits"
        (Switch.stats sw).Switch.cache_hits by_pid)
    (Deployment.switches d);
  (* attribution found the traffic: some rule accounts for hits, and the
     heavy hitters carry non-empty provenance chains *)
  match Monitor.heavy_hitters ~k:3 m with
  | [] -> Alcotest.fail "no heavy hitters on a live workload"
  | hh ->
      List.iter
        (fun (h : Monitor.rule_report) ->
          check Alcotest.bool "chain non-empty" true (h.Monitor.partitions <> []);
          check Alcotest.bool "counted hits" true (Monitor.rule_total h > 0L))
        hh

let test_monitored_sim_deterministic_json () =
  let _, m1, _ = monitored_run 23 in
  let f1 = Flow_records.to_json (Monitor.flow_records m1) in
  let j1 = Monitor.to_json m1 in
  let _, m2, _ = monitored_run 23 in
  check Alcotest.string "flow export bit-identical" f1
    (Flow_records.to_json (Monitor.flow_records m2));
  check Alcotest.string "monitor report bit-identical" j1 (Monitor.to_json m2);
  check Alcotest.bool "monitor schema tag" true
    (String.sub j1 0 30 = {|{"schema":"difane-monitor-v1",|})

(* The load timeline reads the switches: each authority's last point is
   the misses it served after the monitor was created, so a warm-up run
   before [Monitor.create] stays out of it. *)
let test_monitor_series_follow_switches () =
  let d, flows = monitored_setup 11 in
  ignore (Flowsim.run Flowsim.Config.default d flows);
  let served () =
    List.map
      (fun id ->
        (id, Int64.to_float (Switch.stats (Deployment.switch d id)).Switch.authority_hits))
      (List.sort Int.compare (Deployment.authority_ids d))
  in
  let before = served () in
  let m = Monitor.create ~config:monitor_config d in
  ignore (Flowsim.run { Flowsim.Config.default with monitor = Some m } d flows);
  let gained = List.map2 (fun (id, b) (_, a) -> (id, a -. b)) before (served ()) in
  check Alcotest.bool "the warm-up served misses" true (List.exists (fun (_, v) -> v > 0.) before);
  check Alcotest.bool "the monitored run served misses" true
    (List.exists (fun (_, v) -> v > 0.) gained);
  check
    Alcotest.(list (pair int (float 0.)))
    "last point = misses served in the run" gained
    (List.map
       (fun (id, (pts : Sampler.point array)) -> (id, pts.(Array.length pts - 1).Sampler.v))
       (Monitor.authority_series m))

let suite =
  [
    ( "monitor",
      [
        tc "count-based sampling" test_count_based_sampling;
        tc "idle and active export" test_idle_and_active_export;
        tc "eviction order" test_eviction_order;
        tc "flows json shape + determinism" test_flows_json_shape_and_determinism;
        tc "sampler boundaries + baseline" test_sampler_boundaries_and_baseline;
        tc "sampler ring wraparound" test_sampler_ring_wraparound;
        tc "hotspot flags imbalance" test_hotspot_flags_imbalance;
        tc "hotspot idle + threshold" test_hotspot_idle_and_threshold;
        tc "hotspot rule boundary" test_hotspot_boundary;
        tc "persistent report pin" test_persistent_report_pin;
        tc "monitored sim provenance" test_monitored_sim_provenance;
        tc "monitored sim deterministic json" test_monitored_sim_deterministic_json;
        tc "monitor series follow the switches" test_monitor_series_follow_switches;
      ] );
  ]
