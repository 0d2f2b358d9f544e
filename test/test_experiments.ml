(* Smoke + shape tests for the experiment drivers: every driver must run
   in quick mode, be deterministic in its seed, and reproduce the paper's
   qualitative result ("who wins, roughly by how much"). *)

open Test_util

let seed = 7

let test_t1 () =
  let rows = Experiments.T1.run ~seed ~quick:true () in
  check Alcotest.int "five rule sets" 5 (List.length rows);
  List.iter
    (fun (r : Experiments.T1.row) ->
      check Alcotest.bool "rules positive" true (r.rules > 0);
      check Alcotest.bool "depth >= 1" true (r.depth >= 1))
    rows;
  (* deeper ACL really is deeper *)
  let depth label =
    (List.find (fun (r : Experiments.T1.row) -> r.label = label) rows).Experiments.T1.depth
  in
  check Alcotest.bool "acl-deep deeper than acl-small" true
    (depth "acl-deep" > depth "acl-small")

let test_t1_deterministic () =
  let a = Experiments.T1.run ~seed ~quick:true () in
  let b = Experiments.T1.run ~seed ~quick:true () in
  check Alcotest.bool "same rows" true (a = b)

let test_tput_shape () =
  let points = Experiments.F_tput.run ~seed ~quick:true () in
  (* at the highest offered rate DIFANE must beat NOX by a wide margin *)
  let last = List.nth points (List.length points - 1) in
  check Alcotest.bool "DIFANE >= 3x NOX at saturation" true
    (last.Experiments.F_tput.difane.Flowsim.setup_throughput
     >= 3. *. last.Experiments.F_tput.nox.Flowsim.setup_throughput);
  (* NOX saturates near its controller capacity *)
  let nox_capacity = 1. /. Flowsim.default_timing.Flowsim.controller_service in
  check Alcotest.bool "NOX capped by controller" true
    (last.Experiments.F_tput.nox.Flowsim.setup_throughput < 1.2 *. nox_capacity)

let test_scale_linear () =
  let points = Experiments.F_scale.run ~seed ~quick:true () in
  match points with
  | p1 :: rest ->
      List.iter
        (fun (p : Experiments.F_scale.point) ->
          let expected =
            p1.Experiments.F_scale.throughput *. float_of_int p.authority_switches
          in
          if Float.abs (p.throughput -. expected) /. expected > 0.2 then
            Alcotest.failf "scaling not linear: %d switches -> %.0f (expected %.0f)"
              p.authority_switches p.throughput expected)
        rest
  | [] -> Alcotest.fail "no points"

let test_delay_gap () =
  let t = Experiments.F_delay.run ~seed ~quick:true () in
  check Alcotest.bool "NOX at least 10x slower" true (t.Experiments.F_delay.ratio > 10.);
  check Alcotest.bool "DIFANE sub-millisecond" true (t.Experiments.F_delay.difane_median < 1e-3)

let test_partition_shape () =
  let points = Experiments.F_part.run ~seed ~quick:true () in
  (* per-switch max falls with k; duplication stays bounded *)
  let by_label l =
    List.filter (fun (p : Experiments.F_part.point) -> p.label = l) points
  in
  List.iter
    (fun label ->
      match by_label label with
      | [] -> Alcotest.failf "no points for %s" label
      | ps ->
          let sorted =
            List.sort (fun (a : Experiments.F_part.point) b -> Int.compare a.k b.k) ps
          in
          let first = List.hd sorted and last = List.nth sorted (List.length sorted - 1) in
          check Alcotest.bool (label ^ ": max shrinks") true
            (last.Experiments.F_part.max_entries <= first.Experiments.F_part.max_entries);
          check Alcotest.bool (label ^ ": duplication bounded") true
            (last.Experiments.F_part.duplication < 2.5))
    [ "acl-small"; "prefix-5k" ]

let test_miss_shape () =
  let points = Experiments.F_miss.run ~seed ~quick:true () in
  (* wildcard caching never loses to microflow caching, and wins clearly
     at the largest cache size *)
  List.iter
    (fun (p : Experiments.F_miss.point) ->
      check Alcotest.bool "wildcard <= microflow" true
        (p.wildcard_miss_rate <= p.microflow_miss_rate +. 1e-9);
      check Alcotest.bool "OPT is a floor" true
        (p.wildcard_opt_miss_rate <= p.wildcard_miss_rate +. 1e-9))
    points;
  let biggest =
    List.fold_left
      (fun (acc : Experiments.F_miss.point) p ->
        if p.Experiments.F_miss.cache_size > acc.cache_size then p else acc)
      (List.hd points) points
  in
  check Alcotest.bool "clear win at large cache" true
    (biggest.microflow_miss_rate > 1.5 *. biggest.wildcard_miss_rate)

let test_stretch_shape () =
  let series = Experiments.F_stretch.run ~seed ~quick:true () in
  check Alcotest.int "five placements" 5 (List.length series);
  let mean name =
    (List.find (fun (s : Experiments.F_stretch.series) -> s.placement = name) series)
      .Experiments.F_stretch.mean
  in
  (* informed placement beats random *)
  check Alcotest.bool "centroid <= random" true (mean "centroid" <= mean "random");
  (* proximity-aware tunnelling to replicated authorities beats every
     primary-only placement *)
  check Alcotest.bool "nearest-replica wins" true
    (mean "k-median+nearest" <= mean "centroid" +. 1e-9);

  List.iter
    (fun (s : Experiments.F_stretch.series) ->
      check Alcotest.bool "stretch >= 1" true (Cdf.inverse s.stretch 0.01 >= 1.0 -. 1e-9))
    series

let test_dyn_shape () =
  let points = Experiments.F_dyn.run ~seed ~quick:true () in
  let strict =
    List.find
      (fun (p : Experiments.F_dyn.point) -> p.mode = Experiments.F_dyn.Strict_flush)
      points
  in
  check Alcotest.int "strict flush has no stale packets" 0
    strict.Experiments.F_dyn.stale_packets;
  let targeted =
    List.find
      (fun (p : Experiments.F_dyn.point) -> p.mode = Experiments.F_dyn.Targeted)
      points
  in
  check Alcotest.int "targeted invalidation has no stale packets" 0
    targeted.Experiments.F_dyn.stale_packets;
  let lazies =
    List.filter
      (fun (p : Experiments.F_dyn.point) -> p.mode = Experiments.F_dyn.Lazy_expiry)
      points
  in
  List.iter
    (fun (p : Experiments.F_dyn.point) ->
      (* staleness is bounded by the hard timeout (plus one sweep period) *)
      check Alcotest.bool "stale window bounded by timeout" true
        (p.stale_window <= p.timeout +. (p.timeout /. 4.) +. 1e-6))
    lazies

let test_ablation_cut () =
  let points = Experiments.A_cut.run ~seed ~quick:true () in
  List.iter
    (fun (p : Experiments.A_cut.point) ->
      check Alcotest.bool "best-cut beats the poor fixed dimension" true
        (p.best_max <= p.proto_max && p.best_total <= p.proto_total))
    points

let test_ablation_splice () =
  let t = Experiments.A_splice.run ~seed ~quick:true () in
  check (Alcotest.float 1e-9) "splicing installs one entry" 1.0
    t.Experiments.A_splice.splice_mean;
  check Alcotest.bool "dependent sets cost more" true
    (t.Experiments.A_splice.dependent_mean > 1.5)

let test_control_overhead () =
  let rows = Experiments.E_ctrl.run ~seed ~quick:true () in
  check Alcotest.int "three scenarios" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.E_ctrl.row) ->
      check Alcotest.bool "frames positive" true (r.frames > 0);
      check Alcotest.bool "bytes > frames (16-byte headers)" true (r.bytes > r.frames))
    rows

let test_cache_sweep () =
  let points = Experiments.E_cache.run ~seed ~quick:true () in
  (* bigger caches absorb more traffic *)
  let sorted =
    List.sort
      (fun (a : Experiments.E_cache.point) b -> Int.compare a.cache_size b.cache_size)
      points
  in
  let rec monotone = function
    | (a : Experiments.E_cache.point) :: (b :: _ as rest) ->
        if a.hit_rate > b.hit_rate +. 0.02 then
          Alcotest.failf "hit rate fell from %f to %f" a.hit_rate b.hit_rate
        else monotone rest
    | _ -> ()
  in
  monotone sorted;
  List.iter
    (fun (p : Experiments.E_cache.point) ->
      check (Alcotest.float 1e-9) "hit + authority = 1" 1. (p.hit_rate +. p.authority_load))
    points

(* --- the gate rules that used to live in the CLI, one crafted row per
   rule: each broken invariant must yield exactly its own failure --- *)

let chaos_green =
  {
    Experiments.E_chaos.loss = 0.10;
    dropped = 40;
    corrupted = 5;
    decode_errors = 5;
    retransmissions = 26;
    giveups = 0;
    detect_time = 2.0;
    converge_time = 0.5;
    degraded = 35;
    recovered = true;
    replay_identical = true;
  }

let ha_green =
  {
    Experiments.E_ha.loss = 0.10;
    dropped = 92;
    retransmissions = 210;
    giveups = 0;
    takeover1 = 0.38;
    takeover2 = 0.38;
    replayed = 16;
    snapshots = 1;
    dup_installs = 0;
    stale_rejected = 6;
    stale_accepted = 0;
    fenced_appends = 0;
    degraded = 96;
    recovered = true;
    replay_identical = true;
  }

let failures = Alcotest.(list string)

let test_chaos_check_rules () =
  let c = Experiments.E_chaos.check in
  check failures "green row" [] (c [ chaos_green ]);
  check failures "give-ups" [ "2 give-ups at 10.0% loss" ]
    (c [ { chaos_green with giveups = 2 } ]);
  check failures "not recovered" [ "did not recover at 10.0% loss" ]
    (c [ { chaos_green with recovered = false } ]);
  check failures "replay diverged" [ "replay diverged at 10.0% loss" ]
    (c [ { chaos_green with replay_identical = false } ]);
  check failures "one failure per broken row" [ "did not recover at 20.0% loss" ]
    (c [ chaos_green; { chaos_green with loss = 0.20; recovered = false } ])

let test_ha_check_rules () =
  let c = Experiments.E_ha.check in
  check failures "green row" [] (c [ ha_green ]);
  check failures "give-ups" [ "1 give-ups at 10.0% loss" ]
    (c [ { ha_green with giveups = 1 } ]);
  check failures "duplicate installs" [ "3 duplicate installs at 10.0% loss" ]
    (c [ { ha_green with dup_installs = 3 } ]);
  check failures "stale-epoch acceptances" [ "2 stale-epoch frames accepted at 10.0% loss" ]
    (c [ { ha_green with stale_accepted = 2 } ]);
  check failures "not recovered" [ "did not recover at 10.0% loss" ]
    (c [ { ha_green with recovered = false } ]);
  check failures "replay diverged" [ "replay diverged at 10.0% loss" ]
    (c [ { ha_green with replay_identical = false } ])

(* --- the gate harness --- *)

let fake_gate run =
  { Experiments.name = "fake"; doc = "crafted"; gate = Some run; replay = None }

let run_fake run =
  Experiments.run_gate ~print:ignore (fake_gate run) ~seed ~quick:true ~domains:4

let test_harness_passes_green () =
  let calls = ref [] in
  let fs =
    run_fake (fun ~seed:_ ~quick:_ ~domains ->
        calls := domains :: !calls;
        { Experiments.report = ""; failures = []; fingerprint = "same" })
  in
  check failures "green gate" [] fs;
  check Alcotest.(list int) "runs at one domain, then at --domains" [ 1; 4 ]
    (List.rev !calls)

let test_harness_fingerprint_divergence () =
  let fs =
    run_fake (fun ~seed:_ ~quick:_ ~domains ->
        { Experiments.report = ""; failures = []; fingerprint = string_of_int domains })
  in
  check failures "divergence is a failure"
    [ "fingerprint diverged: 1 at domains 1, 4 at domains 4" ] fs

let test_harness_reports_failures () =
  let fs =
    run_fake (fun ~seed:_ ~quick:_ ~domains ->
        {
          Experiments.report = "";
          failures = (if domains = 1 then [ "broken" ] else [ "broken"; "sharded only" ]);
          fingerprint = "same";
        })
  in
  check failures "both runs' failures, once each" [ "broken"; "sharded only" ] fs

let test_harness_rejects_non_gate () =
  let mon =
    List.find (fun (s : Experiments.scenario) -> s.name = "mon") Experiments.scenarios
  in
  match Experiments.run_gate ~print:ignore mon ~seed ~quick:true ~domains:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ran a scenario without a gate"

let gate_names () =
  List.filter_map
    (fun (s : Experiments.scenario) -> Option.map (fun _ -> s.name) s.gate)
    Experiments.scenarios

let test_gate_table () =
  check Alcotest.(list string) "the CI matrix"
    [ "chaos"; "ha"; "incast"; "rebalance"; "scale"; "paths-chaos"; "paths-rebalance";
      "paths-scale"; "aggregate"; "monitor" ]
    (gate_names ());
  let names = List.map (fun (s : Experiments.scenario) -> s.name) Experiments.scenarios in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* Every gate holds at quick size, sharded scenarios across two domains. *)
let test_every_gate_holds_quick () =
  List.iter
    (fun (s : Experiments.scenario) ->
      if Option.is_some s.gate then
        check failures s.name []
          (Experiments.run_gate ~print:ignore s ~seed:42 ~quick:true ~domains:2))
    Experiments.scenarios

let suite =
  [
    ( "gates",
      [
        tc "chaos rules" test_chaos_check_rules;
        tc "ha rules" test_ha_check_rules;
        tc "harness passes a green gate" test_harness_passes_green;
        tc "harness fails on fingerprint divergence" test_harness_fingerprint_divergence;
        tc "harness fails on reported failures" test_harness_reports_failures;
        tc "harness rejects a replay-only scenario" test_harness_rejects_non_gate;
        tc "gate table" test_gate_table;
        tc "every gate holds at quick size" test_every_gate_holds_quick;
      ] );
    ( "experiments",
      [
        tc "table 1" test_t1;
        tc "table 1 deterministic" test_t1_deterministic;
        tc "throughput shape" test_tput_shape;
        tc "scaling linear" test_scale_linear;
        tc "delay gap" test_delay_gap;
        tc "partitioning shape" test_partition_shape;
        tc "miss-rate shape" test_miss_shape;
        tc "stretch shape" test_stretch_shape;
        tc "dynamics shape" test_dyn_shape;
        tc "cut ablation" test_ablation_cut;
        tc "splice ablation" test_ablation_splice;
        tc "control overhead" test_control_overhead;
        tc "cache sweep" test_cache_sweep;
      ] );
  ]
