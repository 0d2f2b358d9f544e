open Test_util

(* --- engine --- *)

let test_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:3. (fun () -> log := 3 :: !log);
  Engine.schedule e ~at:1. (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:2. (fun () -> log := 2 :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 3. (Engine.now e)

let test_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:1. (fun () -> log := i :: !log)
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO among equal times"
    (List.init 10 (fun i -> i))
    (List.rev !log)

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:1. (fun () ->
      log := "a" :: !log;
      Engine.after e ~delay:0.5 (fun () -> log := "b" :: !log));
  Engine.schedule e ~at:2. (fun () -> log := "c" :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.string) "interleaved" [ "a"; "b"; "c" ] (List.rev !log)

let test_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5. (fun () -> ());
  Engine.run e;
  (try
     Engine.schedule e ~at:1. (fun () -> ());
     Alcotest.fail "past event accepted"
   with Invalid_argument _ -> ());
  try
    Engine.after e ~delay:(-1.) (fun () -> ());
    Alcotest.fail "negative delay accepted"
  with Invalid_argument _ -> ()

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~at:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.5 e;
  check Alcotest.int "five ran" 5 !count;
  check Alcotest.int "five pending" 5 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "rest ran" 10 !count

let test_heap_growth () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 0 to 9999 do
    Engine.schedule e ~at:(float_of_int (i mod 100)) (fun () -> incr count)
  done;
  Engine.run e;
  check Alcotest.int "all ran" 10000 !count;
  check Alcotest.int "processed" 10000 (Engine.processed e)

let prop_engine_time_order =
  qt ~count:60 "random schedules execute in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 1 60) (float_bound_inclusive 100.))
    (fun times ->
      let e = Engine.create () in
      let seen = ref [] in
      List.iter (fun t -> Engine.schedule e ~at:t (fun () -> seen := Engine.now e :: !seen)) times;
      Engine.run e;
      let order = List.rev !seen in
      List.length order = List.length times
      && fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t >= prev, t))
              (true, neg_infinity) order))

(* --- server --- *)

let test_server_serialises () =
  let e = Engine.create () in
  let s = Server.create e ~service_time:1.0 ~queue_capacity:10 in
  let finish = ref [] in
  Engine.schedule e ~at:0. (fun () ->
      ignore (Server.submit s (fun () -> finish := Engine.now e :: !finish));
      ignore (Server.submit s (fun () -> finish := Engine.now e :: !finish)));
  Engine.run e;
  check (Alcotest.list (Alcotest.float 1e-9)) "one per service time" [ 1.; 2. ]
    (List.rev !finish);
  check Alcotest.int "completed" 2 (Server.completed s)

let test_server_rejects_when_full () =
  let e = Engine.create () in
  let s = Server.create e ~service_time:1.0 ~queue_capacity:2 in
  Engine.schedule e ~at:0. (fun () ->
      (* 1 in service + 2 queued = full; the 4th must bounce *)
      ignore (Server.submit s (fun () -> ()));
      ignore (Server.submit s (fun () -> ()));
      ignore (Server.submit s (fun () -> ()));
      if Server.submit s (fun () -> ()) then Alcotest.fail "over-capacity accepted");
  Engine.run e;
  check Alcotest.int "rejected" 1 (Server.rejected s);
  check Alcotest.int "accepted" 3 (Server.accepted s)

let test_server_utilisation () =
  let e = Engine.create () in
  let s = Server.create e ~service_time:1.0 ~queue_capacity:10 in
  Engine.schedule e ~at:0. (fun () -> ignore (Server.submit s (fun () -> ())));
  (* idle gap, then another job *)
  Engine.schedule e ~at:9. (fun () -> ignore (Server.submit s (fun () -> ())));
  Engine.run e;
  check (Alcotest.float 1e-6) "2s busy over 10s" 0.2 (Server.utilisation s)

(* --- flowsim --- *)

let s2 = Schema.tiny2

let small_policy =
  Classifier.of_specs s2
    [ (10, [ ("f1", "0xxxxxxx") ], Action.Forward 2); (0, [], Action.Drop) ]

let mk_flows n =
  List.init n (fun i ->
      {
        Traffic.flow_id = i;
        header = Header.make s2 [| Int64.of_int (i mod 256); Int64.of_int (i / 256) |];
        ingress = 0;
        start = float_of_int i *. 0.001;
        packets = 2;
        interval = 0.0001;
      })

let test_flowsim_difane_counts () =
  let d =
    Deployment.build ~policy:small_policy ~topology:(Topology.line 3 ())
      ~authority_ids:[ 1 ] ()
  in
  let flows = mk_flows 100 in
  let r = Flowsim.run Flowsim.Config.default d flows in
  check Alcotest.int "offered" 100 r.Flowsim.offered_flows;
  check Alcotest.int "all complete at low load" 100 r.Flowsim.completed_flows;
  check Alcotest.int "no drops" 0 r.Flowsim.dropped_flows;
  check Alcotest.int "both packets delivered" 200 r.Flowsim.delivered_packets;
  (* second packet of each flow hits the freshly installed cache rule *)
  check Alcotest.bool "cache hits on repeats" true (r.Flowsim.cache_hit_packets > 0);
  check Alcotest.bool "delays recorded" true (Array.length r.Flowsim.delays = 100)

let test_flowsim_difane_saturation () =
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with cache_capacity = 0 }
      ~policy:small_policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] ()
  in
  (* distinct single-packet flows at far beyond 1/service capacity *)
  let flows =
    List.init 3000 (fun i ->
        {
          Traffic.flow_id = i;
          header = Header.make s2 [| Int64.of_int (i mod 256); Int64.of_int (i / 256) |];
          ingress = 0;
          start = float_of_int i *. 1e-7 (* 10M flows/s offered *);
          packets = 1;
          interval = 1e-4;
        })
  in
  let timing = { Flowsim.default_timing with authority_service = 1e-6; queue_capacity = 100 } in
  let r = Flowsim.run { Flowsim.Config.default with timing } d flows in
  check Alcotest.bool "drops under overload" true (r.Flowsim.dropped_flows > 0);
  let capacity = 1e6 in
  check Alcotest.bool "throughput near capacity" true
    (Float.abs (r.Flowsim.setup_throughput -. capacity) /. capacity < 0.25)

let test_flowsim_nox_punts_and_delays () =
  let n = Nox.build ~policy:small_policy ~topology:(Topology.line 3 ()) () in
  (* repeat packets must arrive after the controller round trip, or they
     miss too (the setup is still in flight) *)
  let flows =
    List.map (fun f -> { f with Traffic.interval = 0.02 }) (mk_flows 50)
  in
  let r = Flowsim.run_nox n flows in
  check Alcotest.int "completes" 50 r.Flowsim.completed_flows;
  (* every distinct header pays at least the controller RTT *)
  Array.iter
    (fun dly ->
      if dly < Flowsim.default_timing.Flowsim.controller_rtt then
        Alcotest.fail "miss delay below RTT")
    r.Flowsim.miss_delays;
  check Alcotest.bool "some microflow hits" true (r.Flowsim.cache_hit_packets > 0)

let test_flowsim_difane_faster_than_nox () =
  let flows = mk_flows 200 in
  let d =
    Deployment.build ~policy:small_policy ~topology:(Topology.line 3 ())
      ~authority_ids:[ 1 ] ()
  in
  let rd = Flowsim.run Flowsim.Config.default d flows in
  let n = Nox.build ~policy:small_policy ~topology:(Topology.line 3 ()) () in
  let rn = Flowsim.run_nox n flows in
  let med a = (Summary.of_array a).Summary.p50 in
  check Alcotest.bool "DIFANE setup >10x faster" true
    (med rn.Flowsim.miss_delays > 10. *. med rd.Flowsim.miss_delays)

let test_install_latency_window () =
  let d =
    Deployment.build ~policy:small_policy ~topology:(Topology.line 3 ())
      ~authority_ids:[ 1 ] ()
  in
  (* install takes 5 ms; flow packets arrive every 1 ms: the first few
     repeats still miss, later ones hit *)
  let timing = { Flowsim.default_timing with install_latency = 5e-3 } in
  let flows =
    [
      {
        Traffic.flow_id = 0;
        header = Header.make s2 [| 9L; 9L |];
        ingress = 0;
        start = 0.;
        packets = 20;
        interval = 1e-3;
      };
    ]
  in
  let r = Flowsim.run { Flowsim.Config.default with timing } d flows in
  check Alcotest.int "all packets delivered" 20 r.Flowsim.delivered_packets;
  (* packets before the install completes (~5) miss; the rest hit *)
  check Alcotest.bool "some packets in the install window missed" true
    (r.Flowsim.cache_hit_packets < 19);
  check Alcotest.bool "later packets hit" true (r.Flowsim.cache_hit_packets >= 10)

let test_authority_stats_balanced () =
  (* two authorities, volume-balanced partitions, uniform headers: the
     miss load must split roughly evenly *)
  let policy = Classifier.of_specs s2 [ (1, [], Action.Forward 2) ] in
  let d =
    Deployment.build
      ~config:
        { Deployment.default_config with cache_capacity = 0; k = 8; balance = `Volume }
      ~policy ~topology:(Topology.line 4 ()) ~authority_ids:[ 1; 2 ] ()
  in
  let rng = Prng.create 12 in
  let flows =
    List.init 2000 (fun i ->
        {
          Traffic.flow_id = i;
          header = Header.make s2 [| Int64.of_int (Prng.int rng 256); Int64.of_int (Prng.int rng 256) |];
          ingress = 0;
          start = float_of_int i *. 1e-4;
          packets = 1;
          interval = 1e-4;
        })
  in
  let r = Flowsim.run Flowsim.Config.default d flows in
  match r.Flowsim.authority_stats with
  | [ { Flowsim.switch_id = a1; misses_served = c1; _ };
      { Flowsim.switch_id = a2; misses_served = c2; _ } ] ->
      check Alcotest.bool "both authorities used" true (a1 <> a2 && c1 > 0 && c2 > 0);
      check Alcotest.int "conservation" 2000 (c1 + c2);
      let skew = Float.abs (float_of_int (c1 - c2)) /. 2000. in
      if skew > 0.2 then Alcotest.failf "authority load skew %.2f" skew
  | other -> Alcotest.failf "expected 2 authorities, got %d" (List.length other)

(* --- traffic burstiness --- *)

let test_bursty_arrivals () =
  let rng = Prng.create 3 in
  let mk burstiness =
    Traffic.generate rng small_policy
      { Traffic.default with flows = 5_000; rate = 10_000.; burstiness }
  in
  let cov flows =
    (* coefficient of variation of inter-arrival gaps *)
    let times = List.map (fun f -> f.Traffic.start) flows in
    let gaps =
      List.map2 (fun a b -> b -. a)
        (List.filteri (fun i _ -> i < List.length times - 1) times)
        (List.tl times)
    in
    let s = Summary.of_list gaps in
    s.Summary.stddev /. s.Summary.mean
  in
  let poisson = cov (mk 1.0) and bursty = cov (mk 10.0) in
  check Alcotest.bool "poisson cov ~ 1" true (Float.abs (poisson -. 1.0) < 0.15);
  check Alcotest.bool "bursty cov > poisson" true (bursty > poisson +. 0.2);
  (* average rate is preserved *)
  let span flows =
    match (flows, List.rev flows) with
    | f :: _, l :: _ -> l.Traffic.start -. f.Traffic.start
    | _ -> 0.
  in
  let s1 = span (mk 1.0) and s2 = span (mk 10.0) in
  check Alcotest.bool "span within 25%" true (Float.abs (s2 -. s1) /. s1 < 0.25);
  try
    ignore (mk 0.5);
    Alcotest.fail "burstiness < 1 accepted"
  with Invalid_argument _ -> ()

(* --- cachesim --- *)

let test_packet_stream_sorted () =
  let flows = mk_flows 20 in
  let stream = Cachesim.packet_stream flows in
  check Alcotest.int "all packets" 40 (Array.length stream)

let test_wildcard_beats_microflow () =
  (* one broad rule, many headers: wildcard caching needs 1 entry *)
  let policy =
    Classifier.of_specs s2 [ (1, [], Action.Forward 1) ]
  in
  let stream =
    Array.init 1000 (fun i ->
        Header.make s2 [| Int64.of_int (i mod 256); Int64.of_int (i mod 200) |])
  in
  let wild = Cachesim.run Cachesim.Wildcard_splice policy ~cache_size:4 stream in
  let micro = Cachesim.run Cachesim.Microflow policy ~cache_size:4 stream in
  check Alcotest.int "wildcard: one compulsory miss" 1 wild.Cachesim.misses;
  check Alcotest.bool "microflow thrashes" true (micro.Cachesim.misses > 900);
  check Alcotest.int "wildcard working set" 1 wild.Cachesim.distinct_keys

let test_lru_behaviour () =
  let policy = Classifier.of_specs s2 [ (1, [], Action.Forward 1) ] in
  (* cyclic scan over N+1 distinct headers with cache N: classic LRU worst
     case, every access misses under microflow caching *)
  let n = 8 in
  let stream =
    Array.init 100 (fun i -> Header.make s2 [| Int64.of_int (i mod (n + 1)); 0L |])
  in
  let r = Cachesim.run Cachesim.Microflow policy ~cache_size:n stream in
  check Alcotest.int "cyclic scan always misses" 100 r.Cachesim.misses;
  (* with cache N+1 only compulsory misses remain *)
  let r2 = Cachesim.run Cachesim.Microflow policy ~cache_size:(n + 1) stream in
  check Alcotest.int "fits: compulsory only" (n + 1) r2.Cachesim.misses

let test_sweep_consistent () =
  let policy = Classifier.of_specs s2 [ (1, [], Action.Forward 1) ] in
  let stream = Array.init 200 (fun i -> Header.make s2 [| Int64.of_int (i mod 16); 0L |]) in
  let results = Cachesim.sweep policy ~cache_sizes:[ 4; 16 ] stream in
  check Alcotest.int "two sizes" 2 (List.length results);
  List.iter
    (fun (size, (w : Cachesim.result), (m : Cachesim.result)) ->
      check Alcotest.int "size matches w" size w.Cachesim.cache_size;
      check Alcotest.int "size matches m" size m.Cachesim.cache_size;
      check Alcotest.bool "wildcard <= microflow misses" true
        (w.Cachesim.misses <= m.Cachesim.misses))
    results

let test_opt_bounds_lru () =
  let policy = Classifier.of_specs s2 [ (1, [], Action.Forward 1) ] in
  (* the LRU-hostile cyclic scan: OPT converts it from 100% to near the
     theoretical floor *)
  let n = 8 in
  let stream =
    Array.init 200 (fun i -> Header.make s2 [| Int64.of_int (i mod (n + 1)); 0L |])
  in
  let lru = Cachesim.run Cachesim.Microflow policy ~cache_size:n stream in
  let opt = Cachesim.run_opt Cachesim.Microflow policy ~cache_size:n stream in
  check Alcotest.bool "opt strictly better on cyclic scan" true
    (opt.Cachesim.misses < lru.Cachesim.misses / 2);
  check Alcotest.bool "opt >= compulsory misses" true
    (opt.Cachesim.misses >= opt.Cachesim.distinct_keys)

let prop_opt_never_worse_than_lru =
  qt ~count:40 "OPT <= LRU on random streams"
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_range 1 200) (int_bound 30)))
    (fun (size, vals) ->
      let policy = Classifier.of_specs s2 [ (1, [], Action.Forward 1) ] in
      let stream =
        Array.of_list (List.map (fun v -> Header.make s2 [| Int64.of_int v; 0L |]) vals)
      in
      let lru = Cachesim.run Cachesim.Microflow policy ~cache_size:size stream in
      let opt = Cachesim.run_opt Cachesim.Microflow policy ~cache_size:size stream in
      opt.Cachesim.misses <= lru.Cachesim.misses
      && opt.Cachesim.misses >= min size opt.Cachesim.distinct_keys)

let prop_miss_rate_monotone_in_size =
  qt ~count:20 "bigger cache never misses more"
    QCheck2.Gen.(int_range 1 20)
    (fun size ->
      let policy = Classifier.of_specs s2 [ (1, [], Action.Forward 1) ] in
      let stream =
        Array.init 300 (fun i -> Header.make s2 [| Int64.of_int (i * 7 mod 64); 0L |])
      in
      let a = Cachesim.run Cachesim.Microflow policy ~cache_size:size stream in
      let b = Cachesim.run Cachesim.Microflow policy ~cache_size:(size + 5) stream in
      b.Cachesim.misses <= a.Cachesim.misses)

let suite =
  [
    ( "engine",
      [
        tc "events run in time order" test_event_order;
        tc "FIFO among ties" test_fifo_ties;
        tc "nested scheduling" test_nested_scheduling;
        tc "past events rejected" test_past_rejected;
        tc "run until" test_run_until;
        tc "heap growth" test_heap_growth;
        prop_engine_time_order;
      ] );
    ( "server",
      [
        tc "serialises jobs" test_server_serialises;
        tc "rejects when full" test_server_rejects_when_full;
        tc "utilisation" test_server_utilisation;
      ] );
    ( "flowsim",
      [
        tc "difane counts" test_flowsim_difane_counts;
        tc "difane saturation" test_flowsim_difane_saturation;
        tc "nox punts and delays" test_flowsim_nox_punts_and_delays;
        tc "difane beats nox on setup delay" test_flowsim_difane_faster_than_nox;
        tc "install latency window" test_install_latency_window;
        tc "bursty arrivals" test_bursty_arrivals;
        tc "authority load balance" test_authority_stats_balanced;
      ] );
    ( "cachesim",
      [
        tc "packet stream" test_packet_stream_sorted;
        tc "wildcard beats microflow" test_wildcard_beats_microflow;
        tc "LRU worst case" test_lru_behaviour;
        tc "sweep consistency" test_sweep_consistent;
        tc "OPT beats LRU's worst case" test_opt_bounds_lru;
        prop_opt_never_worse_than_lru;
        prop_miss_rate_monotone_in_size;
      ] );
  ]
