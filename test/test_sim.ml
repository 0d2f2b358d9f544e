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
  check Alcotest.int "all ran" 10000 !count

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
      for _ = 1 to 3 do
        if not (Server.submit s (fun () -> ())) then Alcotest.fail "under-capacity rejected"
      done;
      if Server.submit s (fun () -> ()) then Alcotest.fail "over-capacity accepted");
  Engine.run e;
  check Alcotest.int "rejected" 1 (Server.rejected s);
  check Alcotest.int "accepted ones completed" 3 (Server.completed s)

let test_server_utilisation () =
  let e = Engine.create () in
  let s = Server.create e ~service_time:1.0 ~queue_capacity:10 in
  Engine.schedule e ~at:0. (fun () -> ignore (Server.submit s (fun () -> ())));
  (* idle gap, then another job *)
  Engine.schedule e ~at:9. (fun () -> ignore (Server.submit s (fun () -> ())));
  Engine.run e;
  (* busy for two service times of the ten seconds since the first job *)
  check Alcotest.int "both served" 2 (Server.completed s);
  check (Alcotest.float 1e-6) "2s busy over 10s" 0.2
    (float_of_int (Server.completed s) *. 1.0 /. Engine.now e)

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

(* No control plane drains a run's switches, so none queues a
   flow-removed notification for the evictions and expiries it has. *)
let test_flowsim_queues_no_notifications () =
  (* one exact rule per f1 value below 64: every such flow caches its own entry *)
  let bits v = String.init 8 (fun b -> if (v lsr (7 - b)) land 1 = 1 then '1' else '0') in
  let policy =
    Classifier.of_specs s2
      (List.init 64 (fun v -> (10, [ ("f1", bits v) ], Action.Forward 2))
      @ [ (0, [], Action.Drop) ])
  in
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with cache_capacity = 4; cache_hard_timeout = Some 0.01 }
      ~policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] ()
  in
  ignore (Flowsim.run Flowsim.Config.default d (mk_flows 100));
  let removed =
    Array.fold_left
      (fun n sw ->
        let s = Tcam.stats (Switch.cache sw) in
        n + Int64.to_int s.Tcam.evictions + Int64.to_int s.Tcam.expirations)
      0 (Deployment.switches d)
  in
  check Alcotest.bool "the run evicted and expired entries" true (removed > 0);
  Array.iteri
    (fun i sw ->
      check Alcotest.int (Printf.sprintf "switch %d queued nothing" i) 0
        (List.length (Switch.drain_notifications sw)))
    (Deployment.switches d)

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

let nox_baseline () =
  Experiments.nox_baseline ~policy:small_policy ~topology:(Topology.line 3 ()) ()

let test_flowsim_nox_punts_and_delays () =
  let n = nox_baseline () in
  (* repeat packets must arrive after the controller round trip, or they
     miss too (the setup is still in flight) *)
  let flows =
    List.map (fun f -> { f with Traffic.interval = 0.02 }) (mk_flows 50)
  in
  let r = Flowsim.run Flowsim.Config.default n flows in
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
  let rn = Flowsim.run Flowsim.Config.default (nox_baseline ()) flows in
  let med a = (Summary.of_array a).Summary.p50 in
  check Alcotest.bool "DIFANE setup >10x faster" true
    (med rn.Flowsim.miss_delays > 10. *. med rd.Flowsim.miss_delays)

(* The controller path looks a punted packet up at the ingress once:
   N distinct single-packet flows cost N cache misses, all degraded. *)
let test_flowsim_nox_one_lookup_per_punt () =
  let n = 300 in
  let d = nox_baseline () in
  let flows = List.map (fun f -> { f with Traffic.packets = 1 }) (mk_flows n) in
  let r = Flowsim.run Flowsim.Config.default d flows in
  check Alcotest.int "completes" n r.Flowsim.completed_flows;
  check Alcotest.int "degraded packets" n r.Flowsim.degraded_packets;
  check Alcotest.int64 "ingress cache misses" (Int64.of_int n)
    (Tcam.stats (Switch.cache (Deployment.switch d 0))).Tcam.misses

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

(* One clock for the co-simulation, on [small_policy] over a 3-switch
   line with authority 1 and flows entering at switch 0: [cosim] runs
   [flows] with a controller hook that may replace the deployment, and
   returns the deployment the hook left. *)
let flow ?(f1 = 9) start =
  { Traffic.flow_id = 0; header = Header.make s2 [| Int64.of_int f1; 9L |]; ingress = 0;
    start; packets = 1; interval = 1e-3 }

let cosim ?(install_latency = 0.)
    ?(d = Deployment.build ~policy:small_policy ~topology:(Topology.line 3 ()) ~authority_ids:[ 1 ] ())
    flows hook =
  let d = ref d in
  let timing = { Flowsim.default_timing with install_latency } in
  ignore
    (Flowsim.run
       { Flowsim.Config.default with timing; controller = Some (fun ~now -> hook d ~now; !d) }
       !d flows);
  !d

(* Rule 10 turned to [drop]: a strict action-only update. *)
let flip d ~now =
  Deployment.update_policy ~flush:true d ~now
    (Classifier.of_specs s2 [ (10, [ ("f1", "0xxxxxxx") ], Action.Drop); (0, [], Action.Drop) ])

(* The 10 ms tick comes before every later event: the install of the
   5.5 ms miss lands at about 10.6 ms, after the tick, although the next
   packet arrives only at 12 ms. *)
let test_tick_before_later_events () =
  let seen = ref [] in
  ignore
    (cosim ~install_latency:5e-3 [ flow 5.5e-3; flow ~f1:200 12e-3 ] (fun d ~now:_ ->
         seen := Deployment.total_cache_entries !d :: !seen));
  check Alcotest.int "cache entries at the 10 ms tick" 0 (List.hd (List.rev !seen))

(* A strict update at the 10 ms tick fences the install spliced from
   the old policy at 9.5 ms and still in flight. *)
let test_update_fences_inflight_install () =
  let flipped = ref false in
  let d =
    cosim ~install_latency:5e-3 [ flow 9.5e-3; flow ~f1:200 11e-3 ] (fun d ~now ->
        if not !flipped then begin
          flipped := true;
          d := flip !d ~now
        end)
  in
  let o = Deployment.inject d ~now:0.1 ~ingress:0 (Header.make s2 [| 9L; 9L |]) in
  check Alcotest.string "action after the update" "drop" (Action.to_string o.Deployment.action);
  check Alcotest.(option (pair int header)) "the exact oracle" None (Deployment.counterexample d)

(* Packets walk the deployment the hook returns: after a strict update
   and the loss of the only authority at 10 ms, the degraded miss at
   11 ms is answered from the new policy. *)
let test_packets_walk_hook_deployment () =
  let ticked = ref false in
  let d =
    cosim [ flow 5e-3; flow 11e-3 ] (fun d ~now ->
        if not !ticked then begin
          ticked := true;
          d := flip !d ~now;
          Deployment.mark_unreachable !d 1
        end)
  in
  check Alcotest.(option (pair int header)) "the exact oracle" None (Deployment.counterexample d)

(* Model-based co-simulation: random tiny2 ACLs over a 5-switch line
   (authorities 1 and 3), flows at one or two ingresses, cache installs
   in flight for 0, 1 or 5 ms, and at random ticks one controller
   decision.  After every tick and after the run the exact oracle finds
   nothing on the hook's deployment. *)
type decision =
  | Update of Test_deployment.edit list  (* strict *)
  | Down of int  (* an authority unreachable, no controller reaction *)
  | Up of int
  | Fail of int  (* unreachable, and failed over *)
  | Restore  (* the failed authority back *)
  | Split of int  (* migration 0 begins *)
  | Flip
  | Commit

let gen_cosim =
  let open QCheck2.Gen in
  let authority = map (fun i -> 1 + (2 * i)) (int_bound 1) in
  let decision =
    frequency
      [ ( 4,
          bool >>= fun local ->
          map (fun es -> Update es) (list_size (int_range 1 3) (Test_deployment.gen_edit ~local)) );
        (1, map (fun a -> Down a) authority); (1, map (fun a -> Up a) authority);
        (1, map (fun a -> Fail a) authority); (1, return Restore);
        (1, map (fun i -> Split i) (int_bound 8)); (2, return Flip); (3, return Commit) ]
  in
  let* specs = list_size (int_range 1 8) (triple gen_pred_tiny2 (int_range 1 20) (int_bound 4)) in
  let* k = int_range 1 4 in
  let* replication = int_range 1 2 in
  let* install_latency = oneofl [ 0.; 1e-3; 5e-3 ] in
  let* ingresses = oneofl [ [ 0 ]; [ 0; 4 ] ] in
  let* flows =
    list_size (int_range 1 40) (quad gen_header_tiny2 (int_bound 1) (int_bound 1500) (int_range 1 3))
  in
  let* decisions = list_repeat 16 (option decision) in
  return (specs, k, replication, install_latency, ingresses, flows, decisions)

(* how often each decision took effect, over the whole property *)
let decided = Hashtbl.create 8
let took kind = Hashtbl.replace decided kind (1 + Option.value ~default:0 (Hashtbl.find_opt decided kind))

let prop_cosim_oracle (specs, k, replication, install_latency, ingresses, flows, decisions) =
  let rules =
    Rule.make ~id:0 ~priority:0 (Pred.any s2) Action.Drop
    :: List.mapi (fun i (pd, p, a) -> Rule.make ~id:(i + 1) ~priority:p pd (Test_deployment.act a)) specs
  in
  let d0 =
    Deployment.build ~config:{ Deployment.default_config with k; replication }
      ~policy:(Classifier.create s2 rules) ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
  in
  let flows =
    List.mapi
      (fun i (header, ing, t, packets) ->
        { Traffic.flow_id = i; header; ingress = List.nth ingresses (ing mod List.length ingresses);
          start = float_of_int t *. 1e-4; packets; interval = 2e-3 })
      flows
  in
  let state = ref (rules, List.length rules) and pending = ref decisions and bad = ref None in
  let oracle d = if !bad = None then bad := Deployment.counterexample d in
  let decide d ~now decision =
    let stage = Option.map snd (Deployment.migration !d) in
    let authorities = Deployment.authority_ids !d in
    let apply e = d := Deployment.apply !d ~now e in
    match decision with
    | Update es when stage = None ->
        took "update";
        state := List.fold_left Test_deployment.apply_edit !state es;
        d := Deployment.update_policy ~flush:true !d ~now (Classifier.create s2 (fst !state))
    | Down a ->
        took "down";
        Deployment.mark_unreachable !d a
    | Up a ->
        took "up";
        Deployment.mark_reachable !d a
    | Fail a when stage = None && List.mem a authorities && List.length authorities > 1 ->
        took "fail";
        Deployment.mark_unreachable !d a;
        apply (Journal.Fail_authority a)
    | Restore when stage = None && List.length authorities = 1 ->
        let a = 4 - List.hd authorities in
        took "restore";
        apply (Journal.Restore_authority a);
        Deployment.mark_reachable !d a
    | Split i when stage = None ->
        Option.iter
          (fun m ->
            took "split";
            apply (Journal.Migration_begin m))
          (Test_deployment.split_migration !d i)
    | Flip when stage = Some Deployment.Installed ->
        took "flip";
        apply (Journal.Migration_flip 0)
    | Commit when stage = Some Deployment.Flipped ->
        took "commit";
        apply (Journal.Migration_commit 0)
    | _ -> ()
  in
  let d =
    cosim ~install_latency ~d:d0 flows (fun d ~now ->
        (match !pending with
        | [] -> ()
        | x :: rest ->
            pending := rest;
            Option.iter (decide d ~now) x);
        oracle !d)
  in
  oracle d;
  match !bad with
  | None -> true
  | Some (sw, hd) -> QCheck2.Test.fail_reportf "switch %d misforwards %a" sw Header.pp hd

let test_cosim_oracle () =
  let fenced = Telemetry.counter "sim_install_drops" in
  let before = Telemetry.value fenced in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 39 |])
    (QCheck2.Test.make ~count:250 ~name:"co-simulation keeps every cache exact" gen_cosim
       prop_cosim_oracle);
  (* every decision, and installs fenced across one, many times over *)
  List.iter
    (fun kind ->
      let n = Option.value ~default:0 (Hashtbl.find_opt decided kind) in
      if n < 20 then Alcotest.failf "coverage: %s took effect %d times" kind n)
    [ "update"; "down"; "up"; "fail"; "restore"; "split"; "flip"; "commit" ];
  let n = Telemetry.value fenced - before in
  if n < 100 then Alcotest.failf "coverage: %d installs fenced" n

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

(* --- cache miss sweep: F-MISS through the shipped ingress cache --- *)

let test_packet_stream_sorted () =
  (* flows start 1 ms apart and send 3 packets 2.5 ms apart, so their
     packets interleave *)
  let flows =
    List.map (fun f -> { f with Traffic.packets = 3; interval = 0.0025 }) (mk_flows 20)
  in
  let stream = Traffic.packet_stream flows in
  check Alcotest.int "all packets" 60 (Array.length stream);
  (* each flow has its own header; its k-th packet is sent at
     start + k * interval *)
  let sent = Hashtbl.create 20 in
  let times =
    Array.to_list
      (Array.map
         (fun h ->
           let f = List.find (fun (f : Traffic.flow) -> Header.equal f.header h) flows in
           let k = Option.value ~default:0 (Hashtbl.find_opt sent f.flow_id) in
           Hashtbl.replace sent f.flow_id (k + 1);
           f.start +. (float_of_int k *. f.interval))
         stream)
  in
  check Alcotest.bool "times never go down" true (times = List.sort Float.compare times)

let broad = Classifier.of_specs s2 [ (1, [], Action.Forward 1) ]

(* The one point of a one-size sweep, with its miss counts *)
let miss_counts policy ~cache_size stream =
  match Experiments.F_miss.sweep policy ~alpha:1.0 ~cache_sizes:[ cache_size ] stream with
  | [ p ] ->
      let n = float_of_int (Array.length stream) in
      let count rate = Float.to_int (Float.round (rate *. n)) in
      ( count p.Experiments.F_miss.wildcard_miss_rate,
        count p.wildcard_opt_miss_rate,
        count p.microflow_miss_rate )
  | _ -> Alcotest.fail "one cache size, one point"

let test_wildcard_beats_microflow () =
  (* one broad rule, many headers: wildcard caching needs one entry per
     partition, the rule's piece in each of the k regions *)
  let k = Deployment.default_config.k in
  let stream =
    Array.init 1000 (fun i ->
        Header.make s2 [| Int64.of_int (i mod 256); Int64.of_int (i mod 200) |])
  in
  let wild, opt, micro = miss_counts broad ~cache_size:k stream in
  check Alcotest.int "wildcard: one compulsory miss per partition" k wild;
  check Alcotest.bool "microflow thrashes" true (micro > 900);
  check Alcotest.int "wildcard working set" k opt

let test_lru_behaviour () =
  (* cyclic scan over N+1 distinct headers with cache N: classic LRU worst
     case, every access misses under microflow caching *)
  let n = 8 in
  let stream =
    Array.init 100 (fun i -> Header.make s2 [| Int64.of_int (i mod (n + 1)); 0L |])
  in
  let _, _, micro = miss_counts broad ~cache_size:n stream in
  check Alcotest.int "cyclic scan always misses" 100 micro;
  (* with cache N+1 only compulsory misses remain *)
  let _, _, micro = miss_counts broad ~cache_size:(n + 1) stream in
  check Alcotest.int "fits: compulsory only" (n + 1) micro

let test_sweep_consistent () =
  let stream = Array.init 200 (fun i -> Header.make s2 [| Int64.of_int (i mod 16); 0L |]) in
  let points = Experiments.F_miss.sweep broad ~alpha:1.0 ~cache_sizes:[ 4; 16 ] stream in
  check Alcotest.(list int) "one point per size, in order" [ 4; 16 ]
    (List.map (fun (p : Experiments.F_miss.point) -> p.cache_size) points);
  List.iter
    (fun (p : Experiments.F_miss.point) ->
      check Alcotest.bool "wildcard <= microflow misses" true
        (p.wildcard_miss_rate <= p.microflow_miss_rate);
      check Alcotest.bool "opt <= lru misses" true
        (p.wildcard_opt_miss_rate <= p.wildcard_miss_rate))
    points

(* One exact rule per [f1] value: each header's spliced piece is its
   [f1]'s rule, so the wildcard runs replay the value stream itself and
   its working set is the number of distinct values.  Returns the
   (LRU, OPT) miss counts and that working set. *)
let lru_and_opt ~cache_size stream =
  let policy =
    Classifier.create s2
      (List.init 256 (fun v ->
           Rule.make ~id:v ~priority:1
             (Pred.make s2 [ Ternary.exact ~width:8 (Int64.of_int v); Ternary.any 8 ])
             (Action.Forward 1)))
  in
  let lru, opt, _ = miss_counts policy ~cache_size stream in
  (lru, opt, List.length (List.sort_uniq Header.compare (Array.to_list stream)))

let test_opt_bounds_lru () =
  (* the LRU-hostile cyclic scan: OPT converts it from 100% to near the
     theoretical floor *)
  let n = 8 in
  let stream =
    Array.init 200 (fun i -> Header.make s2 [| Int64.of_int (i mod (n + 1)); 0L |])
  in
  let lru, opt, distinct = lru_and_opt ~cache_size:n stream in
  check Alcotest.bool "opt strictly better on cyclic scan" true (opt < lru / 2);
  check Alcotest.bool "opt >= compulsory misses" true (opt >= distinct)

let prop_opt_never_worse_than_lru =
  qt ~count:40 "OPT <= LRU on random streams"
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_range 1 200) (int_bound 30)))
    (fun (size, vals) ->
      let stream =
        Array.of_list (List.map (fun v -> Header.make s2 [| Int64.of_int v; 0L |]) vals)
      in
      let lru, opt, distinct = lru_and_opt ~cache_size:size stream in
      opt <= lru && opt >= min size distinct)

let prop_miss_rate_monotone_in_size =
  qt ~count:20 "bigger cache never misses more"
    QCheck2.Gen.(int_range 1 20)
    (fun size ->
      let stream =
        Array.init 300 (fun i -> Header.make s2 [| Int64.of_int (i * 7 mod 64); 0L |])
      in
      let _, _, a = miss_counts broad ~cache_size:size stream in
      let _, _, b = miss_counts broad ~cache_size:(size + 5) stream in
      b <= a)

(* Pins the hit path's allocation.  A cache-warm, hit-only replay on a
   campus with the congestion model on: every packet reads its memoised
   route from the topology and books port queues hop by hop.  The whole
   run, set-up and summary included, costs about 54 minor words per
   packet today.  Polymorphic-hash tables, boxed [Int64] counters and a
   route list rebuilt per packet cost 172; recomputing routes per packet
   costs ten times that. *)
let test_hit_path_allocation () =
  let topo_rng = Prng.create 7 in
  let topology = Topology.campus ~rand:(fun () -> Prng.float topo_rng) ~edge_switches:12 () in
  let policy =
    Classifier.of_specs s2
      [
        (20, [ ("f1", "00xxxxxx") ], Action.Forward 16);
        (10, [ ("f1", "01xxxxxx") ], Action.Forward 9);
        (0, [], Action.Forward 5);
      ]
  in
  let d =
    Deployment.build
      ~config:
        { Deployment.default_config with
          k = 4; congestion = { Congestion.default with model_bandwidth = true } }
      ~policy ~topology ~authority_ids:[ 0; 1; 2; 3 ] ()
  in
  let headers = Array.init 64 (fun i -> Header.make s2 [| Int64.of_int (i * 4); Int64.of_int i |]) in
  let flows =
    List.init 400 (fun i ->
        { Traffic.flow_id = i; header = headers.(i mod 64); ingress = 5 + (i mod 12);
          start = float_of_int i *. 1e-4; packets = 50; interval = 1e-3 })
  in
  (* warm every (ingress, header) cache entry the replay will read *)
  List.iter
    (fun (f : Traffic.flow) -> ignore (Deployment.inject d ~now:0. ~ingress:f.ingress f.header))
    flows;
  let before = Gc.minor_words () in
  let r = Flowsim.run Flowsim.Config.default d flows in
  let per_packet = (Gc.minor_words () -. before) /. float_of_int r.Flowsim.delivered_packets in
  check Alcotest.int "packets" 20_000 r.Flowsim.delivered_packets;
  check Alcotest.int "every packet a cache hit" r.Flowsim.delivered_packets
    r.Flowsim.cache_hit_packets;
  if per_packet > 100. then
    Alcotest.failf "hit path allocates %.0f minor words/packet (bound 100)" per_packet

(* Pins the miss path's allocation.  An authority holding every
   partition table of a 1000-rule ACL (k = 16) serves a fixed set of
   headers twice; the second pass, on warm splice plans, is measured
   under aggregation's cover budget and as plain clipped fragments.
   About 115 and 100 minor words per serve today; rebuilding the
   dependency structure from the table on every miss costs about 2,400
   and 900. *)
let test_miss_path_allocation () =
  let policy = Policy_gen.acl (Prng.create 11) { Policy_gen.default_acl with rules = 1000 } in
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with k = 16 }
      ~policy ~topology:(Topology.star 4 ()) ~authority_ids:[ 1 ] ()
  in
  let auth = Deployment.switch d 1 in
  let headers = Traffic.headers_for (Prng.create 12) policy 2000 in
  let per_serve cover_limit =
    Array.iter (fun h -> ignore (Switch.serve_miss ?cover_limit auth ~now:0. h)) headers;
    let before = Gc.minor_words () in
    Array.iter
      (fun h -> if Switch.serve_miss ?cover_limit auth ~now:0. h = None then Alcotest.fail "no reply")
      headers;
    (Gc.minor_words () -. before) /. float_of_int (Array.length headers)
  in
  let covers = per_serve (Aggregate.cover_limit Aggregate.enabled_default) in
  let fragments = per_serve None in
  if covers > 200. then
    Alcotest.failf "miss path allocates %.0f minor words/serve with covers (bound 200)" covers;
  if fragments > 200. then
    Alcotest.failf "miss path allocates %.0f minor words/serve as fragments (bound 200)" fragments

(* Pins the paths only a fault plan reaches, in one run: an authority
   crash and restart and a link flap (degraded controller path), every
   controller replica down for a window (outage drops), a lossy install
   fabric, credit-mode congestion with finite buffers, a monitor and a
   controller hook.  The counts prove each path ran; the digests pin
   what it did.  After the run the registry must have gained exactly
   the result's tallies. *)
let test_fault_plan_pin () =
  let policy =
    Policy_gen.acl (Prng.create 5)
      { Policy_gen.default_acl with rules = 120; chains = 10; chain_depth = 4; egresses = 4 }
  in
  (* hub 0; authorities 1 and 2; ingresses 3..9 *)
  let topology =
    Topology.create ~nodes:10
      (List.init 9 (fun i ->
           { Topology.src = 0; dst = i + 1; latency = 100e-6; bandwidth = 1.2e8 }))
  in
  let config =
    { Deployment.default_config with
      k = 8; cache_capacity = 64; cache_idle_timeout = Some 0.05; balance = `Volume;
      congestion =
        { Congestion.default with
          model_bandwidth = true; buffer_capacity = Some 4; ecn_threshold = Some 2;
          mode = Congestion.Credit; credit_pool = 16; credit_low_water = 4 } }
  in
  let d = Deployment.build ~config ~policy ~topology ~authority_ids:[ 1; 2 ] () in
  let flows =
    Traffic.generate (Prng.create 6) policy
      { Traffic.default with
        flows = 3000; rate = 30_000.; alpha = 1.0; distinct_headers = 1000;
        packets_per_flow_mean = 3.0; ingresses = [ 3; 4; 5; 6; 7; 8; 9 ] }
  in
  let faults =
    Fault.plan ~seed:9 ~link:(Fault.lossy_link 0.2) ~controllers:2
      ~events:
        [ Fault.Crash { switch = 1; at = 0.02 }; Fault.Restart { switch = 1; at = 0.06 };
          Fault.Link_down { switch = 2; at = 0.03 }; Fault.Link_up { switch = 2; at = 0.04 };
          Fault.Controller_crash { controller = 0; at = 0.045 };
          Fault.Controller_crash { controller = 1; at = 0.045 };
          Fault.Controller_restart { controller = 0; at = 0.055 };
          Fault.Controller_restart { controller = 1; at = 0.055 } ]
      ()
  in
  let timing = { Flowsim.default_timing with authority_service = 100e-6 } in
  let monitor = Monitor.create d in
  let ticks = ref [] in
  let counters =
    [ "sim_packets_delivered"; "sim_cache_hit_packets"; "sim_flows_completed";
      "sim_flows_dropped"; "sim_degraded_packets"; "sim_install_drops";
      "sim_outage_drops"; "sim_backpressured_misses" ]
  in
  let read () = List.map (fun n -> Telemetry.value (Telemetry.counter n)) counters in
  let observations () = fst (histogram_count_sum "sim_first_packet_delay") in
  let before = read () and observed = observations () in
  let r =
    Flowsim.run
      { Flowsim.Config.default with
        timing; faults = Some faults; monitor = Some monitor;
        controller = Some (fun ~now -> ticks := now :: !ticks; d) }
      d flows
  in
  List.iter
    (fun (name, n) -> if n <= 0 then Alcotest.failf "%s never happened" name)
    [ ("degraded_packets", r.Flowsim.degraded_packets);
      ("install_drops", r.Flowsim.install_drops);
      ("outage_drops", r.Flowsim.outage_drops);
      ("backpressured", r.Flowsim.backpressured);
      ("queue_drops", r.Flowsim.queue_drops) ];
  check (Alcotest.list Alcotest.int) "registry holds the run's tallies"
    [ r.Flowsim.delivered_packets; r.Flowsim.cache_hit_packets; r.Flowsim.completed_flows;
      r.Flowsim.dropped_flows; r.Flowsim.degraded_packets; r.Flowsim.install_drops;
      r.Flowsim.outage_drops; r.Flowsim.backpressured ]
    (List.map2 ( - ) (read ()) before);
  check Alcotest.int "one histogram observation per completed flow"
    (Array.length r.Flowsim.delays) (observations () - observed);
  let md5 s = Digest.to_hex (Digest.string s) in
  check Alcotest.string "result" "fc3c327ea5acd967c709ef601b09d476" (md5 (Marshal.to_string r []));
  check Alcotest.string "monitor" "948a161eebdf3e8c7d6b107693e5930f" (md5 (Monitor.to_json monitor));
  check Alcotest.string "ticks" "e567b3131d530a2c378206ff2f22bce4" (md5 (Marshal.to_string (List.rev !ticks) []))

(* Authority 1 of a star holds every partition; the flows enter at 2..5
   and a fault plan decides what is up. *)
let crash_ingresses = [ 2; 3; 4; 5 ]

let crash_run ?controllers events =
  let policy =
    Policy_gen.acl (Prng.create 5)
      { Policy_gen.default_acl with rules = 120; chains = 10; chain_depth = 4; egresses = 4 }
  in
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with k = 8; cache_capacity = 64 }
      ~policy ~topology:(Topology.star 6 ()) ~authority_ids:[ 1 ] ()
  in
  let flows =
    Traffic.generate (Prng.create 6) policy
      { Traffic.default with
        flows = 2000; rate = 30_000.; alpha = 1.0; distinct_headers = 1000;
        packets_per_flow_mean = 2.0; ingresses = crash_ingresses }
  in
  let faults = Fault.plan ~seed:9 ?controllers ~events () in
  (d, flows, Flowsim.run { Flowsim.Config.default with faults = Some faults } d flows)

(* A replica crashed twice is still one replica down: with replica 1
   alive the degraded path keeps answering while the only authority is
   out, so no packet is lost to a controller outage. *)
let test_repeated_controller_crash () =
  let _, _, r =
    crash_run ~controllers:2
      [ Fault.Crash { switch = 1; at = 0. };
        Fault.Controller_crash { controller = 0; at = 0.02 };
        Fault.Controller_crash { controller = 0; at = 0.03 } ]
  in
  check Alcotest.bool "the degraded path served misses" true (r.Flowsim.degraded_packets > 0);
  check Alcotest.int "no outage drops" 0 r.Flowsim.outage_drops

(* A miss the degraded path carries to the controller is answered
   there: the controller counts it, and the ingress, which saw it miss
   once, does not look it up a second time. *)
let test_degraded_answered_by_controller () =
  let d, flows, r = crash_run [ Fault.Crash { switch = 1; at = 0. } ] in
  check Alcotest.bool "the degraded path served misses" true (r.Flowsim.degraded_packets > 0);
  check Alcotest.int "every degraded packet is a controller-served miss"
    (Deployment.degraded_misses d) r.Flowsim.degraded_packets;
  let sum f =
    List.fold_left
      (fun n id -> n + Int64.to_int (f (Switch.stats (Deployment.switch d id))))
      0 crash_ingresses
  in
  let packets = List.fold_left (fun n (f : Traffic.flow) -> n + f.Traffic.packets) 0 flows in
  check Alcotest.int "tunnelled = packets that missed at the ingress"
    (packets
    - sum (fun s -> s.Switch.cache_hits)
    - sum (fun s -> s.Switch.authority_hits)
    - sum (fun s -> s.Switch.unmatched)
    - sum (fun s -> s.Switch.misconfigured))
    (sum (fun s -> s.Switch.tunnelled))

(* A sharded run adds its tallies to the registry once, from the
   shard-ordered merge, on the calling domain: the registry it leaves is
   the same whichever domain ran which shard. *)
let test_registry_domain_independent () =
  let registry domains =
    Telemetry.reset ();
    ignore
      (Experiments.E_scale.run ~seed:42
         { Experiments.E_scale.quick_spec with Experiments.E_scale.shards = 4; domains });
    Telemetry.to_json (Telemetry.snapshot ())
  in
  let one = registry 1 in
  check Alcotest.string "domains 2" one (registry 2);
  check Alcotest.string "domains 2, again" one (registry 2)

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
        tc "no control plane, no notifications queued" test_flowsim_queues_no_notifications;
        tc "nox punts and delays" test_flowsim_nox_punts_and_delays;
        tc "difane beats nox on setup delay" test_flowsim_difane_faster_than_nox;
        tc "nox looks a punted packet up once" test_flowsim_nox_one_lookup_per_punt;
        tc "install latency window" test_install_latency_window;
        tc "bursty arrivals" test_bursty_arrivals;
        tc "authority load balance" test_authority_stats_balanced;
        tc "hit path allocation bound" test_hit_path_allocation;
        tc "miss path allocation bound" test_miss_path_allocation;
        tc "fault plan pin" test_fault_plan_pin;
        tc "co-sim: tick before later events" test_tick_before_later_events;
        tc "co-sim: update fences an in-flight install" test_update_fences_inflight_install;
        tc "co-sim: packets walk the hook's deployment" test_packets_walk_hook_deployment;
        tc "co-sim: the oracle holds at every tick" test_cosim_oracle;
        tc "repeated controller crash" test_repeated_controller_crash;
        tc "degraded misses answered by the controller" test_degraded_answered_by_controller;
        tc "registry is domain-independent" test_registry_domain_independent;
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
