(* The congestion model: virtual-clock port queues, drop-tail, ECN,
   credit backpressure — and the differential guarantee that with the
   model off (or enabled but unbounded) every plane behaves exactly as
   the legacy infinite-buffer code did. *)

open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

(* A 1.2e8 bit/s link serializes the default 12-kbit packet in 100 µs —
   round numbers for the virtual-clock arithmetic below. *)
let link = { Topology.src = 0; dst = 1; latency = 1e-4; bandwidth = 1.2e8 }
let ser = 1e-4

(* --- topology: bandwidth is now a validated, meaningful field --- *)

let test_serialization_delay () =
  check (Alcotest.float 1e-12) "bits / bandwidth" ser
    (Topology.serialization_delay link ~bits:12_000);
  check (Alcotest.float 1e-12) "zero bits, zero delay" 0.
    (Topology.serialization_delay link ~bits:0);
  try
    ignore (Topology.serialization_delay link ~bits:(-1));
    Alcotest.fail "negative bits accepted"
  with Invalid_argument _ -> ()

let test_bandwidth_validated () =
  let mk bandwidth =
    Topology.create ~nodes:2 [ { Topology.src = 0; dst = 1; latency = 1.; bandwidth } ]
  in
  ignore (mk 1e9);
  List.iter
    (fun bw ->
      try
        ignore (mk bw);
        Alcotest.failf "bandwidth %f accepted" bw
      with Invalid_argument _ -> ())
    [ 0.; -1e9; Float.nan ]

(* --- config validation --- *)

let test_validate () =
  let reject c =
    try
      Congestion.validate c;
      Alcotest.fail "invalid config accepted"
    with Invalid_argument _ -> ()
  in
  Congestion.validate Congestion.default;
  reject { Congestion.default with packet_bits = 0 };
  reject { Congestion.default with buffer_capacity = Some (-1) };
  reject { Congestion.default with ecn_threshold = Some (-1) };
  reject { Congestion.default with mode = Congestion.Credit; credit_pool = 0 };
  reject
    { Congestion.default with
      mode = Congestion.Credit; credit_pool = 8; credit_low_water = 8 };
  (* low-water only constrains Credit mode *)
  Congestion.validate { Congestion.default with credit_pool = 8; credit_low_water = 8 }

let test_enabled () =
  check Alcotest.bool "default off" false (Congestion.enabled Congestion.default);
  List.iter
    (fun c -> check Alcotest.bool "any knob enables" true (Congestion.enabled c))
    [
      { Congestion.default with model_bandwidth = true };
      { Congestion.default with buffer_capacity = Some 10 };
      { Congestion.default with ecn_threshold = Some 10 };
      { Congestion.default with mode = Congestion.Credit };
    ]

(* --- virtual-clock port queues --- *)

let test_transit_books_serialization () =
  let c = Congestion.create { Congestion.default with model_bandwidth = true } in
  (match Congestion.transit c ~now:0. ~from:0 link with
  | `Forward (d, false) -> check (Alcotest.float 1e-12) "idle port: ser only" ser d
  | _ -> Alcotest.fail "expected unmarked forward");
  (match Congestion.transit c ~now:0. ~from:0 link with
  | `Forward (d, false) ->
      check (Alcotest.float 1e-12) "back-to-back: wait + ser" (2. *. ser) d
  | _ -> Alcotest.fail "expected unmarked forward");
  (* the head packet is on the wire; the second occupies the one slot *)
  check Alcotest.int "one queued" 1 (Congestion.depth c ~now:0. ~from:0 ~to_:1);
  check Alcotest.int "drains with time" 0 (Congestion.depth c ~now:(2. *. ser) ~from:0 ~to_:1);
  (* the reverse direction is a distinct port *)
  check Alcotest.int "directed ports" 0 (Congestion.depth c ~now:0. ~from:1 ~to_:0);
  let s = Congestion.stats c in
  check Alcotest.int "transits" 2 s.Congestion.transits;
  check Alcotest.int "no drops" 0 s.Congestion.drops;
  Congestion.reset c;
  check Alcotest.int "reset clears backlog" 0 (Congestion.depth c ~now:0. ~from:0 ~to_:1);
  check Alcotest.int "reset clears stats" 0 (Congestion.stats c).Congestion.transits

let test_drop_tail () =
  let c =
    Congestion.create
      { Congestion.default with model_bandwidth = true; buffer_capacity = Some 1 }
  in
  (* slot 0: straight to the wire; slot 1: the single buffer slot;
     slot 2: shed *)
  (match Congestion.transit c ~now:0. ~from:0 link with
  | `Forward _ -> ()
  | `Drop -> Alcotest.fail "idle port dropped");
  (match Congestion.transit c ~now:0. ~from:0 link with
  | `Forward _ -> ()
  | `Drop -> Alcotest.fail "buffer slot dropped");
  (match Congestion.transit c ~now:0. ~from:0 link with
  | `Drop -> ()
  | `Forward _ -> Alcotest.fail "over-capacity packet forwarded");
  let s = Congestion.stats c in
  check Alcotest.int "one drop" 1 s.Congestion.drops;
  check Alcotest.int "peak depth saw the full buffer" 1 s.Congestion.peak_depth;
  (* a dropped packet books no transmitter time *)
  check Alcotest.int "backlog unchanged by the drop" 1
    (Congestion.depth c ~now:0. ~from:0 ~to_:1)

let test_ecn_marking () =
  let c =
    Congestion.create
      { Congestion.default with model_bandwidth = true; ecn_threshold = Some 1 }
  in
  let marked () =
    match Congestion.transit c ~now:0. ~from:0 link with
    | `Forward (_, m) -> m
    | `Drop -> Alcotest.fail "unbounded buffer dropped"
  in
  check Alcotest.bool "idle port unmarked" false (marked ());
  check Alcotest.bool "below threshold unmarked" false (marked ());
  check Alcotest.bool "at threshold marked" true (marked ());
  check Alcotest.int "one mark" 1 (Congestion.stats c).Congestion.marks

let test_disabled_is_free () =
  (* enabled-but-unbounded: machinery active, behaviour invisible *)
  let c = Congestion.create { Congestion.default with ecn_threshold = Some max_int } in
  for _ = 1 to 5 do
    match Congestion.transit c ~now:0. ~from:0 link with
    | `Forward (d, m) ->
        check (Alcotest.float 0.) "no serialization when bandwidth unmodelled" 0. d;
        check Alcotest.bool "never marked" false m
    | `Drop -> Alcotest.fail "unbounded buffer dropped"
  done;
  check Alcotest.int "no backlog without serialization" 0
    (Congestion.depth c ~now:0. ~from:0 ~to_:1)

(* --- server edge cases (the DES side of the same buffer semantics) --- *)

let test_server_zero_capacity () =
  let e = Engine.create () in
  let s = Server.create e ~service_time:1.0 ~queue_capacity:0 in
  let served = ref 0 in
  Engine.schedule e ~at:0. (fun () ->
      (* idle server: straight into service, no backlog slot needed *)
      check Alcotest.bool "accepted while idle" true
        (Server.submit s (fun () -> incr served));
      (* busy server with zero backlog: must bounce *)
      check Alcotest.bool "rejected while busy" false
        (Server.submit s (fun () -> incr served)));
  Engine.run e;
  check Alcotest.int "one served" 1 !served;
  check Alcotest.int "rejected" 1 (Server.rejected s);
  check Alcotest.int "completed" 1 (Server.completed s)

let test_server_fifo_among_simultaneous () =
  (* submissions from distinct events at the same timestamp must be
     served in submission order — the engine's FIFO tie-break carries
     through the server's queue *)
  let e = Engine.create () in
  let s = Server.create e ~service_time:1.0 ~queue_capacity:10 in
  let order = ref [] in
  for i = 0 to 4 do
    Engine.schedule e ~at:1. (fun () ->
        ignore (Server.submit s (fun () -> order := i :: !order)))
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO service order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order);
  check (Alcotest.float 1e-9) "five service times" 6. (Engine.now e)

let test_server_rejection_accounting () =
  let e = Engine.create () in
  let s = Server.create e ~service_time:1.0 ~queue_capacity:1 in
  Engine.schedule e ~at:0. (fun () ->
      ignore (Server.submit s (fun () -> ()));
      ignore (Server.submit s (fun () -> ()));
      check Alcotest.bool "third bounces" false (Server.submit s (fun () -> ())));
  Engine.run e;
  (* a rejection must not perturb the queue: both accepted jobs finish *)
  check Alcotest.int "rejected" 1 (Server.rejected s);
  check Alcotest.int "completed" 2 (Server.completed s)

(* --- dataplane walk under congestion --- *)

let policy =
  Classifier.of_specs s2
    [
      (30, [ ("f1", "00000001") ], Action.Drop);
      (10, [ ("f1", "0xxxxxxx") ], Action.Forward 4);
      (0, [], Action.Drop);
    ]

let build ?(congestion = Congestion.default) () =
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with k = 4; congestion }
      ~policy ~topology:(Topology.line 5 ()) ~authority_ids:[ 1; 3 ] ()
  in
  (d, Deployment.topology d)

let test_walk_queue_full () =
  let d, topology = build () in
  let switch = Deployment.switch d in
  (* zero buffers: any busy port sheds.  The first packet books every
     port on its path; the second, walked at the same instant, dies at
     the first busy one. *)
  let c =
    Congestion.create
      { Congestion.default with model_bandwidth = true; buffer_capacity = Some 0 }
  in
  let r1 = Dataplane.packet ~congestion:c ~topology ~switch ~now:0. ~ingress:0 (h 2 0) in
  check Alcotest.bool "first delivered" true r1.Dataplane.delivered;
  check (Alcotest.option Alcotest.reject) "no drop reason" None
    (Option.map (fun _ -> ()) r1.Dataplane.drop_reason);
  let r2 = Dataplane.packet ~congestion:c ~topology ~switch ~now:0. ~ingress:0 (h 3 0) in
  check Alcotest.bool "second shed" false r2.Dataplane.delivered;
  check Alcotest.bool "blames the buffer" true
    (r2.Dataplane.drop_reason = Some Dataplane.Queue_full)

let test_walk_queueing_latency_and_marks () =
  let d, topology = build () in
  let switch = Deployment.switch d in
  let c =
    Congestion.create
      { Congestion.default with model_bandwidth = true; ecn_threshold = Some 0 }
  in
  let r1 = Dataplane.packet ~congestion:c ~topology ~switch ~now:0. ~ingress:0 (h 2 0) in
  let r2 = Dataplane.packet ~congestion:c ~topology ~switch ~now:0. ~ingress:0 (h 3 0) in
  check Alcotest.bool "first sees idle ports, unmarked" false r1.Dataplane.marked;
  check Alcotest.bool "second queues behind it, marked" true r2.Dataplane.marked;
  check Alcotest.bool "queueing shows up in latency" true
    (r2.Dataplane.latency > r1.Dataplane.latency);
  check Alcotest.bool "both still delivered" true
    (r1.Dataplane.delivered && r2.Dataplane.delivered)

let test_walk_ttl_reason () =
  let d, topology = build () in
  let r =
    Dataplane.packet
      ~config:{ Dataplane.default_config with max_ttl = 1 }
      ~topology ~switch:(Deployment.switch d) ~now:0. ~ingress:0 (h 2 0)
  in
  check Alcotest.bool "not delivered" false r.Dataplane.delivered;
  check Alcotest.bool "blames the hop budget" true
    (r.Dataplane.drop_reason = Some Dataplane.Ttl)

(* --- the differential guarantee --- *)

(* Enabled-but-unbounded congestion state: the walk must produce exactly
   the legacy result — action, latency, trace, everything. *)
let test_walk_differential () =
  let unbounded = { Congestion.default with ecn_threshold = Some max_int } in
  let rng = Prng.create 7 in
  for _ = 1 to 40 do
    let hdr = h (Prng.int rng 256) (Prng.int rng 256) in
    let d1, topology = build () in
    let d2, _ = build () in
    let plain = Dataplane.packet ~topology ~switch:(Deployment.switch d1) ~now:0. ~ingress:0 hdr in
    let c = Congestion.create unbounded in
    let cong =
      Dataplane.packet ~congestion:c ~topology ~switch:(Deployment.switch d2) ~now:0.
        ~ingress:0 hdr
    in
    if plain <> cong then Alcotest.fail "unbounded congestion changed the walk"
  done

let incast_topology =
  Topology.create ~nodes:4
    (List.init 3 (fun i ->
         { Topology.src = 0; dst = i + 1; latency = 1e-4; bandwidth = 1.2e8 }))

let incast_policy = Classifier.of_specs s2 [ (1, [], Action.Forward 3) ]

let incast_deployment congestion =
  Deployment.build
    ~config:{ Deployment.default_config with cache_capacity = 0; congestion }
    ~policy:incast_policy ~topology:incast_topology ~authority_ids:[ 1 ] ()

(* 2000 distinct single-packet flows at 40k flows/s into an authority
   that drains 10k misses/s — heavy overload through node 0's port. *)
let incast_flows () =
  List.init 2000 (fun i ->
      {
        Traffic.flow_id = i;
        header = h (i mod 256) (i / 256);
        ingress = 2;
        start = float_of_int i *. 2.5e-5;
        packets = 1;
        interval = 1e-4;
      })

let incast_timing = { Flowsim.default_timing with authority_service = 1e-4 }

let test_flowsim_differential () =
  let r1 =
    Flowsim.run { Flowsim.Config.default with timing = incast_timing }
      (incast_deployment Congestion.default)
      (incast_flows ())
  in
  let r2 =
    Flowsim.run { Flowsim.Config.default with timing = incast_timing }
      (incast_deployment { Congestion.default with ecn_threshold = Some max_int })
      (incast_flows ())
  in
  if r1 <> r2 then Alcotest.fail "unbounded congestion changed the simulation"

(* --- graceful degradation: credit beats drop-tail under overload --- *)

let test_credit_vs_drop_tail () =
  let base =
    { Congestion.default with
      model_bandwidth = true;
      buffer_capacity = Some 16;
      credit_pool = 16;
      credit_low_water = 4;
    }
  in
  let run mode =
    Flowsim.run { Flowsim.Config.default with timing = incast_timing }
      (incast_deployment { base with Congestion.mode })
      (incast_flows ())
  in
  let dt = run Congestion.Drop_tail in
  let cr = run Congestion.Credit in
  check Alcotest.bool "drop-tail sheds at port buffers" true (dt.Flowsim.queue_drops > 0);
  check Alcotest.bool "drop-tail loses flows" true (dt.Flowsim.dropped_flows > 0);
  check Alcotest.bool "credit backpressures instead" true (cr.Flowsim.backpressured > 0);
  check Alcotest.bool "credit loses fewer flows" true
    (cr.Flowsim.dropped_flows < dt.Flowsim.dropped_flows);
  check Alcotest.bool "credit completes more flows" true
    (cr.Flowsim.completed_flows > dt.Flowsim.completed_flows)

(* The untimed walk has no queues: a deployment configured with zero
   buffers and a two-credit pool walks ten simultaneous misses exactly as
   one with the model off, and books no port or backpressure.  Queueing
   is [Flowsim]'s alone. *)
let test_inject_ignores_congestion () =
  let tight =
    { Congestion.default with
      model_bandwidth = true;
      buffer_capacity = Some 0;
      mode = Congestion.Credit;
      credit_pool = 2;
      credit_low_water = 1;
    }
  in
  let plain = incast_deployment Congestion.default and d = incast_deployment tight in
  let transits = Telemetry.counter "congestion_port_transits"
  and backpressured = Telemetry.counter "deployment_backpressured_misses" in
  let before = (Telemetry.value transits, Telemetry.value backpressured) in
  for i = 0 to 9 do
    let hdr = h i 0 in
    let a = Deployment.inject plain ~now:0. ~ingress:2 hdr
    and b = Deployment.inject d ~now:0. ~ingress:2 hdr in
    check action "same action" a.Deployment.action b.Deployment.action;
    check Alcotest.(list int) "same path" a.Deployment.path b.Deployment.path;
    check (Alcotest.float 0.) "same latency" a.Deployment.latency b.Deployment.latency;
    check Alcotest.bool "same degraded" a.Deployment.degraded b.Deployment.degraded;
    check Alcotest.bool "same installed predicate" true
      (Option.equal Pred.equal
         (Option.map (fun (r : Rule.t) -> r.Rule.pred) a.Deployment.installed)
         (Option.map (fun (r : Rule.t) -> r.Rule.pred) b.Deployment.installed))
  done;
  check Alcotest.(pair int int) "no port booked, no miss backpressured" before
    (Telemetry.value transits, Telemetry.value backpressured)

let suite =
  [
    ( "congestion-model",
      [
        tc "serialization delay" test_serialization_delay;
        tc "bandwidth validated" test_bandwidth_validated;
        tc "config validation" test_validate;
        tc "enabled detection" test_enabled;
        tc "virtual-clock booking" test_transit_books_serialization;
        tc "drop-tail" test_drop_tail;
        tc "ECN marking" test_ecn_marking;
        tc "enabled-but-unbounded is free" test_disabled_is_free;
      ] );
    ( "congestion-server",
      [
        tc "zero-capacity queue" test_server_zero_capacity;
        tc "FIFO among simultaneous arrivals" test_server_fifo_among_simultaneous;
        tc "rejection accounting" test_server_rejection_accounting;
      ] );
    ( "congestion-dataplane",
      [
        tc "queue-full drop reason" test_walk_queue_full;
        tc "queueing latency and ECN marks" test_walk_queueing_latency_and_marks;
        tc "ttl drop reason" test_walk_ttl_reason;
      ] );
    ( "congestion-differential",
      [
        tc "walk unchanged when unbounded" test_walk_differential;
        tc "flowsim unchanged when unbounded" test_flowsim_differential;
        tc "inject ignores the model" test_inject_ignores_congestion;
      ] );
    ( "congestion-degradation",
      [
        tc "credit beats drop-tail under overload" test_credit_vs_drop_tail;
      ] );
  ]
