type timing = {
  authority_service : float;
  controller_service : float;
  controller_rtt : float;
  queue_capacity : int;
  install_latency : float;
}

let default_timing =
  {
    authority_service = 1.25e-6;
    controller_service = 20e-6;
    controller_rtt = 10e-3;
    queue_capacity = 2000;
    install_latency = 0.;
  }

module Config = struct
  type t = {
    timing : timing;
    faults : Fault.plan option;
    monitor : Monitor.t option;
    congestion : Congestion.config option;
    controller : (now:float -> unit) option;
    controller_interval : float;
    domains : int;
  }

  let default =
    {
      timing = default_timing;
      faults = None;
      monitor = None;
      congestion = None;
      controller = None;
      controller_interval = 0.01;
      domains = 1;
    }
end

type authority_stat = {
  switch_id : int;
  misses_served : int;
  misses_rejected : int;
}

(* Registry mirrors for packet outcomes; the first-packet-delay histogram
   is the registry's view of the per-run Summary. *)
let m_delivered = Telemetry.counter "sim_packets_delivered"
let m_cache_hits = Telemetry.counter "sim_cache_hit_packets"
let m_completed = Telemetry.counter "sim_flows_completed"
let m_dropped = Telemetry.counter "sim_flows_dropped"
let m_degraded = Telemetry.counter "sim_degraded_packets"
let m_install_drops = Telemetry.counter "sim_install_drops"
let m_outage_drops = Telemetry.counter "sim_outage_drops"
let m_backpressured = Telemetry.counter "sim_backpressured_misses"
let h_first_packet = Telemetry.histogram "sim_first_packet_delay"

type result = {
  offered_flows : int;
  completed_flows : int;
  dropped_flows : int;
  delivered_packets : int;
  cache_hit_packets : int;
  duration : float;
  setup_throughput : float;
  first_packet_delay : Summary.t option;
  delays : float array;
  flow_delays : (float * float) array;
  miss_delays : float array;
  stretches : float array;
  authority_stats : authority_stat list;
  degraded_packets : int;
  install_drops : int;
  outage_drops : int;
  queue_drops : int;
  ecn_marks : int;
  backpressured : int;
}

(* Growable float vector: the per-flow sample accumulators used to cons
   list cells on the packet hot path; now they write into a doubling
   array, allocation-free in steady state. *)
module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (max 16 (2 * t.n)) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n

  let iter f t =
    for i = 0 to t.n - 1 do
      f t.a.(i)
    done

  let append dst src = iter (push dst) src
end

type acc = {
  mutable completed : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable cache_hits : int;
  mutable first_arrival : float;
  mutable last_arrival : float;
  mutable first_delivery : float;
  mutable last_delivery : float;
  delays : Fvec.t;
  fd_starts : Fvec.t;  (* flow_delays, split into parallel lanes *)
  fd_delays : Fvec.t;
  miss_delays : Fvec.t;
  stretches : Fvec.t;
  mutable degraded : int;
  mutable install_drops : int;
  mutable outage : int;
  mutable backpressured : int;
}

let fresh_acc () =
  {
    completed = 0;
    dropped = 0;
    delivered = 0;
    cache_hits = 0;
    first_arrival = infinity;
    last_arrival = 0.;
    first_delivery = infinity;
    last_delivery = 0.;
    delays = Fvec.create ();
    fd_starts = Fvec.create ();
    fd_delays = Fvec.create ();
    miss_delays = Fvec.create ();
    stretches = Fvec.create ();
    degraded = 0;
    install_drops = 0;
    outage = 0;
    backpressured = 0;
  }

(* Fold one run's (or shard's) tallies into the registry, once, after the
   event loop drains.  Every operation is a commutative atomic add, so
   worker domains mirroring concurrently produce the same final registry
   values as any serial order — and the packet hot path pays nothing. *)
let mirror_registry acc =
  Telemetry.add m_delivered acc.delivered;
  Telemetry.add m_cache_hits acc.cache_hits;
  Telemetry.add m_completed acc.completed;
  Telemetry.add m_dropped acc.dropped;
  Telemetry.add m_degraded acc.degraded;
  Telemetry.add m_install_drops acc.install_drops;
  Telemetry.add m_outage_drops acc.outage;
  Telemetry.add m_backpressured acc.backpressured;
  Fvec.iter (Telemetry.observe h_first_packet) acc.delays

let finish ?(authority_stats = []) ?(queue_drops = 0) ?(ecn_marks = 0)
    acc ~offered =
  let duration =
    if acc.last_delivery > acc.first_arrival then acc.last_delivery -. acc.first_arrival
    else 0.
  in
  (* Setup rate over max(arrival window, completion span): at low load the
     completions track arrivals (throughput = offered); at saturation the
     completion span stretches to the service capacity, so queued tails
     neither inflate nor deflate the rate. *)
  let arrival_window = acc.last_arrival -. acc.first_arrival in
  let completion_span =
    if acc.first_delivery < acc.last_delivery then acc.last_delivery -. acc.first_delivery
    else 0.
  in
  let window = Float.max arrival_window completion_span in
  let delays = Fvec.to_array acc.delays in
  let starts = Fvec.to_array acc.fd_starts in
  let fdelays = Fvec.to_array acc.fd_delays in
  {
    offered_flows = offered;
    completed_flows = acc.completed;
    dropped_flows = acc.dropped;
    delivered_packets = acc.delivered;
    cache_hit_packets = acc.cache_hits;
    duration;
    setup_throughput =
      (if window > 0. then float_of_int acc.completed /. window else 0.);
    first_packet_delay =
      (if Array.length delays = 0 then None
       else Some (Summary.of_list (Array.to_list delays)));
    delays;
    flow_delays = Array.init (Array.length starts) (fun i -> (starts.(i), fdelays.(i)));
    miss_delays = Fvec.to_array acc.miss_delays;
    stretches = Fvec.to_array acc.stretches;
    authority_stats;
    degraded_packets = acc.degraded;
    install_drops = acc.install_drops;
    outage_drops = acc.outage;
    queue_drops;
    ecn_marks;
    backpressured = acc.backpressured;
  }

(* [live] keeps the registry bumped per event instead of batched at the
   end of the run: required when a monitor or a live controller co-runs,
   because both can snapshot registry counters at simulated times. *)
let deliver ?(was_miss = false) ~live acc engine ~is_first ~arrival ~extra_latency
    ~cache_hit =
  let t = Engine.now engine +. extra_latency in
  acc.delivered <- acc.delivered + 1;
  if live then Telemetry.incr m_delivered;
  if cache_hit then begin
    acc.cache_hits <- acc.cache_hits + 1;
    if live then Telemetry.incr m_cache_hits
  end;
  if t > acc.last_delivery then acc.last_delivery <- t;
  if t < acc.first_delivery then acc.first_delivery <- t;
  if is_first then begin
    acc.completed <- acc.completed + 1;
    if live then Telemetry.incr m_completed;
    let delay = t -. arrival in
    Fvec.push acc.delays delay;
    Fvec.push acc.fd_starts arrival;
    Fvec.push acc.fd_delays delay;
    if live then Telemetry.observe h_first_packet delay;
    if was_miss then Fvec.push acc.miss_delays delay
  end

let prop topo a b = Option.value ~default:0. (Topology.distance topo a b)

let egress_latency topo ~from action =
  match Action.egress action with Some e -> prop topo from e | None -> 0.

(* One single-engine run: the core every entry point (and every shard of
   a sharded run) executes.  Returns the raw tallies; [finish] renders
   them (or a shard-ordered merge of several) into a [result]. *)
type raw = {
  racc : acc;
  rastats : authority_stat list;
  rqueue_drops : int;
  recn_marks : int;
}

let run_core ?(shard = 0) (cfg : Config.t) d flows =
  let timing = cfg.timing in
  let engine = Engine.create () in
  (* Tracing rails: this shard's postcards (and Trace events) go to the
     shard's own ring/lane, so the read side's shard-index-ordered merge
     is byte-identical at any domain count.  Both binds are no-ops when
     the facility is off. *)
  Ptrace.bind ~shard;
  Telemetry.Trace.bind ~lane:shard;
  let acc = fresh_acc () in
  let live = cfg.monitor <> None || cfg.controller <> None in
  (* Live-controller co-simulation: before each packet event, run the
     caller's control-loop callback at every crossed tick boundary (with
     the boundary time, so the controller's own clocks stay exact).  The
     controller mutates the same deployment the packets walk — this is
     how the adaptive rebalancer closes the loop on live traffic. *)
  let next_tick = ref cfg.controller_interval in
  let catch_up now =
    match cfg.controller with
    | None -> ()
    | Some tick ->
        while !next_tick <= now do
          tick ~now:!next_tick;
          next_tick := !next_tick +. cfg.controller_interval
        done
  in
  let topo = Deployment.topology d in
  let servers = Hashtbl.create 8 in
  let server_for auth =
    match Hashtbl.find_opt servers auth with
    | Some s -> s
    | None ->
        let s =
          Server.create engine ~service_time:timing.authority_service
            ~queue_capacity:timing.queue_capacity
        in
        Hashtbl.add servers auth s;
        s
  in
  (* the degraded path's controller, created only if a miss ever needs it *)
  let controller = ref None in
  let controller_server () =
    match !controller with
    | Some s -> s
    | None ->
        let s =
          Server.create engine ~service_time:timing.controller_service
            ~queue_capacity:timing.queue_capacity
        in
        controller := Some s;
        s
  in
  (* Fault plan hooks: install messages cross the same lossy fabric as
     the control plane, so each draws an independent Bernoulli from the
     plan's seed; scheduled crash/restart and link flaps drive the
     data-plane reachability model. *)
  let install_rng, install_drop =
    match cfg.faults with
    | None -> (Prng.create 0, 0.)
    | Some (p : Fault.plan) -> (Prng.create (p.Fault.seed lxor 0x51ab), p.Fault.link.Fault.drop)
  in
  (* Live controller replicas: while every one is down, the degraded
     (NOX-style fallback) path has no one to answer it. *)
  let controllers_up =
    ref (match cfg.faults with None -> 1 | Some (p : Fault.plan) -> p.Fault.controllers)
  in
  (match cfg.faults with
  | None -> ()
  | Some p ->
      List.iter
        (fun ev ->
          Engine.schedule engine ~at:(Fault.event_time ev) (fun () ->
              match ev with
              | Fault.Crash { switch; _ } | Fault.Link_down { switch; _ } ->
                  Deployment.mark_unreachable d switch
              | Fault.Restart { switch; _ } | Fault.Link_up { switch; _ } ->
                  Deployment.mark_reachable d switch
              | Fault.Controller_crash _ -> decr controllers_up
              | Fault.Controller_restart _ -> incr controllers_up))
        p.Fault.events);
  let idle_timeout = (Deployment.config d).Deployment.cache_idle_timeout in
  let hard_timeout = (Deployment.config d).Deployment.cache_hard_timeout in
  (* Congestion model: per-port virtual-clock queues shared with the
     deployment walk's semantics.  The config override (if any) wins over
     the deployment's; a disabled config is the legacy plane — infinite
     buffers, zero serialization — and every congestion hook below
     degenerates to a no-op, keeping legacy runs bit-identical. *)
  let ccfg =
    match cfg.congestion with
    | Some c -> c
    | None -> (Deployment.config d).Deployment.congestion
  in
  let cong = if Congestion.enabled ccfg then Some (Congestion.create ccfg) else None in
  let credit_mode = cong <> None && ccfg.Congestion.mode = Congestion.Credit in
  (* Credit-based flow control: one shared pool per authority bounds its
     misses in flight (tunnelled or queued for a setup slot).  Credits
     return when the authority finishes — or sheds — the miss. *)
  let credits = Hashtbl.create 8 in
  let credit_for auth =
    match Hashtbl.find_opt credits auth with
    | Some r -> r
    | None ->
        let r = ref ccfg.Congestion.credit_pool in
        Hashtbl.add credits auth r;
        r
  in
  (* Book the congestion model along the shortest path [a -> b] starting
     at [now]: [`Ok extra] is queueing delay on top of propagation,
     [`Queue_full] a drop-tail shed at some hop's port buffer. *)
  let congested_path ~now a b =
    match cong with
    | None -> `Ok 0.
    | Some c -> (
        if a = b then `Ok 0.
        else
          match Topology.shortest_path topo a b with
          | None -> `Ok 0.
          | Some path ->
              let rec go extra elapsed = function
                | [] | [ _ ] -> `Ok extra
                | x :: (y :: _ as rest) -> (
                    match Topology.link_between topo x y with
                    | None -> `Ok extra
                    | Some l -> (
                        match Congestion.transit c ~now:(now +. elapsed) ~from:x l with
                        | `Drop -> `Queue_full
                        | `Forward (delay, _marked) ->
                            go (extra +. delay) (elapsed +. delay +. l.Topology.latency) rest))
              in
              go 0. 0. path)
  in
  let deliver_leg ~now ~from action =
    match Action.egress action with None -> `Ok 0. | Some e -> congested_path ~now from e
  in
  let flow_dropped ~is_first =
    if is_first then begin
      acc.dropped <- acc.dropped + 1;
      if live then Telemetry.incr m_dropped
    end
  in
  (* Controller path, NOX-style: half an RTT up, a controller service
     slot, half an RTT back.  Reached for [`Failure] (no live replica for
     the header's partition — [Deployment.inject] then answers from the
     policy and installs the reactive microflow at the ingress) and for
     [`Backpressure] (credit mode found the authority saturated, so the
     ingress defers re-splicing; the replicas are alive, so the
     controller is asked directly and the accounting stays separate). *)
  let serve_via_controller ~cause (flow : Traffic.flow) ~is_first ~pkt =
    if !controllers_up <= 0 then begin
      (* total controller outage on top of total replica loss: the packet
         has nowhere to go — the one genuinely fatal combination *)
      acc.outage <- acc.outage + 1;
      if live then Telemetry.incr m_outage_drops;
      Ptrace.emit ~at:(Engine.now engine) Ptrace.Drop ~switch:flow.ingress ~rule:(-1)
        ~aux:Ptrace.drop_outage;
      flow_dropped ~is_first
    end
    else
    Engine.after engine ~delay:(timing.controller_rtt /. 2.) (fun () ->
        Ptrace.resume_packet ~pkt flow.header;
        let accepted =
          Server.submit (controller_server ()) (fun () ->
              let now = Engine.now engine in
              Ptrace.resume_packet ~pkt flow.header;
              (* the Deployment walk emits this packet's remaining
                 postcards (controller verdict, install, terminal) on the
                 resumed context — no terminal is emitted here *)
              let o =
                match cause with
                | `Failure ->
                    let o =
                      Deployment.inject ~pkt d ~now ~ingress:flow.ingress flow.header
                    in
                    acc.degraded <- acc.degraded + 1;
                    if live then Telemetry.incr m_degraded;
                    o
                | `Backpressure ->
                    Deployment.controller_serve ~cause:`Backpressure d ~now
                      ~ingress:flow.ingress flow.header
              in
              deliver ~was_miss:true ~live acc engine ~is_first ~arrival:flow.start
                ~extra_latency:
                  ((timing.controller_rtt /. 2.)
                  +. egress_latency topo ~from:flow.ingress o.Deployment.action)
                ~cache_hit:false)
        in
        if not accepted then begin
          Ptrace.emit ~at:(Engine.now engine) Ptrace.Drop ~switch:flow.ingress
            ~rule:(-1) ~aux:Ptrace.drop_rejected;
          flow_dropped ~is_first
        end)
  in
  let serve_degraded = serve_via_controller ~cause:`Failure in
  let process_packet (flow : Traffic.flow) ~is_first =
    let now = Engine.now engine in
    catch_up now;
    (* opened after [catch_up], so controller ticks never inherit a
       packet context; the packet id rides into every deferred
       continuation below via [resume_packet] *)
    let pkt = Ptrace.begin_packet now flow.header in
    (match cfg.monitor with
    | Some m -> Monitor.observe_packet m ~now ~ingress:flow.ingress flow.header
    | None -> ());
    let ingress_sw = Deployment.switch d flow.ingress in
    match Switch.process ingress_sw ~now flow.header with
    | Switch.Local (action, bank) -> (
        match deliver_leg ~now ~from:flow.ingress action with
        | `Queue_full ->
            Ptrace.emit ~at:now Ptrace.Drop ~switch:flow.ingress ~rule:(-1)
              ~aux:Ptrace.drop_queue_full;
            flow_dropped ~is_first
        | `Ok extra ->
            let lat = egress_latency topo ~from:flow.ingress action +. extra in
            Ptrace.emit ~at:(now +. lat) Ptrace.Deliver
              ~switch:
                (match Action.egress action with Some e -> e | None -> flow.ingress)
              ~rule:(-1)
              ~aux:(if bank = Switch.Cache_bank then 1 else 0);
            deliver ~live acc engine ~is_first ~arrival:now ~extra_latency:lat
              ~cache_hit:(bank = Switch.Cache_bank))
    | Switch.Unmatched ->
        Ptrace.emit ~at:now Ptrace.Drop ~switch:flow.ingress ~rule:(-1)
          ~aux:Ptrace.drop_unmatched;
        flow_dropped ~is_first
    | Switch.Misconfigured ->
        Ptrace.emit ~at:now Ptrace.Drop ~switch:flow.ingress ~rule:(-1)
          ~aux:Ptrace.drop_misconfigured;
        flow_dropped ~is_first
    | Switch.Tunnel nominal -> (
        match Deployment.resolve_authority d ~ingress:flow.ingress flow.header ~nominal with
        | None -> serve_degraded flow ~is_first ~pkt
        | Some auth ->
        if credit_mode && !(credit_for auth) <= ccfg.Congestion.credit_low_water then begin
          (* the pool is drained to the low-water mark: the authority is
             saturated, so defer re-splicing instead of piling on *)
          acc.backpressured <- acc.backpressured + 1;
          if live then Telemetry.incr m_backpressured;
          Ptrace.emit ~at:now Ptrace.Backpressure ~switch:auth ~rule:(-1) ~aux:0;
          serve_via_controller ~cause:`Backpressure flow ~is_first ~pkt
        end
        else begin
        if credit_mode then decr (credit_for auth);
        let return_credit () = if credit_mode then incr (credit_for auth) in
        match congested_path ~now flow.ingress auth with
        | `Queue_full ->
            return_credit ();
            Ptrace.emit ~at:now Ptrace.Drop ~switch:flow.ingress ~rule:(-1)
              ~aux:Ptrace.drop_queue_full;
            flow_dropped ~is_first
        | `Ok tunnel_extra ->
        let tunnel_latency = prop topo flow.ingress auth +. tunnel_extra in
        (* the miss packet reaches the authority, then queues for a
           flow-setup slot *)
        Engine.after engine ~delay:tunnel_latency (fun () ->
            Ptrace.resume_packet ~pkt flow.header;
            Ptrace.emit ~at:(Engine.now engine) Ptrace.Transit ~switch:auth ~rule:(-1)
              ~aux:0;
            let accepted =
              Server.submit (server_for auth) (fun () ->
                  return_credit ();
                  let now = Engine.now engine in
                  Ptrace.resume_packet ~pkt flow.header;
                  match
                    Switch.serve_miss ~mode:(Deployment.config d).Deployment.cache_mode
                      ?cover_limit:
                        (Aggregate.cover_limit
                           (Deployment.config d).Deployment.aggregation)
                      (Deployment.switch d auth) ~now flow.header
                  with
                  | None ->
                      Ptrace.emit ~at:now Ptrace.Drop ~switch:auth ~rule:(-1)
                        ~aux:Ptrace.drop_no_authority;
                      flow_dropped ~is_first
                  | Some { Switch.action; cache_rule = _; origin_id = _; pid = _; installs } -> (
                      (* the install message travels back to the ingress
                         and updates its table off the packet's critical
                         path — unless the lossy fabric eats it, in which
                         case later packets of the flow miss again and
                         retrigger the install (the recovery path) *)
                      if install_drop > 0. && Prng.float install_rng < install_drop then
                        begin
                          acc.install_drops <- acc.install_drops + 1;
                          if live then Telemetry.incr m_install_drops
                        end
                      else
                        Engine.after engine ~delay:timing.install_latency (fun () ->
                            Ptrace.resume_packet ~pkt flow.header;
                            ignore
                              (Aggregate.install ?idle_timeout ?hard_timeout
                                 (Deployment.aggregator d) ingress_sw
                                 ~now:(Engine.now engine) installs));
                      (match Action.egress action with
                      | Some e ->
                          Fvec.push acc.stretches
                            (Topology.stretch topo ~src:flow.ingress ~via:auth ~dst:e)
                      | None -> ());
                      match deliver_leg ~now:(Engine.now engine) ~from:auth action with
                      | `Queue_full ->
                          Ptrace.emit ~at:(Engine.now engine) Ptrace.Drop ~switch:auth
                            ~rule:(-1) ~aux:Ptrace.drop_queue_full;
                          flow_dropped ~is_first
                      | `Ok extra ->
                          let lat = egress_latency topo ~from:auth action +. extra in
                          Ptrace.emit ~at:(Engine.now engine +. lat) Ptrace.Deliver
                            ~switch:
                              (match Action.egress action with
                              | Some e -> e
                              | None -> auth)
                            ~rule:(-1) ~aux:0;
                          deliver ~was_miss:true ~live acc engine ~is_first
                            ~arrival:flow.start ~extra_latency:lat ~cache_hit:false))
            in
            if not accepted then begin
              return_credit ();
              Ptrace.emit ~at:(Engine.now engine) Ptrace.Drop ~switch:auth ~rule:(-1)
                ~aux:Ptrace.drop_rejected;
              flow_dropped ~is_first
            end)
        end)
  in
  (* Packet arrivals are packed events: the payload carries the flow's
     index and the first-packet bit, so a million-flow schedule costs four
     scalar lanes per event and no closures. *)
  let flows_arr = Array.of_list flows in
  let k_packet =
    Engine.kind engine (fun payload ->
        process_packet flows_arr.(payload lsr 1) ~is_first:(payload land 1 = 1))
  in
  Array.iteri
    (fun idx (flow : Traffic.flow) ->
      if flow.start < acc.first_arrival then acc.first_arrival <- flow.start;
      if flow.start > acc.last_arrival then acc.last_arrival <- flow.start;
      Engine.post engine ~at:flow.start k_packet ((idx lsl 1) lor 1);
      for i = 1 to flow.packets - 1 do
        Engine.post engine
          ~at:(flow.start +. (float_of_int i *. flow.interval))
          k_packet (idx lsl 1)
      done)
    flows_arr;
  Engine.run engine;
  catch_up (Engine.now engine);
  (match cfg.monitor with
  | Some m -> Monitor.finish m ~now:(Engine.now engine)
  | None -> ());
  if not live then mirror_registry acc;
  let authority_stats =
    Hashtbl.fold
      (fun auth server acc ->
        { switch_id = auth;
          misses_served = Server.completed server;
          misses_rejected = Server.rejected server }
        :: acc)
      servers []
    |> List.sort (fun a b -> Int.compare a.switch_id b.switch_id)
  in
  let queue_drops, ecn_marks =
    match cong with
    | None -> (0, 0)
    | Some c ->
        let s = Congestion.stats c in
        (s.Congestion.drops, s.Congestion.marks)
  in
  { racc = acc; rastats = authority_stats; rqueue_drops = queue_drops;
    recn_marks = ecn_marks }

let run (cfg : Config.t) d flows =
  if cfg.domains <> 1 then
    invalid_arg "Flowsim.run: domains > 1 needs run_sharded (per-shard deployments)";
  let r = run_core cfg d flows in
  finish ~authority_stats:r.rastats ~queue_drops:r.rqueue_drops
    ~ecn_marks:r.recn_marks r.racc ~offered:(List.length flows)

(* Deterministic cross-shard merge: always in shard-index order,
   whatever domain ran which shard — counters sum, extrema min/max,
   sample vectors concatenate, authority tallies sum per switch id. *)
let merge_raws raws ~offered =
  let macc = fresh_acc () in
  let auth = Hashtbl.create 16 in
  let queue_drops = ref 0 and ecn_marks = ref 0 in
  Array.iter
    (fun { racc = a; rastats; rqueue_drops; recn_marks } ->
      macc.completed <- macc.completed + a.completed;
      macc.dropped <- macc.dropped + a.dropped;
      macc.delivered <- macc.delivered + a.delivered;
      macc.cache_hits <- macc.cache_hits + a.cache_hits;
      macc.first_arrival <- Float.min macc.first_arrival a.first_arrival;
      macc.last_arrival <- Float.max macc.last_arrival a.last_arrival;
      macc.first_delivery <- Float.min macc.first_delivery a.first_delivery;
      macc.last_delivery <- Float.max macc.last_delivery a.last_delivery;
      Fvec.append macc.delays a.delays;
      Fvec.append macc.fd_starts a.fd_starts;
      Fvec.append macc.fd_delays a.fd_delays;
      Fvec.append macc.miss_delays a.miss_delays;
      Fvec.append macc.stretches a.stretches;
      macc.degraded <- macc.degraded + a.degraded;
      macc.install_drops <- macc.install_drops + a.install_drops;
      macc.outage <- macc.outage + a.outage;
      macc.backpressured <- macc.backpressured + a.backpressured;
      queue_drops := !queue_drops + rqueue_drops;
      ecn_marks := !ecn_marks + recn_marks;
      List.iter
        (fun s ->
          let served, rejected =
            Option.value ~default:(0, 0) (Hashtbl.find_opt auth s.switch_id)
          in
          Hashtbl.replace auth s.switch_id
            (served + s.misses_served, rejected + s.misses_rejected))
        rastats)
    raws;
  let authority_stats =
    Hashtbl.fold
      (fun switch_id (misses_served, misses_rejected) l ->
        { switch_id; misses_served; misses_rejected } :: l)
      auth []
    |> List.sort (fun a b -> Int.compare a.switch_id b.switch_id)
  in
  finish ~authority_stats ~queue_drops:!queue_drops ~ecn_marks:!ecn_marks macc
    ~offered

let run_sharded (cfg : Config.t) ~shards ~deployment ~flows =
  if shards < 1 then invalid_arg "Flowsim.run_sharded: shards < 1";
  if cfg.faults <> None || cfg.monitor <> None || cfg.controller <> None then
    invalid_arg
      "Flowsim.run_sharded: faults/monitor/controller are cross-shard global \
       state; run them single-domain";
  let cfg1 = { cfg with Config.domains = 1 } in
  let raws = Array.make shards None in
  let offered = Array.make shards 0 in
  (* The shard decomposition and everything computed inside a shard are
     functions of the shard index alone; the domain count only decides
     which domain executes which shard (round-robin), so any count yields
     byte-identical merged results. *)
  let work me nd =
    let i = ref me in
    while !i < shards do
      let s = !i in
      let d = deployment s in
      let fl = flows s in
      offered.(s) <- List.length fl;
      raws.(s) <- Some (run_core ~shard:s cfg1 d fl);
      i := s + nd
    done
  in
  let nd = max 1 (min cfg.Config.domains shards) in
  if nd = 1 then work 0 1
  else begin
    let doms =
      Array.init (nd - 1) (fun j -> Domain.spawn (fun () -> work (j + 1) nd))
    in
    work 0 nd;
    Array.iter Domain.join doms
  end;
  let raws =
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every shard index is covered above *))
      raws
  in
  merge_raws raws ~offered:(Array.fold_left ( + ) 0 offered)

let run_nox ?(timing = default_timing) n flows =
  let engine = Engine.create () in
  let acc = fresh_acc () in
  let controller =
    Server.create engine ~service_time:timing.controller_service
      ~queue_capacity:timing.queue_capacity
  in
  let topo = Nox.topology n in
  let process_packet (flow : Traffic.flow) ~is_first =
    let now = Engine.now engine in
    let sw = Nox.switch n flow.ingress in
    match Tcam.lookup (Switch.cache sw) ~now flow.header with
    | Some r ->
        deliver ~live:false acc engine ~is_first ~arrival:now
          ~extra_latency:(egress_latency topo ~from:flow.ingress r.Rule.action)
          ~cache_hit:true
    | None ->
        (* packet-in: half an RTT to reach the controller, queue + service,
           half an RTT back with the packet-out, then the data-plane leg *)
        Engine.after engine ~delay:(timing.controller_rtt /. 2.) (fun () ->
            let accepted =
              Server.submit controller (fun () ->
                  let now = Engine.now engine in
                  let o = Nox.inject n ~now ~ingress:flow.ingress flow.header in
                  deliver ~was_miss:true ~live:false acc engine ~is_first
                    ~arrival:flow.start
                    ~extra_latency:
                      ((timing.controller_rtt /. 2.)
                      +. egress_latency topo ~from:flow.ingress o.Nox.action)
                    ~cache_hit:false)
            in
            if (not accepted) && is_first then acc.dropped <- acc.dropped + 1)
  in
  let flows_arr = Array.of_list flows in
  let k_packet =
    Engine.kind engine (fun payload ->
        process_packet flows_arr.(payload lsr 1) ~is_first:(payload land 1 = 1))
  in
  Array.iteri
    (fun idx (flow : Traffic.flow) ->
      if flow.start < acc.first_arrival then acc.first_arrival <- flow.start;
      if flow.start > acc.last_arrival then acc.last_arrival <- flow.start;
      Engine.post engine ~at:flow.start k_packet ((idx lsl 1) lor 1);
      for i = 1 to flow.packets - 1 do
        Engine.post engine
          ~at:(flow.start +. (float_of_int i *. flow.interval))
          k_packet (idx lsl 1)
      done)
    flows_arr;
  Engine.run engine;
  mirror_registry acc;
  finish acc ~offered:(List.length flows)

let saturation_throughput ?(timing = default_timing) ~mode ~workload ~rates () =
  List.map
    (fun rate ->
      let flows = workload ~rate in
      let result =
        match mode with
        | `Difane mk ->
            run { Config.default with Config.timing } (mk ()) flows
        | `Nox mk -> run_nox ~timing (mk ()) flows
      in
      (rate, result))
    rates
