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
    controller : (now:float -> Deployment.t) option;
    domains : int;
  }

  let default =
    {
      timing = default_timing;
      faults = None;
      monitor = None;
      controller = None;
      domains = 1;
    }
end

(* controller-hook tick period, seconds *)
let controller_interval = 0.01

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

  let append dst src =
    for i = 0 to src.n - 1 do
      push dst src.a.(i)
    done
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
  starts : Fvec.t;  (* the flow start of each [delays] entry *)
  miss_delays : Fvec.t;
  stretches : Fvec.t;
  mutable degraded : int;
  mutable install_drops : int;
  mutable outage : int;
  mutable backpressured : int;
  mutable queue_drops : int;
  mutable ecn_marks : int;
  mutable authority_stats : authority_stat list;
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
    starts = Fvec.create ();
    miss_delays = Fvec.create ();
    stretches = Fvec.create ();
    degraded = 0;
    install_drops = 0;
    outage = 0;
    backpressured = 0;
    queue_drops = 0;
    ecn_marks = 0;
    authority_stats = [];
  }

(* The registry gains a run's tallies once, when the run ends: the packet
   path bumps only [acc], and [finish] adds it on the calling domain.  A
   sharded run adds its shard-ordered [merge], so the histogram sums the
   delays in the same order at any domain count. *)
let mirror acc delays =
  Telemetry.add m_delivered acc.delivered;
  Telemetry.add m_cache_hits acc.cache_hits;
  Telemetry.add m_completed acc.completed;
  Telemetry.add m_dropped acc.dropped;
  Telemetry.add m_degraded acc.degraded;
  Telemetry.add m_install_drops acc.install_drops;
  Telemetry.add m_outage_drops acc.outage;
  Telemetry.add m_backpressured acc.backpressured;
  Array.iter (Telemetry.observe h_first_packet) delays

let finish acc ~offered =
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
  mirror acc delays;
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
       else Some (Summary.of_array delays));
    delays;
    flow_delays = Array.map2 (fun s d -> (s, d)) (Fvec.to_array acc.starts) delays;
    miss_delays = Fvec.to_array acc.miss_delays;
    stretches = Fvec.to_array acc.stretches;
    authority_stats = acc.authority_stats;
    degraded_packets = acc.degraded;
    install_drops = acc.install_drops;
    outage_drops = acc.outage;
    queue_drops = acc.queue_drops;
    ecn_marks = acc.ecn_marks;
    backpressured = acc.backpressured;
  }

(* One delivered packet, reaching its egress at [at]. *)
let deliver acc ~was_miss ~is_first ~arrival ~at ~cache_hit =
  acc.delivered <- acc.delivered + 1;
  if cache_hit then acc.cache_hits <- acc.cache_hits + 1;
  if at > acc.last_delivery then acc.last_delivery <- at;
  if at < acc.first_delivery then acc.first_delivery <- at;
  if is_first then begin
    acc.completed <- acc.completed + 1;
    let delay = at -. arrival in
    Fvec.push acc.delays delay;
    Fvec.push acc.starts arrival;
    if was_miss then Fvec.push acc.miss_delays delay
  end

let prop topo a b = Option.value ~default:0. (Topology.distance topo a b)

(* Propagation to an action's egress switch ([Action.egress]); 0 when
   it has none. *)
let egress_latency topo ~from egress = match egress with Some e -> prop topo from e | None -> 0.

(* One single-engine run's state: the core every entry point (and every
   shard of a sharded run) executes.  The stages below share it; per-switch
   tables are arrays indexed by switch id. *)
type state = {
  cfg : Config.t;
  mutable d : Deployment.t;  (* the controller hook's latest deployment *)
  topo : Topology.t;
  engine : Engine.t;
  acc : acc;
  servers : Server.t Lazy.t array;
      (* each authority's flow-setup server, created at its first miss, so
         [authority_stats] lists only authorities that were sent one *)
  controller : Server.t Lazy.t;
      (* the degraded path's controller, created only if a miss needs it *)
  replica_up : bool array;
      (* each controller replica's liveness, kept per replica as [Cluster]
         keeps it, so crashing a dead replica changes nothing *)
  mutable controllers_up : int;
      (* how many of [replica_up] are set: while none is, the degraded
         (NOX-style fallback) path has no one to answer it *)
  install_rng : Prng.t;
  install_drop : float;
  cong : Congestion.t option;
      (* per-port virtual-clock queues shared with the deployment walk's
         semantics; [None] is the legacy plane — infinite buffers, zero
         serialization — and keeps legacy runs bit-identical *)
  credit_mode : bool;
  credit_low_water : int;
  credits : int array;
      (* credit-based flow control: one shared pool per authority bounds
         its misses in flight (tunnelled or queued for a setup slot);
         credits return when the authority finishes — or sheds — the miss *)
}

let create (cfg : Config.t) d engine =
  let ccfg = (Deployment.config d).Deployment.congestion in
  let cong = if Congestion.enabled ccfg then Some (Congestion.create ccfg) else None in
  let n = Array.length (Deployment.switches d) in
  (* install messages cross the same lossy fabric as the control plane,
     so each draws an independent Bernoulli from the plan's seed *)
  let install_rng, install_drop, controllers_up =
    match cfg.faults with
    | None -> (Prng.create 0, 0., 1)
    | Some p ->
        (Prng.create (p.Fault.seed lxor 0x51ab), p.Fault.link.Fault.drop, p.Fault.controllers)
  in
  let server service_time =
    lazy (Server.create engine ~service_time ~queue_capacity:cfg.timing.queue_capacity)
  in
  {
    cfg; d; topo = Deployment.topology d; engine; acc = fresh_acc ();
    servers = Array.init n (fun _ -> server cfg.timing.authority_service);
    controller = server cfg.timing.controller_service;
    replica_up = Array.make controllers_up true; controllers_up;
    install_rng; install_drop; cong;
    credit_mode = cong <> None && ccfg.Congestion.mode = Congestion.Credit;
    credit_low_water = ccfg.Congestion.credit_low_water;
    credits = Array.make n ccfg.Congestion.credit_pool;
  }

let set_replica st c up =
  st.replica_up.(c) <- up;
  st.controllers_up <- Array.fold_left (fun n up -> if up then n + 1 else n) 0 st.replica_up

(* Scheduled crash/restart and link flaps drive the data-plane
   reachability model; controller crashes and restarts the replica
   flags. *)
let fault st = function
  | Fault.Crash { switch; _ } | Fault.Link_down { switch; _ } ->
      Deployment.mark_unreachable st.d switch
  | Fault.Restart { switch; _ } | Fault.Link_up { switch; _ } ->
      Deployment.mark_reachable st.d switch
  | Fault.Controller_crash { controller; _ } -> set_replica st controller false
  | Fault.Controller_restart { controller; _ } -> set_replica st controller true

let return_credit st auth = if st.credit_mode then st.credits.(auth) <- st.credits.(auth) + 1

(* Book the congestion model along the shortest path [a -> b] starting
   at [now]: [`Ok extra] is queueing delay on top of propagation,
   [`Queue_full] a drop-tail shed at some hop's port buffer. *)
let congested_path st ~now a b =
  match st.cong with
  | Some c when a <> b -> (
      match Topology.shortest_path st.topo a b with
      | Some path -> Congestion.transit_path c st.topo ~now path
      | None -> `Ok 0.)
  | _ -> `Ok 0.

(* A terminal drop: the packet's last postcard, and a dropped flow if
   it was the flow's first packet. *)
let drop st ~at ~switch reason ~is_first =
  Ptrace.emit ~at Ptrace.Drop ~switch ~rule:(-1) ~aux:reason;
  if is_first then st.acc.dropped <- st.acc.dropped + 1

(* The delivering terminal: the egress leg from [from] (the ingress, or
   the authority that served the miss), its postcard and the tally. *)
let forward st (flow : Traffic.flow) ~is_first ~now ~from ~was_miss ~cache_hit action =
  let egress = Action.egress action in
  match match egress with None -> `Ok 0. | Some e -> congested_path st ~now from e with
  | `Queue_full -> drop st ~at:now ~switch:from Ptrace.drop_queue_full ~is_first
  | `Ok extra ->
      let lat = egress_latency st.topo ~from egress +. extra in
      let at = now +. lat in
      Ptrace.emit ~at Ptrace.Deliver
        ~switch:(match egress with Some e -> e | None -> from)
        ~rule:(-1)
        ~aux:(if cache_hit then 1 else 0);
      deliver st.acc ~was_miss ~is_first ~arrival:flow.start ~at ~cache_hit

(* Controller path, NOX-style (the NOX baseline takes it for every
   miss): half an RTT up, a controller service slot, half an RTT back,
   where [Deployment.controller_serve] answers from the policy and
   installs the reactive microflow at the ingress.
   Reached for [`Failure] (no live replica for the header's partition)
   and for [`Backpressure] (credit mode found the authority saturated,
   so the ingress defers re-splicing); the cause keeps the accounting
   apart. *)
let via_controller st cause (flow : Traffic.flow) ~is_first ~pkt =
  let timing = st.cfg.timing in
  if st.controllers_up <= 0 then begin
    (* total controller outage on top of total replica loss: the packet
       has nowhere to go — the one genuinely fatal combination *)
    st.acc.outage <- st.acc.outage + 1;
    drop st ~at:(Engine.now st.engine) ~switch:flow.ingress Ptrace.drop_outage ~is_first
  end
  else
    Engine.after st.engine ~delay:(timing.controller_rtt /. 2.) (fun () ->
        Ptrace.resume_packet ~pkt flow.header;
        let accepted =
          Server.submit (Lazy.force st.controller) (fun () ->
              let now = Engine.now st.engine in
              Ptrace.resume_packet ~pkt flow.header;
              (* [controller_serve] emits this packet's remaining
                 postcards (controller verdict, install, terminal) on the
                 resumed context — no terminal is emitted here *)
              let o =
                Deployment.controller_serve ~cause st.d ~now ~ingress:flow.ingress flow.header
              in
              if cause = `Failure then st.acc.degraded <- st.acc.degraded + 1;
              deliver st.acc ~was_miss:true ~is_first ~arrival:flow.start
                ~at:
                  (now
                  +. ((timing.controller_rtt /. 2.)
                     +. egress_latency st.topo ~from:flow.ingress
                          (Action.egress o.Deployment.action)))
                ~cache_hit:false)
        in
        if not accepted then
          drop st ~at:(Engine.now st.engine) ~switch:flow.ingress Ptrace.drop_rejected ~is_first)

(* The authority's flow-setup slot: splice the miss, send the install
   back to the ingress off the packet's critical path, and forward the
   packet from the authority. *)
let serve st (flow : Traffic.flow) ~is_first ~pkt auth () =
  return_credit st auth;
  let now = Engine.now st.engine in
  Ptrace.resume_packet ~pkt flow.header;
  let d0 = st.d in
  match Deployment.serve_miss d0 ~now ~authority:auth flow.header with
  | None -> drop st ~at:now ~switch:auth Ptrace.drop_no_authority ~is_first
  | Some { Switch.action; installs; _ } ->
      (* unless the lossy fabric eats the install message — then later
         packets of the flow miss again and retrigger it (the recovery
         path) *)
      if st.install_drop > 0. && Prng.float st.install_rng < st.install_drop then
        st.acc.install_drops <- st.acc.install_drops + 1
      else
        Engine.after st.engine ~delay:st.cfg.timing.install_latency (fun () ->
            (* a controller decision since the splice may have made it
               stale: the install is lost like a dropped message *)
            if st.d != d0 then st.acc.install_drops <- st.acc.install_drops + 1
            else begin
              Ptrace.resume_packet ~pkt flow.header;
              Deployment.install d0 ~now:(Engine.now st.engine) ~ingress:flow.ingress installs
            end);
      (match Action.egress action with
      | Some e ->
          Fvec.push st.acc.stretches
            (Topology.stretch st.topo ~src:flow.ingress ~via:auth ~dst:e)
      | None -> ());
      forward st flow ~is_first ~now ~from:auth ~was_miss:true ~cache_hit:false action

(* The miss packet reaches the authority, then queues for a flow-setup
   slot. *)
let arrive st (flow : Traffic.flow) ~is_first ~pkt auth () =
  Ptrace.resume_packet ~pkt flow.header;
  Ptrace.emit ~at:(Engine.now st.engine) Ptrace.Transit ~switch:auth ~rule:(-1) ~aux:0;
  let accepted =
    Server.submit (Lazy.force st.servers.(auth)) (serve st flow ~is_first ~pkt auth)
  in
  if not accepted then begin
    return_credit st auth;
    drop st ~at:(Engine.now st.engine) ~switch:auth Ptrace.drop_rejected ~is_first
  end

(* A miss resolved to a live authority: take a credit (or back off to
   the controller when the pool is drained to the low-water mark, as
   the authority is saturated), then tunnel. *)
let tunnel st (flow : Traffic.flow) ~is_first ~pkt ~now auth =
  if st.credit_mode && st.credits.(auth) <= st.credit_low_water then begin
    st.acc.backpressured <- st.acc.backpressured + 1;
    Ptrace.emit ~at:now Ptrace.Backpressure ~switch:auth ~rule:(-1) ~aux:0;
    via_controller st `Backpressure flow ~is_first ~pkt
  end
  else begin
    if st.credit_mode then st.credits.(auth) <- st.credits.(auth) - 1;
    match congested_path st ~now flow.ingress auth with
    | `Queue_full ->
        return_credit st auth;
        drop st ~at:now ~switch:flow.ingress Ptrace.drop_queue_full ~is_first
    | `Ok extra ->
        Engine.after st.engine
          ~delay:(prop st.topo flow.ingress auth +. extra)
          (arrive st flow ~is_first ~pkt auth)
  end

(* The ingress verdict on a packet as it enters the network. *)
let ingress st (flow : Traffic.flow) ~is_first =
  let now = Engine.now st.engine in
  let pkt = Ptrace.begin_packet flow.header in
  (match st.cfg.monitor with
  | Some m -> Monitor.observe_packet m ~now ~ingress:flow.ingress flow.header
  | None -> ());
  match Switch.process (Deployment.switch st.d flow.ingress) ~now flow.header with
  | Switch.Local (action, bank) ->
      forward st flow ~is_first ~now ~from:flow.ingress ~was_miss:false
        ~cache_hit:(bank = Switch.Cache_bank) action
  | Switch.Unmatched -> drop st ~at:now ~switch:flow.ingress Ptrace.drop_unmatched ~is_first
  | Switch.Misconfigured ->
      drop st ~at:now ~switch:flow.ingress Ptrace.drop_misconfigured ~is_first
  | Switch.Tunnel nominal -> (
      match Deployment.resolve_authority st.d ~ingress:flow.ingress flow.header ~nominal with
      | None -> via_controller st `Failure flow ~is_first ~pkt
      | Some auth -> tunnel st flow ~is_first ~pkt ~now auth)

(* Packet arrivals are packed events: the payload carries the flow's
   index and the first-packet bit, so a million-flow schedule costs four
   scalar lanes per event and no closures. *)
let post_arrivals st flows =
  let flows_arr = Array.of_list flows in
  let k_packet =
    Engine.kind st.engine (fun payload ->
        ingress st flows_arr.(payload lsr 1) ~is_first:(payload land 1 = 1))
  in
  Array.iteri
    (fun idx (flow : Traffic.flow) ->
      if flow.start < st.acc.first_arrival then st.acc.first_arrival <- flow.start;
      if flow.start > st.acc.last_arrival then st.acc.last_arrival <- flow.start;
      Engine.post st.engine ~at:flow.start k_packet ((idx lsl 1) lor 1);
      for i = 1 to flow.packets - 1 do
        Engine.post st.engine
          ~at:(flow.start +. (float_of_int i *. flow.interval))
          k_packet (idx lsl 1)
      done)
    flows_arr

(* One single-engine run; returns its tallies, which [finish] renders
   (or a shard-ordered [merge] of several) into a [result]. *)
let run_core ?(shard = 0) (cfg : Config.t) d flows =
  let engine = Engine.create () in
  (* Tracing rail: this shard's postcards go to the shard's own ring, so
     the read side's shard-index-ordered merge is byte-identical at any
     domain count.  The bind is a no-op when tracing is off. *)
  Ptrace.bind ~shard;
  let st = create cfg d engine in
  Option.iter
    (fun (p : Fault.plan) ->
      List.iter
        (fun ev -> Engine.schedule engine ~at:(Fault.event_time ev) (fun () -> fault st ev))
        p.Fault.events)
    cfg.faults;
  post_arrivals st flows;
  (match cfg.controller with
  | None -> Engine.run engine
  | Some tick ->
      (* One clock: the hook runs at each 10 ms boundary after every
         event at or before it, while events remain, and the packets
         walk the deployment it returns *)
      let rec go b =
        Engine.run ~until:b engine;
        if Engine.pending engine > 0 then begin
          st.d <- tick ~now:b;
          go (b +. controller_interval)
        end
      in
      go controller_interval);
  let now = Engine.now engine in
  Option.iter (fun m -> Monitor.finish m ~now) cfg.monitor;
  let acc = st.acc in
  acc.authority_stats <-
    Array.to_seqi st.servers
    |> Seq.filter_map (fun (switch_id, s) ->
           if not (Lazy.is_val s) then None
           else
             let s = Lazy.force s in
             Some { switch_id; misses_served = Server.completed s;
                    misses_rejected = Server.rejected s })
    |> List.of_seq;
  Option.iter
    (fun c ->
      let s = Congestion.stats c in
      acc.queue_drops <- s.Congestion.drops;
      acc.ecn_marks <- s.Congestion.marks)
    st.cong;
  acc

let run (cfg : Config.t) d flows =
  if cfg.domains <> 1 then
    invalid_arg "Flowsim.run: domains > 1 needs run_sharded (per-shard deployments)";
  finish (run_core cfg d flows) ~offered:(List.length flows)

(* Authority tallies of two ascending lists, summed per switch id. *)
let rec merge_stats a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      if x.switch_id < y.switch_id then x :: merge_stats a' b
      else if y.switch_id < x.switch_id then y :: merge_stats a b'
      else
        { x with misses_served = x.misses_served + y.misses_served;
          misses_rejected = x.misses_rejected + y.misses_rejected }
        :: merge_stats a' b'

(* Deterministic cross-shard merge: always in shard-index order,
   whatever domain ran which shard — counters sum, extrema min/max,
   sample vectors concatenate, authority tallies sum per switch id. *)
let merge accs ~offered =
  let m = fresh_acc () in
  Array.iter
    (fun a ->
      m.completed <- m.completed + a.completed;
      m.dropped <- m.dropped + a.dropped;
      m.delivered <- m.delivered + a.delivered;
      m.cache_hits <- m.cache_hits + a.cache_hits;
      m.first_arrival <- Float.min m.first_arrival a.first_arrival;
      m.last_arrival <- Float.max m.last_arrival a.last_arrival;
      m.first_delivery <- Float.min m.first_delivery a.first_delivery;
      m.last_delivery <- Float.max m.last_delivery a.last_delivery;
      Fvec.append m.delays a.delays;
      Fvec.append m.starts a.starts;
      Fvec.append m.miss_delays a.miss_delays;
      Fvec.append m.stretches a.stretches;
      m.degraded <- m.degraded + a.degraded;
      m.install_drops <- m.install_drops + a.install_drops;
      m.outage <- m.outage + a.outage;
      m.backpressured <- m.backpressured + a.backpressured;
      m.queue_drops <- m.queue_drops + a.queue_drops;
      m.ecn_marks <- m.ecn_marks + a.ecn_marks;
      m.authority_stats <- merge_stats m.authority_stats a.authority_stats)
    accs;
  finish m ~offered
let run_sharded (cfg : Config.t) ~shards ~deployment ~flows =
  if shards < 1 then invalid_arg "Flowsim.run_sharded: shards < 1";
  if cfg.faults <> None || cfg.monitor <> None || cfg.controller <> None then
    invalid_arg
      "Flowsim.run_sharded: faults/monitor/controller are cross-shard global \
       state; run them single-domain";
  let cfg1 = { cfg with Config.domains = 1 } in
  let accs = Array.make shards None in
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
      accs.(s) <- Some (run_core ~shard:s cfg1 d fl);
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
  let accs =
    Array.map
      (function
        | Some a -> a
        | None -> assert false (* every shard index is covered above *))
      accs
  in
  merge accs ~offered:(Array.fold_left ( + ) 0 offered)
