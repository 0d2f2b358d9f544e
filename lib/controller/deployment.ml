let log_src = Logs.Src.create "difane.deployment" ~doc:"DIFANE deployment events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  k : int;
  heuristic : Partitioner.heuristic;
  cache_capacity : int;
  cache_idle_timeout : float option;
  cache_hard_timeout : float option;
  balance : [ `Rules | `Volume ];
  replication : int;
  cache_mode : [ `Spliced | `Microflow ];
  tunnel_to : [ `Primary | `Nearest_replica ];
  authority_tcam : int option;
  congestion : Congestion.config;
  aggregation : Aggregate.config;
}

let default_config =
  {
    k = 4;
    heuristic = Partitioner.Best_cut;
    cache_capacity = 1000;
    cache_idle_timeout = Some 10.;
    cache_hard_timeout = None;
    balance = `Rules;
    replication = 1;
    cache_mode = `Spliced;
    tunnel_to = `Primary;
    authority_tcam = None;
    congestion = Congestion.default;
    aggregation = Aggregate.default;
  }

type t = {
  policy : Classifier.t;
  topology : Topology.t;
  switches : Switch.t array;
  partitioner : Partitioner.t;
  assignment : Assignment.t;
  authority_ids : int list;
  config : config;
  unreachable : (int, unit) Hashtbl.t;
  degraded_count : int ref;
      (* misses served via the controller path because no replica of
         their partition was alive; shared across functional updates *)
  backpressured_count : int ref;
      (* misses deferred to the controller path by credit-mode
         backpressure (the authority's inbound port was saturated);
         counted apart from [degraded_count] — overload, not failure *)
  cong : Congestion.t option;
      (* port virtual clocks; [None] when the congestion model is off,
         which reproduces the legacy infinite-buffer walk bit-for-bit *)
  agg : Aggregate.t;
      (* aggregation engine + counters; with [config.aggregation]
         disabled it degenerates to plain provenance installs *)
  mutable last_new_installs : int;
  mutable last_new_primary_installs : int;
}

let m_backpressured = Telemetry.counter "deployment_backpressured_misses"

let install_all ?(fresh_tables = true) d =
  let prules =
    Partitioner.partition_rules d.partitioner
      ~assignment:(Assignment.switch_for d.assignment)
  in
  let new_installs = ref 0 in
  let new_primary_installs = ref 0 in
  Array.iteri
    (fun i sw ->
      Switch.install_partition_rules sw prules;
      (* drop authority tables the new assignment no longer places here;
         on a policy change every table is stale *)
      List.iter
        (fun (p : Partitioner.partition) ->
          let keep =
            (not fresh_tables)
            && (try List.mem i (Assignment.replicas_of d.assignment p.pid)
                with Not_found -> false)
          in
          if not keep then Switch.drop_authority sw p.pid)
        (Switch.authority_partitions sw))
    d.switches;
  List.iter
    (fun (p : Partitioner.partition) ->
      List.iter
        (fun host ->
          let sw = d.switches.(host) in
          let already =
            List.exists
              (fun (q : Partitioner.partition) -> q.pid = p.pid)
              (Switch.authority_partitions sw)
          in
          if not already then begin
            incr new_installs;
            if host = Assignment.switch_for d.assignment p.pid then
              incr new_primary_installs;
            Switch.install_authority sw p
          end)
        (Assignment.replicas_of d.assignment p.pid))
    d.partitioner.Partitioner.partitions;
  d.last_new_installs <- !new_installs;
  d.last_new_primary_installs <- !new_primary_installs;
  Log.debug (fun m ->
      m "installed %d partition rules/switch, %d new authority tables (%d primary)"
        (List.length prules) !new_installs !new_primary_installs)

let assignment_weights config (partitioner : Partitioner.t) =
  match config.balance with
  | `Rules -> None
  | `Volume ->
      Some
        (List.map
           (fun (p : Partitioner.partition) -> (p.pid, Pred.size p.region))
           partitioner.Partitioner.partitions)

let build ?(config = default_config) ?(install : bool = true) ~policy ~topology
    ~authority_ids () =
  if authority_ids = [] then invalid_arg "Deployment.build: no authority switches";
  Congestion.validate config.congestion;
  let n = Topology.nodes topology in
  List.iter
    (fun a ->
      if a < 0 || a >= n then invalid_arg "Deployment.build: authority id outside topology")
    authority_ids;
  let switches =
    Array.init n (fun id -> Switch.create ~id ~cache_capacity:config.cache_capacity)
  in
  let partitioner = Partitioner.compute ~heuristic:config.heuristic policy ~k:config.k in
  if config.replication < 1 then invalid_arg "Deployment.build: replication must be >= 1";
  let assignment =
    Assignment.greedy ?weights:(assignment_weights config partitioner)
      ~replication:config.replication partitioner ~authority_switches:authority_ids
  in
  let d =
    { policy; topology; switches; partitioner; assignment; authority_ids; config;
      unreachable = Hashtbl.create 4; degraded_count = ref 0; backpressured_count = ref 0;
      cong =
        (if Congestion.enabled config.congestion then Some (Congestion.create config.congestion)
         else None);
      agg = Aggregate.create config.aggregation;
      last_new_installs = 0; last_new_primary_installs = 0 }
  in
  (match config.authority_tcam with
  | None -> ()
  | Some budget ->
      List.iter
        (fun a ->
          let usage =
            List.fold_left
              (fun acc pid ->
                let p =
                  List.find
                    (fun (p : Partitioner.partition) -> p.pid = pid)
                    partitioner.Partitioner.partitions
                in
                acc + Classifier.length p.table)
              0 (Assignment.hosted_by assignment a)
          in
          if usage > budget then
            invalid_arg
              (Printf.sprintf
                 "Deployment.build: authority %d needs %d TCAM entries (budget %d); \
                  raise k or use Partitioner.compute_bounded"
                 a usage budget))
        authority_ids);
  if install then install_all d;
  d

let policy d = d.policy
let topology d = d.topology
let partitioner d = d.partitioner
let assignment d = d.assignment
let switch d i = d.switches.(i)
let switches d = d.switches
let authority_ids d = d.authority_ids
let config d = d.config

let mark_unreachable d i = Hashtbl.replace d.unreachable i ()
let mark_reachable d i = Hashtbl.remove d.unreachable i
let is_reachable d i = not (Hashtbl.mem d.unreachable i)

let resolve_authority d ?ingress h ~nominal =
  match (d.config.tunnel_to, ingress) with
  | `Nearest_replica, Some from -> (
      let pid = (Partitioner.find d.partitioner h).Partitioner.pid in
      let reachable =
        List.filter (is_reachable d) (Assignment.replicas_of d.assignment pid)
      in
      let dist a = Option.value ~default:infinity (Topology.distance d.topology from a) in
      match reachable with
      | [] -> None
      | first :: rest ->
          Some (List.fold_left (fun best a -> if dist a < dist best then a else best) first rest))
  | (`Primary | `Nearest_replica), _ ->
      if is_reachable d nominal then Some nominal
      else
        (* the partition rule's backup action: try the replicas in order *)
        let pid = (Partitioner.find d.partitioner h).Partitioner.pid in
        List.find_opt (is_reachable d) (Assignment.replicas_of d.assignment pid)

type outcome = {
  action : Action.t;
  path : int list;
  latency : float;
  cache_hit : bool;
  authority : int option;
  installed : Rule.t option;
  degraded : bool;
}

let leg topo a b =
  if a = b then Some ([ a ], 0.)
  else
    match Topology.shortest_path topo a b with
    | None -> None
    | Some p -> Some (p, Topology.path_latency topo p)

(* Append [next] to [path] without repeating the junction node. *)
let join path next = path @ List.tl next

let deliver topo ~from action =
  match Action.egress action with
  | None -> ([ from ], 0.) (* dropped (or counted-and-dropped) at [from] *)
  | Some egress -> (
      match leg topo from egress with
      | Some (p, l) -> (p, l)
      | None -> ([ from ], 0.))

let exact_pred schema h =
  Pred.make schema
    (List.init (Schema.arity schema) (fun i ->
         Ternary.exact ~width:(Schema.field_bits schema i) (Header.field h i)))

(* Degraded mode: every replica of the header's partition is dead, so the
   miss falls back to the controller (NOX-style reactive setup).  The
   controller knows the policy, decides the packet, and installs an
   exact-match entry at the ingress so the rest of the flow stays in the
   data plane.  Counted separately — a run under total authority loss
   reports degraded throughput instead of wedging. *)
let controller_fallback ?(cause = `Failure) d ~now ~ingress h =
  (match cause with
  | `Failure -> incr d.degraded_count
  | `Backpressure ->
      incr d.backpressured_count;
      Telemetry.incr m_backpressured);
  let sw = d.switches.(ingress) in
  let action = Option.value ~default:Action.Drop (Classifier.action d.policy h) in
  let origin =
    Option.map (fun (r : Rule.t) -> r.Rule.id) (Classifier.first_match d.policy h)
  in
  Ptrace.emit ~at:now Ptrace.Controller ~switch:ingress
    ~rule:(Option.value ~default:(-1) origin)
    ~aux:(match cause with `Failure -> 0 | `Backpressure -> 1);
  let rule =
    Rule.make ~id:(Switch.fresh_cache_id sw) ~priority:0
      (exact_pred (Classifier.schema d.policy) h)
      action
  in
  (* the controller still knows which region the header falls in, so even
     degraded installs carry the full (origin, pid) provenance pair *)
  let pid = (Partitioner.find d.partitioner h).Partitioner.pid in
  (match origin with
  | Some o ->
      (* exact fallbacks flow through the aggregation pipeline too:
         adjacent degraded installs buddy-merge into wider exact blocks *)
      let meta =
        { Switch.pid; kind = Switch.Exact; group = None;
          parts = [ { Switch.part_origin = o; part_rank = 0;
                      part_pred = rule.Rule.pred } ] }
      in
      ignore
        (Aggregate.install ?idle_timeout:d.config.cache_idle_timeout
           ?hard_timeout:d.config.cache_hard_timeout d.agg sw ~now [ (rule, meta) ])
  | None ->
      ignore
        (Switch.install_cache_rule ?idle_timeout:d.config.cache_idle_timeout
           ?hard_timeout:d.config.cache_hard_timeout ~pid sw ~now rule));
  let path, latency = deliver d.topology ~from:ingress action in
  Ptrace.emit ~at:(now +. latency) Ptrace.Deliver
    ~switch:(List.fold_left (fun _ n -> n) ingress path)
    ~rule:(-1) ~aux:0;
  { action; path; latency; cache_hit = false; authority = None;
    installed = Some rule; degraded = true }

(* Pay the congestion model along a node path starting at [now]: book
   each hop's egress port in arrival order.  Returns the queueing delay
   to add on top of the path's propagation latency, or [`Queue_full] when
   a finite buffer sheds the packet. *)
let congested_leg cong topo ~now path =
  match cong with
  | None -> `Ok 0.
  | Some c ->
      let rec go extra elapsed = function
        | [] | [ _ ] -> `Ok extra
        | a :: (b :: _ as rest) -> (
            match Topology.link_between topo a b with
            | None -> invalid_arg "Deployment: non-adjacent leg"
            | Some l -> (
                match Congestion.transit c ~now:(now +. elapsed) ~from:a l with
                | `Drop -> `Queue_full
                | `Forward (delay, _marked) ->
                    go (extra +. delay) (elapsed +. delay +. l.Topology.latency) rest))
      in
      go 0. 0. path

(* Credit-mode backpressure signal for the walk-based plane: the shared
   pool bounds misses queued into the authority, so an ingress defers
   re-splicing (controller fallback) when the authority's inbound port
   holds [credit_pool - credit_low_water] or more packets — the same
   threshold the DES reaches when outstanding credits sink to the low
   water mark. *)
let authority_saturated cong ~now p1 =
  match cong with
  | None -> false
  | Some c -> (
      let cfg = Congestion.config c in
      cfg.Congestion.mode = Congestion.Credit
      &&
      match List.rev p1 with
      | auth :: prev :: _ ->
          Congestion.depth c ~now ~from:prev ~to_:auth
          >= cfg.Congestion.credit_pool - cfg.Congestion.credit_low_water
      | _ -> false)

let queue_drop ~now ~ingress =
  Ptrace.emit ~at:now Ptrace.Drop ~switch:ingress ~rule:(-1)
    ~aux:Ptrace.drop_queue_full;
  { action = Action.Drop; path = [ ingress ]; latency = 0.; cache_hit = false;
    authority = None; installed = None; degraded = false }

(* Transit postcards for a shortcut leg: one per node entered. *)
let emit_leg ~at = function
  | [] -> ()
  | _ :: rest ->
      List.iter
        (fun n -> Ptrace.emit ~at Ptrace.Transit ~switch:n ~rule:(-1) ~aux:0)
        rest

let last_node ~default path = List.fold_left (fun _ n -> n) default path

(* [cong] is threaded explicitly (rather than read from [d]) so that
   semantic checks can run the same walk with congestion bypassed — a
   full buffer must not make [semantically_equal] report a policy
   divergence. *)
let inject_impl ?pkt ~cong d ~now ~ingress h =
  (* [pkt]: the caller (the DES controller path) already opened a traced
     packet for this header — continue it instead of starting a second
     path for the same packet *)
  (match pkt with
  | Some p -> Ptrace.resume_packet ~pkt:p h
  | None -> ignore (Ptrace.begin_packet now h));
  let sw = d.switches.(ingress) in
  match Switch.process sw ~now h with
  | Switch.Local (action, bank) -> (
      let path, latency = deliver d.topology ~from:ingress action in
      match congested_leg cong d.topology ~now path with
      | `Queue_full -> queue_drop ~now ~ingress
      | `Ok extra ->
          emit_leg ~at:now path;
          Ptrace.emit ~at:(now +. latency +. extra) Ptrace.Deliver
            ~switch:(last_node ~default:ingress path)
            ~rule:(-1)
            ~aux:(if bank = Switch.Cache_bank then 1 else 0);
          {
            action;
            path;
            latency = latency +. extra;
            cache_hit = (bank = Switch.Cache_bank);
            authority = (if bank = Switch.Authority_bank then Some ingress else None);
            installed = None;
            degraded = false;
          })
  | Switch.Tunnel nominal -> (
      match resolve_authority d ~ingress h ~nominal with
      | None ->
          (* no live replica holds this partition *)
          controller_fallback d ~now ~ingress h
      | Some auth -> (
      let to_auth = leg d.topology ingress auth in
      match to_auth with
      | None ->
          Ptrace.emit ~at:now Ptrace.Drop ~switch:ingress ~rule:(-1)
            ~aux:Ptrace.drop_unreachable;
          { action = Action.Drop; path = [ ingress ]; latency = 0.; cache_hit = false;
            authority = None; installed = None; degraded = false }
      | Some (p1, l1) -> (
          if authority_saturated cong ~now p1 then begin
            Ptrace.emit ~at:now Ptrace.Backpressure ~switch:auth ~rule:(-1) ~aux:0;
            controller_fallback ~cause:`Backpressure d ~now ~ingress h
          end
          else
          match congested_leg cong d.topology ~now p1 with
          | `Queue_full -> queue_drop ~now ~ingress
          | `Ok e1 -> (
          emit_leg ~at:now p1;
          match
            Switch.serve_miss ~mode:d.config.cache_mode
              ?cover_limit:(Aggregate.cover_limit d.config.aggregation)
              d.switches.(auth) ~now h
          with
          | None ->
              (* misrouted: the authority lost its partition (e.g. a crash
                 wiped it, or failover left stale partition rules); rescue
                 the packet through the controller rather than dropping *)
              let o = controller_fallback d ~now ~ingress h in
              { o with path = join p1 o.path; latency = l1 +. e1 +. o.latency }
          | Some { Switch.action; cache_rule; origin_id = _; pid = _; installs } -> (
              ignore
                (Aggregate.install ?idle_timeout:d.config.cache_idle_timeout
                   ?hard_timeout:d.config.cache_hard_timeout d.agg sw ~now installs);
              let p2, l2 = deliver d.topology ~from:auth action in
              match congested_leg cong d.topology ~now:(now +. l1 +. e1) p2 with
              | `Queue_full -> queue_drop ~now ~ingress
              | `Ok e2 ->
                  emit_leg ~at:(now +. l1 +. e1) p2;
                  Ptrace.emit ~at:(now +. l1 +. e1 +. l2 +. e2) Ptrace.Deliver
                    ~switch:(last_node ~default:auth p2)
                    ~rule:(-1) ~aux:0;
                  {
                    action;
                    path = join p1 p2;
                    latency = l1 +. e1 +. l2 +. e2;
                    cache_hit = false;
                    authority = Some auth;
                    installed = Some cache_rule;
                    degraded = false;
                  })))))
  | Switch.Unmatched ->
      Ptrace.emit ~at:now Ptrace.Drop ~switch:ingress ~rule:(-1)
        ~aux:Ptrace.drop_unmatched;
      { action = Action.Drop; path = [ ingress ]; latency = 0.; cache_hit = false;
        authority = None; installed = None; degraded = false }
  | Switch.Misconfigured ->
      Ptrace.emit ~at:now Ptrace.Drop ~switch:ingress ~rule:(-1)
        ~aux:Ptrace.drop_misconfigured;
      { action = Action.Drop; path = [ ingress ]; latency = 0.; cache_hit = false;
        authority = None; installed = None; degraded = false }

let inject ?pkt d ~now ~ingress h = inject_impl ?pkt ~cong:d.cong d ~now ~ingress h

let controller_serve ?cause d ~now ~ingress h = controller_fallback ?cause d ~now ~ingress h

let expire_caches d ~now =
  Array.fold_left (fun acc sw -> acc + List.length (Switch.expire_cache sw ~now)) 0 d.switches

let flush_caches d = Array.iter (fun sw -> Tcam.clear (Switch.cache sw)) d.switches

let update_policy ?(flush = true) d ~now new_policy =
  ignore now;
  let partitioner =
    Partitioner.compute ~heuristic:d.config.heuristic new_policy ~k:d.config.k
  in
  let assignment =
    Assignment.greedy ?weights:(assignment_weights d.config partitioner)
      ~replication:d.config.replication partitioner ~authority_switches:d.authority_ids
  in
  let d' = { d with policy = new_policy; partitioner; assignment } in
  install_all d';
  (* Strict consistency drops every reactive cache entry — stale spliced
     pieces may disagree with the new policy.  Lazy mode leaves them to
     their idle timeouts (experiment F-DYN measures the exposure). *)
  if flush then flush_caches d';
  d'

let invalidate_origins ?(now = 0.) d ~origins =
  Array.fold_left
    (fun acc sw ->
      let cache = Switch.cache sw in
      let victims =
        Tcam.select cache (fun (e : Tcam.entry) ->
            (* a merged entry stands for several policy rules: it must go
               if ANY of its absorbed origins changed — the conservative
               direction; survivors re-splice on their next miss *)
            List.exists origins (Switch.origins_of_cache_rule sw e.Tcam.rule.Rule.id))
      in
      List.iter (fun (e : Tcam.entry) -> ignore (Tcam.remove cache e.Tcam.rule.Rule.id)) victims;
      (* removing one cover-set member must take its whole group: the
         broad member alone would answer packets its dependencies own *)
      let orphans = Switch.drop_cover_orphans sw ~now in
      acc + List.length victims + orphans)
    0 d.switches

let changed_rule_ids ~old_policy new_policy =
  let ids c = List.map (fun (r : Rule.t) -> r.id) (Classifier.rules c) in
  let all = List.sort_uniq Int.compare (ids old_policy @ ids new_policy) in
  List.filter
    (fun id ->
      match (Classifier.find old_policy id, Classifier.find new_policy id) with
      | None, None -> false
      | Some _, None | None, Some _ -> true
      | Some a, Some b -> not (Rule.equal a b))
    all

let fail_authority d failed =
  Log.info (fun m -> m "authority %d failed; promoting backups" failed);
  let assignment = Assignment.reassign d.assignment ~failed in
  let authority_ids = List.filter (fun a -> a <> failed) d.authority_ids in
  (* The failed switch keeps its cache but loses authority duties. *)
  List.iter
    (fun (p : Partitioner.partition) -> Switch.drop_authority d.switches.(failed) p.pid)
    (Switch.authority_partitions d.switches.(failed));
  let d' = { d with assignment; authority_ids } in
  (* same policy, same partitions: pre-installed backup tables stay valid *)
  install_all ~fresh_tables:false d';
  d'

let restore_authority d i =
  if List.mem i d.authority_ids then d
  else begin
    Log.info (fun m -> m "authority %d rejoins the pool; re-placing partitions" i);
    let authority_ids = List.sort Int.compare (i :: d.authority_ids) in
    let assignment =
      Assignment.greedy ?weights:(assignment_weights d.config d.partitioner)
        ~replication:d.config.replication d.partitioner ~authority_switches:authority_ids
    in
    let d' = { d with assignment; authority_ids } in
    install_all ~fresh_tables:false d';
    d'
  end

(* A standby controller rebuilds deployment state by replaying the
   journal over a *model* deployment (scratch switches, same static
   inputs).  Taking over, it adopts the *physical* network of the
   deployment it replaces: the real switch array, reachability table and
   degraded counter — shared mutable state that records physical facts —
   while keeping the replayed policy, partitioner and assignment (the
   controller decisions the journal is authoritative for).  The new
   leader then re-pushes its configuration reliably; switch-side
   idempotency makes any divergence converge without duplicate installs. *)
let adopt ~model ~network =
  {
    model with
    switches = network.switches;
    topology = network.topology;
    unreachable = network.unreachable;
    degraded_count = network.degraded_count;
    backpressured_count = network.backpressured_count;
    cong = network.cong;
  }

let degraded_misses d = !(d.degraded_count)
let backpressured_misses d = !(d.backpressured_count)
let congestion_state d = d.cong
let aggregator d = d.agg
let aggregate_stats d = Aggregate.stats d.agg

let measured_partition_loads d =
  let totals = Hashtbl.create 16 in
  Array.iter
    (fun sw ->
      List.iter
        (fun (pid, n) ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt totals pid) in
          Hashtbl.replace totals pid (prev +. Int64.to_float n))
        (Switch.partition_load sw))
    d.switches;
  (* every partition appears, even if it served no misses *)
  List.map
    (fun (p : Partitioner.partition) ->
      (p.pid, Option.value ~default:0. (Hashtbl.find_opt totals p.pid)))
    d.partitioner.Partitioner.partitions

let rebalance d ~loads =
  Log.info (fun m -> m "rebalancing %d partitions on measured load" (List.length loads));
  let assignment =
    Assignment.greedy ~weights:loads ~replication:d.config.replication d.partitioner
      ~authority_switches:d.authority_ids
  in
  let d' = { d with assignment } in
  install_all ~fresh_tables:false d';
  d'

(* ---- staged region migration ----

   A migration moves a sub-region of an overloaded partition to another
   authority in three stages, each separately journaled so a takeover
   mid-migration can resume or roll back.  The stage functions below keep
   a strict discipline: [apply_split]/[unsplit] swap the *model* (and
   install/keep tables so every stage is blackhole-free), [flip_split]
   and [scrub_split] touch only the physical switches — replay applies
   them to a scratch model, takeover re-applies the physical half to the
   adopted network without double-swapping the model. *)

let partition_of d pid =
  List.find
    (fun (p : Partitioner.partition) -> p.pid = pid)
    d.partitioner.Partitioner.partitions

let apply_split d (m : Journal.migration) =
  let regions =
    List.concat_map
      (fun (p : Partitioner.partition) ->
        if p.pid = m.src_pid then
          [ (m.lo_pid, m.lo_region); (m.hi_pid, m.hi_region) ]
        else [ (p.pid, p.region) ])
      d.partitioner.Partitioner.partitions
  in
  let partitioner = Partitioner.refit d.partitioner d.policy ~regions in
  let assignment =
    Assignment.split_pid d.assignment ~src:m.src_pid
      ~lo:(m.lo_pid, m.lo_replicas)
      ~hi:(m.hi_pid, m.hi_replicas)
  in
  let d' = { d with partitioner; assignment } in
  (* Install the sub-region tables at their replicas.  Ingress partition
     banks still point at the source, whose table stays in place — at no
     instant is a miss without a live authority holding its rules. *)
  let install pid replicas =
    let p = partition_of d' pid in
    List.iter (fun host -> Switch.install_authority d'.switches.(host) p) replicas
  in
  install m.lo_pid m.lo_replicas;
  install m.hi_pid m.hi_replicas;
  Log.info (fun f ->
      f "migration m%d: split p%d into p%d/p%d; sub-region tables installed"
        m.mid m.src_pid m.lo_pid m.hi_pid);
  d'

let flip_split d =
  (* Physical stage 2: rewrite every ingress partition bank from the
     already-split model, atomically per switch (the bank is replaced
     wholesale).  The source's authority table survives until commit, so
     a miss racing the flip lands on *some* table either way. *)
  let prules =
    Partitioner.partition_rules d.partitioner
      ~assignment:(Assignment.switch_for d.assignment)
  in
  Array.iter (fun sw -> Switch.install_partition_rules sw prules) d.switches

let unsplit d (m : Journal.migration) =
  let regions =
    List.concat_map
      (fun (p : Partitioner.partition) ->
        if p.pid = m.lo_pid then [ (m.src_pid, m.src_region) ]
        else if p.pid = m.hi_pid then []
        else [ (p.pid, p.region) ])
      d.partitioner.Partitioner.partitions
  in
  let partitioner = Partitioner.refit d.partitioner d.policy ~regions in
  let assignment =
    Assignment.merge_pid d.assignment
      ~src:(m.src_pid, m.src_replicas)
      ~lo:m.lo_pid ~hi:m.hi_pid
  in
  Log.info (fun f -> f "migration m%d: rolled back to p%d" m.mid m.src_pid);
  { d with partitioner; assignment }

let scrub_split d ~now (m : Journal.migration) ~aborted =
  let dead_pids = if aborted then [ m.lo_pid; m.hi_pid ] else [ m.src_pid ] in
  if aborted then begin
    List.iter
      (fun host -> Switch.drop_authority d.switches.(host) m.lo_pid)
      m.lo_replicas;
    List.iter
      (fun host -> Switch.drop_authority d.switches.(host) m.hi_pid)
      m.hi_replicas
  end
  else
    List.iter
      (fun host -> Switch.drop_authority d.switches.(host) m.src_pid)
      m.src_replicas;
  Array.fold_left
    (fun acc sw -> acc + Switch.invalidate_cache_pids sw ~now dead_pids)
    0 d.switches

let apply_layout d ~regions ~replicas =
  let partitioner = Partitioner.refit d.partitioner d.policy ~regions in
  let weights =
    List.map
      (fun (p : Partitioner.partition) ->
        (p.pid, float_of_int (Classifier.length p.table)))
      partitioner.Partitioner.partitions
  in
  let assignment =
    Assignment.of_replicas ~replicas ~weights ~authorities:d.authority_ids
      ~replication:d.config.replication
  in
  let d' = { d with partitioner; assignment } in
  install_all d';
  d'

let last_new_authority_installs d = d.last_new_installs
let last_new_primary_installs d = d.last_new_primary_installs

let semantically_equal d probes =
  List.for_all
    (fun h ->
      let expected = Classifier.action d.policy h in
      let ingress = 0 in
      (* bypass the congestion model: this is a semantic check, and a
         full buffer is not a policy divergence *)
      let got = (inject_impl ~cong:None d ~now:0. ~ingress h).action in
      match expected with
      | Some a -> Action.equal a got
      | None -> Action.equal Action.Drop got)
    probes

let total_cache_entries d =
  Array.fold_left (fun acc sw -> acc + Switch.cache_occupancy sw) 0 d.switches
