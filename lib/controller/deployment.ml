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
    congestion = Congestion.default;
    aggregation = Aggregate.default;
  }

type update = { changed : int list; kept_layout : bool }

type migration_stage = Installed | Flipped

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
  agg : Aggregate.t;
      (* aggregation engine + counters; with [config.aggregation]
         disabled it degenerates to plain provenance installs *)
  computed_layout : bool;
      (* the layout is [Partitioner.compute]'s for the policy: set by
         [build] and [update_policy], cleared by a refit (migration,
         snapshot restore), which [compute] would not reproduce *)
  last_update : update;
  migration : (Journal.migration * migration_stage) option;
      (* the staged migration in flight: set by [Migration_begin] and
         [Migration_flip], cleared by commit or abort *)
  last_evicted : int;
  mutable last_new_installs : int;
  mutable last_new_primary_installs : int;
}

(* misses deferred to the controller path by [Flowsim]'s credit-mode
   backpressure, counted apart from [degraded_count]: overload, not
   failure *)
let m_backpressured = Telemetry.counter "deployment_backpressured_misses"

(* The partition rules of [d]'s layout and assignment, as one bank for
   every switch: checked once, indexed at most once. *)
let partition_bank d =
  Switch.partition_bank
    (Partitioner.partition_rules d.partitioner ~assignment:(Assignment.switch_for d.assignment))

let install_all ?(fresh_tables = true) d =
  let bank = partition_bank d in
  let new_installs = ref 0 in
  let new_primary_installs = ref 0 in
  Array.iteri
    (fun i sw ->
      Switch.install_partition_bank sw bank;
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
  d.last_new_primary_installs <- !new_primary_installs

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
      unreachable = Hashtbl.create 4; degraded_count = ref 0;
      agg = Aggregate.create config.aggregation;
      computed_layout = true; last_update = { changed = []; kept_layout = false };
      migration = None; last_evicted = 0;
      last_new_installs = 0; last_new_primary_installs = 0 }
  in
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

(* The last leg of a verdict: the shortest path from [from] to the
   action's egress switch and its latency. *)
let deliver topo ~from action =
  (* no egress, or an unreachable one: dropped (or counted-and-dropped)
     at [from] *)
  Option.bind (Action.egress action) (leg topo from)
  |> Option.value ~default:([ from ], 0.)

(* The miss path's two halves, with every cache setting read from [d]. *)
let serve_miss d ~now ~authority h =
  Switch.serve_miss ~mode:d.config.cache_mode
    ?cover_limit:(Aggregate.cover_limit d.config.aggregation)
    d.switches.(authority) ~now h

let install d ~now ~ingress installs =
  ignore
    (Aggregate.install ?idle_timeout:d.config.cache_idle_timeout
       ?hard_timeout:d.config.cache_hard_timeout d.agg d.switches.(ingress) ~now installs)

(* Degraded mode: every replica of the header's partition is dead, so the
   miss falls back to the controller (NOX-style reactive setup).  The
   controller knows the policy, decides the packet, and installs an
   exact-match entry at the ingress so the rest of the flow stays in the
   data plane.  Counted separately — a run under total authority loss
   reports degraded throughput instead of wedging. *)
let controller_serve ?(cause = `Failure) d ~now ~ingress h =
  (match cause with
  | `Failure -> incr d.degraded_count
  | `Backpressure -> Telemetry.incr m_backpressured);
  let sw = d.switches.(ingress) in
  let action = Option.value ~default:Action.Drop (Classifier.action d.policy h) in
  let origin =
    Option.map (fun (r : Rule.t) -> r.Rule.id) (Classifier.first_match d.policy h)
  in
  Ptrace.emit ~at:now Ptrace.Controller ~switch:ingress
    ~rule:(Option.value ~default:(-1) origin)
    ~aux:(match cause with `Failure -> 0 | `Backpressure -> 1);
  let install () =
    let rule =
      Rule.make ~id:(Switch.fresh_cache_id sw) ~priority:0
        (Pred.exact (Classifier.schema d.policy) h)
        action
    in
    (* the controller still knows which region the header falls in, so
       even degraded installs carry the full (origin, pid) provenance pair *)
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
        install d ~now ~ingress [ (rule, meta) ]
    | None ->
        ignore
          (Switch.install_cache_rule ?idle_timeout:d.config.cache_idle_timeout
             ?hard_timeout:d.config.cache_hard_timeout ~pid sw ~now rule));
    rule
  in
  (* a miss that queued at the controller behind another packet of its
     flow finds the entry that one installed: answering it installs
     nothing *)
  let installed =
    match Tcam.peek (Switch.cache sw) h with Some _ -> None | None -> Some (install ())
  in
  let path, latency = deliver d.topology ~from:ingress action in
  Ptrace.emit ~at:(now +. latency) Ptrace.Deliver
    ~switch:(List.fold_left (fun _ n -> n) ingress path)
    ~rule:(-1) ~aux:0;
  { action; path; latency; cache_hit = false; authority = None; installed;
    degraded = true }

(* Transit postcards for a shortcut leg: one per node entered. *)
let emit_leg ~at = function
  | [] -> ()
  | _ :: rest ->
      List.iter
        (fun n -> Ptrace.emit ~at Ptrace.Transit ~switch:n ~rule:(-1) ~aux:0)
        rest

let last_node ~default path = List.fold_left (fun _ n -> n) default path

let inject d ~now ~ingress h =
  ignore (Ptrace.begin_packet h);
  let sw = d.switches.(ingress) in
  match Switch.process sw ~now h with
  | Switch.Local (action, bank) ->
      let path, latency = deliver d.topology ~from:ingress action in
      emit_leg ~at:now path;
      Ptrace.emit ~at:(now +. latency) Ptrace.Deliver
        ~switch:(last_node ~default:ingress path)
        ~rule:(-1)
        ~aux:(if bank = Switch.Cache_bank then 1 else 0);
      {
        action;
        path;
        latency;
        cache_hit = (bank = Switch.Cache_bank);
        authority = (if bank = Switch.Authority_bank then Some ingress else None);
        installed = None;
        degraded = false;
      }
  | Switch.Tunnel nominal -> (
      match resolve_authority d ~ingress h ~nominal with
      | None ->
          (* no live replica holds this partition *)
          controller_serve d ~now ~ingress h
      | Some auth -> (
          match leg d.topology ingress auth with
          | None ->
              Ptrace.emit ~at:now Ptrace.Drop ~switch:ingress ~rule:(-1)
                ~aux:Ptrace.drop_unreachable;
              { action = Action.Drop; path = [ ingress ]; latency = 0.; cache_hit = false;
                authority = None; installed = None; degraded = false }
          | Some (p1, l1) -> (
              emit_leg ~at:now p1;
              match serve_miss d ~now ~authority:auth h with
              | None ->
                  (* misrouted: the authority lost its partition (e.g. a crash
                     wiped it, or failover left stale partition rules); rescue
                     the packet through the controller rather than dropping *)
                  let o = controller_serve d ~now ~ingress h in
                  { o with path = join p1 o.path; latency = l1 +. o.latency }
              | Some { Switch.action; cache_rule; origin_id = _; pid = _; installs } ->
                  install d ~now ~ingress installs;
                  let p2, l2 = deliver d.topology ~from:auth action in
                  emit_leg ~at:(now +. l1) p2;
                  Ptrace.emit ~at:(now +. l1 +. l2) Ptrace.Deliver
                    ~switch:(last_node ~default:auth p2)
                    ~rule:(-1) ~aux:0;
                  {
                    action;
                    path = join p1 p2;
                    latency = l1 +. l2;
                    cache_hit = false;
                    authority = Some auth;
                    installed = Some cache_rule;
                    degraded = false;
                  })))
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

let expire_caches d ~now =
  Array.fold_left (fun acc sw -> acc + List.length (Switch.expire_cache sw ~now)) 0 d.switches

let flush_caches d = Array.iter Switch.flush_cache d.switches

(* The id diff of two policies, computed once per update (see the
   interface for the lockstep walk and its cost). *)
type diff = { changed : int list; edits : (Rule.t * Rule.t) list option }

let same_pred (a : Rule.t) (b : Rule.t) = a.pred == b.pred || Pred.equal a.pred b.pred

(* The diff of two id-sorted lists; ids are unique within a classifier,
   so each step consumes one id. *)
let rec merge_by_id ids pairs local olds news =
  match (olds, news) with
  | [], [] -> (List.rev ids, pairs, local)
  | (o : Rule.t) :: os, [] -> merge_by_id (o.id :: ids) pairs false os []
  | [], (n : Rule.t) :: ns -> merge_by_id (n.id :: ids) pairs false [] ns
  | o :: os, n :: ns ->
      if o.id < n.id then merge_by_id (o.id :: ids) pairs false os news
      else if n.id < o.id then merge_by_id (n.id :: ids) pairs false olds ns
      else if o == n || Rule.equal o n then merge_by_id ids pairs local os ns
      else merge_by_id (o.id :: ids) ((o, n) :: pairs) (local && same_pred o n) os ns

let diff_policies ~old_policy new_policy =
  let by_id = List.sort (fun (a : Rule.t) (b : Rule.t) -> Int.compare a.id b.id) in
  let rec lockstep ids pairs local olds news =
    match (olds, news) with
    | (o : Rule.t) :: os, (n : Rule.t) :: ns when o.id = n.id ->
        if o == n || Rule.equal o n then lockstep ids pairs local os ns
        else lockstep (o.id :: ids) ((o, n) :: pairs) (local && same_pred o n) os ns
    | _ ->
        (* the ids part here, or both tables are walked through and the
           merge has nothing left *)
        let rest, pairs, local = merge_by_id [] pairs local (by_id olds) (by_id news) in
        { changed = List.merge Int.compare (List.sort Int.compare ids) rest;
          edits = (if local then Some pairs else None) }
  in
  lockstep [] [] true (Classifier.rules old_policy) (Classifier.rules new_policy)

let same_table (a : Partitioner.partition) (b : Partitioner.partition) =
  a == b
  || a.pid = b.pid && Pred.equal a.region b.region
     && List.equal Rule.equal (Classifier.rules a.table) (Classifier.rules b.table)

(* Install a layout-kept update: [before] is the old partitioner (same
   pids and regions, in the same order), [patched] the partitions whose
   tables changed with their swapped rules, [moved] the ids whose
   priority changed.  A replica that holds the old table gets the swap
   in place, or a rebuilt index for a table where a priority moved; one
   that does not hold it gets the table afresh, which is all that counts
   as a new install.  Tables no replica list places at a switch are
   dropped, and each partition bank is replaced only where it differs. *)
let install_patched d ~(before : Partitioner.t) ~patched ~moved =
  let hosts pid = try Assignment.replicas_of d.assignment pid with Not_found -> [] in
  let bank = partition_bank d in
  Array.iteri
    (fun i sw ->
      Switch.install_partition_bank sw bank;
      List.iter
        (fun (p : Partitioner.partition) ->
          if not (List.mem i (hosts p.pid)) then Switch.drop_authority sw p.pid)
        (Switch.authority_partitions sw))
    d.switches;
  let new_installs = ref 0 and new_primary_installs = ref 0 in
  List.iter2
    (fun (old_p : Partitioner.partition) (p : Partitioner.partition) ->
      let swapped = List.assq_opt p patched in
      List.iteri
        (fun rank host ->
          let sw = d.switches.(host) in
          match (Switch.authority_table sw p.pid, swapped) with
          | Some (held, _), None when same_table held old_p -> ()
          | Some (held, _), Some rules when same_table held old_p ->
              if List.exists (fun (r : Rule.t) -> Int_table.mem moved r.id) rules then
                Switch.install_authority sw p
              else Switch.patch_authority sw p rules
          | _ ->
              incr new_installs;
              if rank = 0 then incr new_primary_installs;
              Switch.install_authority sw p)
        (hosts p.pid))
    before.Partitioner.partitions d.partitioner.Partitioner.partitions;
  d.last_new_installs <- !new_installs;
  d.last_new_primary_installs <- !new_primary_installs

let update_policy ?(flush = true) d ~now new_policy =
  ignore now;
  let diff = diff_policies ~old_policy:d.policy new_policy in
  let assign partitioner =
    Assignment.greedy ?weights:(assignment_weights d.config partitioner)
      ~replication:d.config.replication partitioner ~authority_switches:d.authority_ids
  in
  let d' =
    match diff.edits with
    | Some edits when d.computed_layout ->
        (* [compute] reads only predicates, and none changed: the layout
           it would return is the current one *)
        let edit = Int_table.create 64 and moved = Int_table.create 8 in
        List.iter
          (fun ((o : Rule.t), (n : Rule.t)) ->
            Int_table.replace edit n.id n;
            if o.priority <> n.priority then Int_table.replace moved n.id ())
          edits;
        let partitioner, patched = Partitioner.patch d.partitioner (Int_table.find_opt edit) in
        let d' =
          { d with policy = new_policy; partitioner; assignment = assign partitioner;
                   last_update = { changed = diff.changed; kept_layout = true } }
        in
        install_patched d' ~before:d.partitioner ~patched ~moved;
        d'
    | _ ->
        (* numbered past every pid the old layouts held, so cache
           provenance keyed by pid cannot take an old entry for a new one *)
        let partitioner =
          Partitioner.compute ~heuristic:d.config.heuristic
            ~first_pid:d.partitioner.Partitioner.next_pid new_policy ~k:d.config.k
        in
        let d' =
          { d with policy = new_policy; partitioner; assignment = assign partitioner;
                   computed_layout = true;
                   last_update = { changed = diff.changed; kept_layout = false } }
        in
        install_all d';
        d'
  in
  (* Strict consistency drops every reactive cache entry — stale spliced
     pieces may disagree with the new policy.  Lazy mode leaves them to
     their idle timeouts (experiment F-DYN measures the exposure). *)
  if flush then flush_caches d';
  d'

let last_update d = d.last_update

let invalidate_origins ?(now = 0.) d ~origins =
  Array.fold_left (fun acc sw -> acc + Switch.invalidate_origins sw ~now origins) 0 d.switches

(* One walk over each live switch's provenance collects the entries
   standing for any of [ids]; bucketing them by id restores the per-id
   order. *)
let cache_entries_of_origins d ~live ids =
  let slot = Int_table.create 16 in
  List.iteri (fun k id -> Int_table.replace slot id k) ids;
  let buckets = Array.make (List.length ids) [] in
  Array.iteri
    (fun i sw ->
      if live i then
        List.iter
          (fun (e : Tcam.entry) ->
            let r = e.Tcam.rule in
            match Switch.cache_meta_of_rule sw r.Rule.id with
            | None -> ()
            | Some m ->
                List.iter
                  (fun (part : Switch.cache_part) ->
                    match Int_table.find slot part.Switch.part_origin with
                    | exception Not_found -> ()
                    | k -> (
                        match buckets.(k) with
                        | (j, r') :: _ when j = i && r' == r -> () (* a repeated origin *)
                        | b -> buckets.(k) <- (i, r) :: b))
                  m.Switch.parts)
          (Switch.entries_of_origins sw (Int_table.mem slot)))
    d.switches;
  Array.fold_right List.rev_append buckets []

let fail_authority d failed =
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
  }

let degraded_misses d = !(d.degraded_count)
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
  let assignment =
    Assignment.greedy ~weights:loads ~replication:d.config.replication d.partitioner
      ~authority_switches:d.authority_ids
  in
  let d' = { d with assignment } in
  install_all ~fresh_tables:false d';
  d'

(* ---- staged region migration ----

   A migration moves a sub-region of an overloaded partition to another
   authority in three stages, each its own journal entry so a takeover
   mid-migration can resume or roll back.  Every stage keeps a miss in
   the migrating region on an authority that holds its rules. *)

let partition_of d pid =
  List.find
    (fun (p : Partitioner.partition) -> p.pid = pid)
    d.partitioner.Partitioner.partitions

(* Stage 1: swap the source for its two sub-regions in the partitioner
   and assignment, and install the sub-region tables at their replicas.
   Ingress partition banks still point at the source, whose table stays
   in place: at no instant is a miss without a live authority holding
   its rules. *)
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
  let d' = { d with partitioner; assignment; computed_layout = false } in
  let install pid replicas =
    let p = partition_of d' pid in
    List.iter (fun host -> Switch.install_authority d'.switches.(host) p) replicas
  in
  install m.lo_pid m.lo_replicas;
  install m.hi_pid m.hi_replicas;
  d'

(* Stage 2: rewrite every ingress partition bank from the split layout,
   atomically per switch (the bank is replaced wholesale).  The source's
   table survives until commit, so a miss racing the flip lands on some
   table either way. *)
let flip_split d =
  let bank = partition_bank d in
  Array.iter (fun sw -> Switch.install_partition_bank sw bank) d.switches

(* Roll the layout back to the source partition (abort). *)
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
  { d with partitioner; assignment; computed_layout = false }

(* Stage 3: retire the losing tables (the source's on commit, the
   sub-regions' on abort) and evict the cache entries spliced under the
   retired pids; returns the entries evicted. *)
let scrub_split d ~now (m : Journal.migration) ~aborted =
  let retire pid = List.iter (fun host -> Switch.drop_authority d.switches.(host) pid) in
  if aborted then begin
    retire m.lo_pid m.lo_replicas;
    retire m.hi_pid m.hi_replicas
  end
  else retire m.src_pid m.src_replicas;
  let dead_pids = if aborted then [ m.lo_pid; m.hi_pid ] else [ m.src_pid ] in
  Array.fold_left
    (fun acc sw -> acc + Switch.invalidate_cache_pids sw ~now dead_pids)
    0 d.switches

(* A snapshot's layout, verbatim: refit the partitioner to the recorded
   regions and rebuild the assignment from the recorded replica lists —
   re-cuts that re-running the partitioner could not reproduce. *)
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
  let d' = { d with partitioner; assignment; computed_layout = false } in
  install_all d';
  d'

let migration d = d.migration
let last_evicted d = d.last_evicted

(* Stage 3 of the in-flight migration, either way: an abort first rolls
   the layout back. *)
let end_migration d ~now ~aborted =
  match d.migration with
  | None -> d
  | Some (m, _) ->
      let d = if aborted then unsplit d m else d in
      { d with migration = None; last_evicted = scrub_split d ~now m ~aborted }

let apply d ~now (entry : Journal.entry) =
  match entry with
  | Journal.Build _ -> invalid_arg "Deployment.apply: a Build entry constructs a deployment"
  | Journal.Epoch _ -> d
  | Journal.Policy_update { rules; strict = _ } ->
      let policy = Classifier.of_table_order (Classifier.schema d.policy) rules in
      update_policy ~flush:false d ~now policy
  | Journal.Fail_authority s -> fail_authority d s
  | Journal.Restore_authority s -> restore_authority d s
  | Journal.Declared_dead s ->
      mark_unreachable d s;
      d
  | Journal.Recovered s ->
      mark_reachable d s;
      d
  | Journal.Rebalance loads -> rebalance d ~loads
  | Journal.Migration_begin m -> { (apply_split d m) with migration = Some (m, Installed) }
  | Journal.Migration_flip _ ->
      flip_split d;
      { d with migration = Option.map (fun (m, _) -> (m, Flipped)) d.migration }
  | Journal.Migration_commit _ -> end_migration d ~now ~aborted:false
  | Journal.Migration_abort _ -> end_migration d ~now ~aborted:true
  | Journal.Partition_layout { regions; replicas } -> apply_layout d ~regions ~replicas

let last_new_authority_installs d = d.last_new_installs
let last_new_primary_installs d = d.last_new_primary_installs

let semantically_equal d probes =
  List.for_all
    (fun h ->
      let expected = Classifier.action d.policy h in
      let ingress = 0 in
      let got = (inject d ~now:0. ~ingress h).action in
      match expected with
      | Some a -> Action.equal a got
      | None -> Action.equal Action.Drop got)
    probes

(* [rules] (in table order) clipped to [pred], up to the first that
   covers all of it: the rules after that one decide nothing there. *)
let clip_upto pred rules =
  let rec go acc = function
    | [] -> List.rev acc
    | (r : Rule.t) :: rest -> (
        match Pred.inter r.pred pred with
        | None -> go acc rest
        | Some p when Pred.equal p pred -> List.rev (Rule.with_pred r p :: acc)
        | Some p -> go (Rule.with_pred r p :: acc) rest)
  in
  go [] rules

let counterexample d =
  let schema = Classifier.schema d.policy in
  let differ got want =
    Equiv.counterexample
      (Classifier.of_table_order schema got)
      (Classifier.of_table_order schema want)
  in
  let regions =
    List.map
      (fun (p : Partitioner.partition) ->
        (p, Classifier.rules (Classifier.clip d.policy p.region)))
      d.partitioner.partitions
  in
  (* a header no rule matches is dropped *)
  let policy =
    Classifier.rules d.policy
    @ [ Rule.make ~id:(-1) ~priority:min_int (Pred.any schema) Action.Drop ]
  in
  (* within each entry's predicate, the entries above it and the entry
     itself decide as the policy does; an entry the policy's first
     overlapping rule covers with its own action needs no region algebra *)
  let rec cache above = function
    | [] -> None
    | (e : Rule.t) :: rest -> (
        match clip_upto e.pred policy with
        | [ r ] when Action.equal r.action e.action -> cache (e :: above) rest
        | want -> (
            match differ (clip_upto e.pred (List.rev (e :: above))) want with
            | None -> cache (e :: above) rest
            | hit -> hit))
  in
  Array.to_seqi d.switches
  |> Seq.find_map (fun (i, sw) ->
         (* every held copy of a partition's table decides its region as
            the policy does *)
         let held ((p : Partitioner.partition), want) =
           Option.bind (Switch.authority_table sw p.pid) (fun (q, _) ->
               differ (Classifier.rules (Classifier.clip q.Partitioner.table p.region)) want)
         in
         let bank = List.map (fun (e : Tcam.entry) -> e.Tcam.rule) (Tcam.entries (Switch.cache sw)) in
         Option.map
           (fun h -> (i, h))
           (match List.find_map held regions with None -> cache [] bank | hit -> hit))

let total_cache_entries d =
  Array.fold_left (fun acc sw -> acc + Switch.cache_occupancy sw) 0 d.switches
