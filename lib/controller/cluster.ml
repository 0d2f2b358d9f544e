type config = {
  controllers : int;
  snapshot_every : int;
  cp : Control_plane.config;
}

let default_config =
  {
    controllers = 3;
    snapshot_every = 64;
    cp = Control_plane.default_config;
  }

let heartbeat_interval = 0.15

(* missed heartbeats before a standby starts an election *)
let heartbeat_miss_limit = 3

type replica = {
  rid : int;
  mutable up : bool;
  mutable isolated : bool; (* partitioned away from the other controllers *)
  mutable last_heard : float; (* last current-epoch heartbeat received *)
}

type t = {
  config : config;
  faults : Fault.plan option; (* events stripped: the cluster applies them *)
  dconfig : Deployment.config;
  topology : Topology.t;
  schema : Schema.t;
  journal : Journal.t;
  epoch_cell : int ref; (* the cluster-wide current epoch *)
  fenced_appends : int ref; (* journal writes refused from stale leaders *)
  replicas : replica array;
  hb : Channel.t option array array; (* [i].(j): heartbeat channel i -> j *)
  mutable last_hb : float;
  mutable leader_ : int;
  mutable cp : Control_plane.t; (* the current leader's control plane *)
  mutable retired_cps : Control_plane.t list;
      (* previous masters, ticked as transport until their wires drain *)
  mutable events : Fault.event list; (* future events, time order *)
  crashed : (int, unit) Hashtbl.t; (* physically-down switches *)
  links_down : (int, unit) Hashtbl.t;
  mutable leader_lost_at : float option;
  mutable takeover_latencies : float list; (* reverse order *)
  mutable replayed : int; (* journal entries replayed across takeovers *)
  mutable snapshots : int;
  mutable log : (float * string) list; (* reverse order *)
  nswitches : int;
}

(* Registry mirrors for the replication layer, plus a gauge for the
   current epoch so a snapshot shows where mastership stands. *)
let m_elections = Telemetry.counter "cluster_elections"
let m_snapshots = Telemetry.counter "cluster_snapshots"
let m_fenced_appends = Telemetry.counter "cluster_fenced_appends"
let m_replayed = Telemetry.counter "cluster_entries_replayed"
let g_epoch = Telemetry.gauge "cluster_epoch"

let record t ~now fmt = Printf.ksprintf (fun s -> t.log <- (now, s) :: t.log) fmt

(* Journal writes are fenced like control frames: an appender minted for
   epoch [e] only writes while [e] is still the cluster epoch, so a
   not-yet-deposed old master cannot corrupt the log a standby will
   replay. *)
let appender ~journal ~epoch_cell ~fenced for_epoch ~at entry =
  if !epoch_cell = for_epoch then ignore (Journal.append journal ~at entry)
  else begin
    incr fenced;
    Telemetry.incr m_fenced_appends
  end

let switch_channel_span t = 2 * t.nswitches

let stripped_faults t =
  Option.map (fun p -> { p with Fault.events = [] }) t.faults

let create ?(config = default_config) ?faults ?(dconfig = Deployment.default_config)
    ~policy ~topology ~authority_ids () =
  if config.controllers < 1 then invalid_arg "Cluster.create: controllers < 1";
  let schema = Classifier.schema policy in
  let n = Topology.nodes topology in
  let journal = Journal.create () in
  let epoch_cell = ref 1 in
  Telemetry.set g_epoch 1.;
  let fenced = ref 0 in
  ignore (Journal.append journal ~at:0. (Journal.Epoch { epoch = 1; leader = 0 }));
  ignore
    (Journal.append journal ~at:0.
       (Journal.Build { policy = Classifier.rules policy; authority_ids }));
  let deployment =
    Deployment.build ~config:dconfig ~install:false ~policy ~topology ~authority_ids ()
  in
  let faults_no_events = Option.map (fun p -> { p with Fault.events = [] }) faults in
  let cp =
    Control_plane.create ~config:config.cp ?faults:faults_no_events ~epoch:1
      ~journal:(appender ~journal ~epoch_cell ~fenced 1)
      ~channel_offset:0 deployment
  in
  let nc = config.controllers in
  (* heartbeat fault-channel ids live above every control-plane range:
     controller c's switch channels occupy [2nc, 2nc + 2n) *)
  let hb_base = 2 * n * nc in
  let hb =
    Array.init nc (fun i ->
        Array.init nc (fun j ->
            if i = j then None
            else
              let fault =
                Option.map
                  (fun p -> Fault.injector p ~channel:(hb_base + (i * nc) + j))
                  faults
              in
              Some (Channel.create ?fault schema ~latency:Control_plane.channel_latency)))
  in
  {
    config;
    faults;
    dconfig;
    topology;
    schema;
    journal;
    epoch_cell;
    fenced_appends = fenced;
    replicas =
      Array.init nc (fun rid -> { rid; up = true; isolated = false; last_heard = 0. });
    hb;
    last_hb = neg_infinity;
    leader_ = 0;
    cp;
    retired_cps = [];
    events = (match faults with None -> [] | Some p -> p.Fault.events);
    crashed = Hashtbl.create 4;
    links_down = Hashtbl.create 4;
    leader_lost_at = None;
    takeover_latencies = [];
    replayed = 0;
    snapshots = 0;
    log = [];
    nswitches = n;
  }

let leader t = t.leader_
let epoch t = !(t.epoch_cell)
let leader_cp t = t.cp
let deployment t = Control_plane.deployment t.cp
let journal t = t.journal
let takeovers t = List.length t.takeover_latencies
let takeover_latencies t = List.rev t.takeover_latencies
let entries_replayed t = t.replayed
let snapshots t = t.snapshots
let fenced_appends t = !(t.fenced_appends)
let cluster_log t = List.rev t.log

let all_cps t = t.cp :: t.retired_cps

let timeline t =
  List.map (fun (at, s) -> (at, "cluster", s)) (cluster_log t)
  @ List.concat_map Control_plane.timeline (List.rev (all_cps t))
  |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)

let retransmissions t =
  List.fold_left (fun acc cp -> acc + Control_plane.retransmissions cp) 0 (all_cps t)

let giveups t = List.fold_left (fun acc cp -> acc + Control_plane.giveups cp) 0 (all_cps t)

let pending_requests t = Control_plane.pending_requests t.cp

let stats t = Control_plane.sum_stats (all_cps t)

let stale_rejected t =
  Array.fold_left
    (fun acc sw -> acc + Switch.stale_rejected sw)
    0
    (Deployment.switches (deployment t))

let stale_accepted t =
  Array.fold_left
    (fun acc sw -> acc + Switch.stale_accepted sw)
    0
    (Deployment.switches (deployment t))

(* The split-brain audit: after any run, no switch bank may hold the same
   rule (or partition table) twice.  Fencing plus xid dedup plus
   replace-by-id banks guarantee it; the E-HA experiment asserts it. *)
let duplicate_installs t =
  let dups ids = List.length ids - List.length (List.sort_uniq Int.compare ids) in
  Array.fold_left
    (fun acc sw ->
      let partition = List.map (fun (r : Rule.t) -> r.Rule.id) (Switch.partition_rules sw) in
      let tables =
        List.map (fun (p : Partitioner.partition) -> p.Partitioner.pid)
          (Switch.authority_partitions sw)
      in
      let cache =
        List.map (fun (e : Tcam.entry) -> e.Tcam.rule.Rule.id)
          (Tcam.entries (Switch.cache sw))
      in
      acc + dups partition + dups tables + dups cache)
    0
    (Deployment.switches (deployment t))

let push_deployment t ~now = Control_plane.push_deployment t.cp ~now

let update_policy t ~now ?strict policy =
  Control_plane.update_policy t.cp ~now ?strict policy

let isolate t ~now c partitioned =
  t.replicas.(c).isolated <- partitioned;
  record t ~now "controller %d %s the control network" c
    (if partitioned then "partitioned from" else "rejoined");
  if partitioned && c = t.leader_ then t.leader_lost_at <- Some now

(* ---- takeover: rebuild by replay, fence the old master ---- *)

(* The standby reads the journal back through its own codec (proving the
   bytes round-trip) and replays every entry through [Deployment.apply],
   the code the leader ran, over scratch switches.  The result is the
   model it adopts the physical network into, a migration the crashed
   leader left in flight included. *)
let rebuild t ~now =
  let decoded =
    match Journal.decode t.schema (Journal.encode t.journal) with
    | Ok j -> j
    | Error e -> invalid_arg ("Cluster: journal failed to decode at takeover: " ^ e)
  in
  let model = ref None in
  let demoted = ref [] in
  let dead = ref [] in
  let replayed = ref 0 in
  (* mids must stay unique across takeovers: the new leader allocates
     above everything the journal has seen *)
  let next_mid = ref 0 in
  Journal.replay decoded (fun entry ->
      incr replayed;
      (match (entry, !model) with
      | Journal.Build { policy; authority_ids }, _ ->
          model :=
            Some
              (Deployment.build ~config:t.dconfig
                 ~policy:(Classifier.of_table_order t.schema policy)
                 ~topology:t.topology ~authority_ids ())
      | _, Some m -> model := Some (Deployment.apply m ~now entry)
      | _, None -> ());
      match entry with
      | Journal.Fail_authority s -> demoted := s :: !demoted
      | Journal.Restore_authority s -> demoted := List.filter (fun x -> x <> s) !demoted
      | Journal.Declared_dead s -> dead := s :: !dead
      | Journal.Recovered s -> dead := List.filter (fun x -> x <> s) !dead
      | Journal.Migration_begin m -> next_mid := max !next_mid (m.Journal.mid + 1)
      | _ -> ());
  t.replayed <- t.replayed + !replayed;
  Telemetry.add m_replayed !replayed;
  match !model with
  | None -> invalid_arg "Cluster: journal holds no Build entry"
  | Some model ->
      (!replayed, model, List.sort Int.compare !demoted, List.rev !dead, !next_mid)

let elect t ~now ~detector =
  let candidates =
    Array.to_list t.replicas
    |> List.filter_map (fun r -> if r.up && not r.isolated then Some r.rid else None)
  in
  match candidates with
  | [] -> record t ~now "controller %d found no live candidate: cluster is headless" detector
  | winner :: _ ->
      if winner = t.leader_ && t.replicas.(winner).up
         && (not t.replicas.(winner).isolated)
         && not (Control_plane.deposed t.cp)
      then begin
        (* false detection (lossy heartbeats): the leader is fine *)
        t.replicas.(detector).last_heard <- now;
        record t ~now "controller %d suspected the leader wrongly; backing off" detector
      end
      else begin
        let new_epoch = !(t.epoch_cell) + 1 in
        t.epoch_cell := new_epoch;
        Telemetry.incr m_elections;
        Telemetry.set g_epoch (float_of_int new_epoch);
        ignore
          (Journal.append t.journal ~at:now
             (Journal.Epoch { epoch = new_epoch; leader = winner }));
        let replayed, model, demoted, dead, next_mid = rebuild t ~now in
        let network = Control_plane.deployment t.cp in
        let d = Deployment.adopt ~model ~network in
        let cp' =
          Control_plane.create ~config:t.config.cp ?faults:(stripped_faults t)
            ~epoch:new_epoch
            ~journal:
              (appender ~journal:t.journal ~epoch_cell:t.epoch_cell
                 ~fenced:t.fenced_appends new_epoch)
            ~channel_offset:(switch_channel_span t * winner)
            ~demoted ~presumed_dead:dead ~next_mid d
        in
        (* the new master inherits the physical truth about devices and
           links the cluster has been tracking *)
        Hashtbl.iter (fun s () -> Control_plane.kill_switch cp' s) t.crashed;
        Hashtbl.iter (fun s () -> Control_plane.set_link cp' ~now s false) t.links_down;
        (* a migration the crashed leader left unresolved: rolled back if
           the flip never happened (the sub-regions carry no traffic yet),
           finished if it did (they are the serving path) *)
        Control_plane.finish_inherited_migration cp' ~now;
        (* the old master — crashed (already halted) or merely cut off and
           still mastering until the switches fence it — stays around as
           transport *)
        t.retired_cps <- t.cp :: t.retired_cps;
        t.leader_ <- winner;
        t.cp <- cp';
        Array.iter (fun r -> r.last_heard <- now) t.replicas;
        let latency =
          match t.leader_lost_at with Some lost -> now -. lost | None -> 0.
        in
        t.leader_lost_at <- None;
        t.takeover_latencies <- latency :: t.takeover_latencies;
        record t ~now
          "controller %d elected leader at epoch %d (detector %d, %d entries replayed, \
           takeover %.3fs)"
          winner new_epoch detector replayed latency;
        (* converge the network onto the rebuilt deployment: reliable,
           idempotent re-push *)
        Control_plane.push_deployment cp' ~now
      end

(* ---- scheduled fault events (the cluster owns the schedule) ---- *)

let apply_event t ~now = function
  | Fault.Crash { switch; _ } ->
      Hashtbl.replace t.crashed switch ();
      Control_plane.crash_switch t.cp ~now switch;
      List.iter (fun cp -> Control_plane.kill_switch cp switch) t.retired_cps
  | Fault.Restart { switch; _ } ->
      Hashtbl.remove t.crashed switch;
      if not (Control_plane.deposed t.cp) then Control_plane.restart_switch t.cp ~now switch
      else
        record t ~now "switch %d restarted with no live master; resync waits for a leader"
          switch
  | Fault.Link_down { switch; _ } ->
      Hashtbl.replace t.links_down switch ();
      Control_plane.set_link t.cp ~now switch false
  | Fault.Link_up { switch; _ } ->
      Hashtbl.remove t.links_down switch;
      Control_plane.set_link t.cp ~now switch true
  | Fault.Controller_crash { controller; _ } ->
      t.replicas.(controller).up <- false;
      record t ~now "controller %d crashed" controller;
      if controller = t.leader_ then begin
        t.leader_lost_at <- Some now;
        Control_plane.halt t.cp ~now
          (Printf.sprintf "controller process stopped (%d pending dropped)")
      end
  | Fault.Controller_restart { controller; _ } ->
      t.replicas.(controller).up <- true;
      t.replicas.(controller).last_heard <- now;
      record t ~now "controller %d restarted as standby" controller

let apply_events t ~now =
  let rec go = function
    | ev :: rest when Fault.event_time ev <= now ->
        apply_event t ~now ev;
        go rest
    | rest -> t.events <- rest
  in
  go t.events

(* ---- heartbeats and failure detection ---- *)

let heartbeats t ~now =
  (if now -. t.last_hb >= heartbeat_interval then begin
     t.last_hb <- now;
     let l = t.replicas.(t.leader_) in
     if l.up && (not l.isolated) && not (Control_plane.deposed t.cp) then
       Array.iter
         (fun r ->
           if r.rid <> t.leader_ then
             match t.hb.(t.leader_).(r.rid) with
             | Some ch ->
                 Channel.send ch ~now ~xid:0 ~epoch:!(t.epoch_cell)
                   (Message.Echo_request t.leader_)
             | None -> ())
         t.replicas
   end);
  (* drain every heartbeat channel; only a live, connected replica hears *)
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j ch ->
          match ch with
          | None -> ()
          | Some ch ->
              let frames = Channel.poll ch ~now in
              let receiver = t.replicas.(j) in
              if receiver.up && (not receiver.isolated) && not t.replicas.(i).isolated
              then
                List.iter
                  (fun (_, ep, msg) ->
                    match msg with
                    | Message.Echo_request _ when ep = !(t.epoch_cell) ->
                        receiver.last_heard <- now
                    | _ -> ())
                  frames)
        row)
    t.hb

let detect t ~now =
  let timeout =
    float_of_int heartbeat_miss_limit *. heartbeat_interval
  in
  let detector =
    Array.to_list t.replicas
    |> List.find_opt (fun r ->
           r.rid <> t.leader_ && r.up && (not r.isolated)
           && now -. r.last_heard > timeout)
  in
  match detector with
  | Some r ->
      record t ~now "controller %d missed heartbeats for %.3fs; starting election" r.rid
        (now -. r.last_heard);
      elect t ~now ~detector:r.rid
  | None -> ()

(* ---- snapshots ---- *)

(* Compact the journal to a summary of the leader's current state: the
   current policy and full authority pool, replayed failovers and
   outstanding death verdicts, the exact partition layout and placement,
   closed by the current epoch.  The [Partition_layout] entry is what
   keeps adaptive-migration history compactable: a replayed [Build] alone
   cannot reproduce a re-cut layout, so the snapshot records the regions
   and replica lists verbatim.  Rebalance/migration step history is
   dropped — the layout entry already captures its outcome. *)
let snapshot t ~now =
  let d = Control_plane.deployment t.cp in
  let demoted = Control_plane.demoted_authorities t.cp in
  let dead = Control_plane.failed_switches t.cp in
  let pool = List.sort_uniq Int.compare (Deployment.authority_ids d @ demoted) in
  let layout =
    Journal.Partition_layout
      {
        regions =
          List.map
            (fun (p : Partitioner.partition) -> (p.Partitioner.pid, p.Partitioner.region))
            (Deployment.partitioner d).Partitioner.partitions;
        replicas = Assignment.all_replicas (Deployment.assignment d);
      }
  in
  let entries =
    (Journal.Build { policy = Classifier.rules (Deployment.policy d); authority_ids = pool }
    :: List.map (fun s -> Journal.Fail_authority s) demoted)
    @ List.map (fun s -> Journal.Declared_dead s) dead
    @ [ layout; Journal.Epoch { epoch = !(t.epoch_cell); leader = t.leader_ } ]
  in
  Journal.snapshot t.journal ~at:now entries;
  t.snapshots <- t.snapshots + 1;
  Telemetry.incr m_snapshots;
  record t ~now "journal snapshot: %d entries summarise the history" (List.length entries)

let tick t ~now =
  apply_events t ~now;
  heartbeats t ~now;
  detect t ~now;
  Control_plane.tick t.cp ~now;
  List.iter (fun cp -> Control_plane.tick cp ~now) t.retired_cps;
  if
    Journal.tail_length t.journal >= t.config.snapshot_every
    && t.replicas.(t.leader_).up
    && (not (Control_plane.deposed t.cp))
    && not (Control_plane.migration_active t.cp)
  then snapshot t ~now
