type config = {
  echo_interval : float;
  stats_interval : float;
  rebalance_interval : float option;
  retx_timeout : float;
  retx_backoff : float;
  retx_limit : int;
  hotspot_threshold : float;
  hotspot_window : int;
  migration_step : float;
}

let default_config =
  {
    echo_interval = 1.0;
    stats_interval = 5.0;
    rebalance_interval = None;
    retx_timeout = 0.1;
    retx_backoff = 2.0;
    retx_limit = 6;
    hotspot_threshold = 2.0;
    hotspot_window = 3;
    migration_step = 0.05;
  }

let channel_latency = 1e-3

(* missed echoes before a switch is declared dead *)
let echo_miss_limit = 3

type port = {
  to_switch : Channel.t;
  to_controller : Channel.t;
  mutable alive : bool; (* the real device still responds *)
  mutable link_up : bool; (* the control link carries frames *)
  mutable outstanding_echo : bool;
  mutable missed_echoes : int;
  mutable declared_dead : bool;
}

(* One unacknowledged state-changing request: retransmitted with
   exponential backoff until acked, given up, or its switch dies. *)
type pending_req = {
  req_msg : Message.t;
  mutable next_retry : float;
  mutable interval : float;
  mutable retries : int;
}

type stats = {
  dropped : int;
  duplicated : int;
  corrupted : int;
  reordered : int;
  decode_errors : int;
  link_dropped : int;
}


(* Registry mirrors: bumped on the same line as the per-plane fields, so
   process-wide totals track the sum over all control planes exactly. *)
let m_retransmissions = Telemetry.counter "ctrl_retransmissions"
let m_giveups = Telemetry.counter "ctrl_giveups"
let m_cancelled = Telemetry.counter "ctrl_cancelled"
let m_link_dropped = Telemetry.counter "ctrl_link_dropped"
let m_switch_deaths = Telemetry.counter "ctrl_switch_deaths"
let m_failovers = Telemetry.counter "ctrl_authority_failovers"
let m_recoveries = Telemetry.counter "ctrl_recoveries"
let m_policy_updates = Telemetry.counter "ctrl_policy_updates"
let m_rebalances = Telemetry.counter "ctrl_rebalances"
let m_migrations_started = Telemetry.counter "rebalance_migrations_started"
let m_migrations_committed = Telemetry.counter "rebalance_migrations_committed"
let m_migrations_aborted = Telemetry.counter "rebalance_migrations_aborted"
let m_rules_moved = Telemetry.counter "rebalance_rules_moved"
let m_windows_to_recovery = Telemetry.counter "rebalance_windows_to_recovery"

type t = {
  mutable deployment : Deployment.t;
  config : config;
  mutable epoch : int; (* master epoch stamped on every frame; 0 = unfenced *)
  mutable deposed : bool; (* a reply carried a newer epoch: we lost mastership *)
  journal : (at:float -> Journal.entry -> unit) option;
      (* write-ahead journal sink; the cluster passes a fenced appender *)
  ports : port array;
  retired : (int, int64) Hashtbl.t; (* origin -> packets of removed entries *)
  live : (int * int, int * int64) Hashtbl.t;
      (* (switch, cache rule id) -> (origin, packets): latest stats snapshot *)
  pending : (int * int, pending_req) Hashtbl.t; (* (switch, xid) -> request *)
  demoted : (int, unit) Hashtbl.t; (* dead authorities awaiting restoration *)
  mutable fault_events : Fault.event list; (* future events, time order *)
  mutable last_tick : float;
  mutable last_echo : float;
  mutable last_stats : float;
  mutable last_rebalance : float;
  mutable stage_since : float;
      (* when the in-flight migration ([Deployment.migration]) reached
         its stage *)
  mutable next_mid : int;
  mutable last_auth_cum : (int * float) list;
      (* per-authority cumulative miss count at the last window boundary *)
  streaks : Hotspot.streaks;
  mutable windows_seen : int;
  mutable recovery_watch : (int * int) option;
      (* (hot authority, window count at migration begin): when it first
         measures non-hot again, windows-to-recovery is recorded *)
  mutable migrations_started : int;
  mutable migrations_committed : int;
  mutable migrations_aborted : int;
  mutable rules_moved : int;
  mutable failed : int list; (* reverse failure order *)
  mutable next_xid : int;
  mutable retransmissions : int;
  mutable giveups : int;
  mutable link_dropped : int;
  mutable log : (float * string) list; (* reverse order *)
}

let record t ~now fmt = Printf.ksprintf (fun s -> t.log <- (now, s) :: t.log) fmt

let create ?(config = default_config) ?faults ?(epoch = 0) ?journal ?(channel_offset = 0)
    ?(demoted = []) ?(presumed_dead = []) ?(next_mid = 0) deployment =
  let schema = Classifier.schema (Deployment.policy deployment) in
  let n = Array.length (Deployment.switches deployment) in
  let injector i =
    match faults with
    | None -> None
    | Some plan -> Some (Fault.injector plan ~channel:(channel_offset + i))
  in
  let demoted_tbl = Hashtbl.create 4 in
  List.iter (fun i -> Hashtbl.replace demoted_tbl i ()) demoted;
  Array.iter Switch.attach (Deployment.switches deployment);
  {
    deployment;
    config;
    epoch;
    deposed = false;
    journal;
    ports =
      Array.init n (fun i ->
          {
            to_switch =
              Channel.create ?fault:(injector (2 * i)) schema
                ~latency:channel_latency;
            to_controller =
              Channel.create ?fault:(injector ((2 * i) + 1)) schema
                ~latency:channel_latency;
            alive = true;
            link_up = true;
            outstanding_echo = false;
            missed_echoes = 0;
            declared_dead = List.mem i presumed_dead;
          });
    retired = Hashtbl.create 64;
    live = Hashtbl.create 64;
    pending = Hashtbl.create 64;
    demoted = demoted_tbl;
    fault_events = (match faults with None -> [] | Some p -> p.Fault.events);
    last_tick = neg_infinity;
    last_echo = neg_infinity;
    last_stats = neg_infinity;
    last_rebalance = neg_infinity;
    stage_since = neg_infinity;
    next_mid;
    last_auth_cum = [];
    streaks = Hotspot.streaks ~threshold:config.hotspot_threshold;
    windows_seen = 0;
    recovery_watch = None;
    migrations_started = 0;
    migrations_committed = 0;
    migrations_aborted = 0;
    rules_moved = 0;
    failed = List.rev presumed_dead;
    next_xid = 1;
    retransmissions = 0;
    giveups = 0;
    link_dropped = 0;
    log = [];
  }

let deployment t = t.deployment
let deposed t = t.deposed

let demoted_authorities t =
  Hashtbl.fold (fun i () acc -> i :: acc) t.demoted [] |> List.sort Int.compare

let journal_entry t ~now e =
  match t.journal with None -> () | Some append -> append ~at:now e

(* One journaled decision: written ahead, then applied by the same
   [Deployment.apply] a standby's replay runs, so the live deployment and
   the replayed one cannot disagree. *)
let decide t ~now e =
  journal_entry t ~now e;
  t.deployment <- Deployment.apply t.deployment ~now e

let migration_active t = Deployment.migration t.deployment <> None

let xid t =
  let x = t.next_xid in
  t.next_xid <- x + 1;
  x

let transmit t i ~now ~xid msg =
  let port = t.ports.(i) in
  if port.link_up then Channel.send port.to_switch ~now ~xid ~epoch:t.epoch msg
  else begin
    t.link_dropped <- t.link_dropped + 1;
    Telemetry.incr m_link_dropped
  end

let send_to_switch t i ~now msg = transmit t i ~now ~xid:(xid t) msg

(* Reliable path: remember the request under its xid and retransmit until
   the switch acknowledges it (flow-mods, barriers and partition
   transfers all answer with their xid). *)
let send_reliable t i ~now msg =
  let x = xid t in
  transmit t i ~now ~xid:x msg;
  Hashtbl.replace t.pending (i, x)
    {
      req_msg = msg;
      next_retry = now +. t.config.retx_timeout;
      interval = t.config.retx_timeout;
      retries = 0;
    }

let cancel_pending t i =
  let victims =
    Hashtbl.fold (fun (j, x) _ acc -> if j = i then (j, x) :: acc else acc) t.pending []
  in
  List.iter (fun k -> Hashtbl.remove t.pending k) victims;
  Telemetry.add m_cancelled (List.length victims);
  List.length victims

(* ---- staged region migration (adaptive rebalancing) ----

   Every stage is one [decide] followed by the reliable messages that
   carry it to the switches.  Journal append and state change happen in
   the same tick, so a takeover replaying the journal always reconstructs
   exactly the stage the switches are in. *)

let partition_table t pid =
  List.find
    (fun (p : Partitioner.partition) -> p.pid = pid)
    (Deployment.partitioner t.deployment).Partitioner.partitions

let send_install t ~now pid replicas =
  let p = partition_table t pid in
  List.iter
    (fun host ->
      if not t.ports.(host).declared_dead then
        send_reliable t host ~now
          (Message.Install_partition
             { Message.pid = p.pid; region = p.region;
               table_rules = Classifier.rules p.table }))
    replicas

let send_drop t ~now pid replicas =
  List.iter
    (fun host ->
      if not t.ports.(host).declared_dead then
        send_reliable t host ~now (Message.Drop_partition pid))
    replicas

(* Retransmitting a sub-region install after its migration aborted would
   resurrect the dropped table: forget those requests. *)
let cancel_pending_installs t pids =
  let victims =
    Hashtbl.fold
      (fun k req acc ->
        match req.req_msg with
        | Message.Install_partition { Message.pid; _ } when List.mem pid pids ->
            k :: acc
        | _ -> acc)
      t.pending []
  in
  List.iter (Hashtbl.remove t.pending) victims;
  Telemetry.add m_cancelled (List.length victims)

let migration_refs (m : Journal.migration) =
  m.Journal.src_replicas @ m.Journal.lo_replicas @ m.Journal.hi_replicas

(* Resolve the in-flight migration [m]: commit retires the source's
   tables, abort rolls the split back and retires the sub-regions'.  Live
   commits and aborts and a takeover's resolution all take this step and
   differ only in the drops they send and the line they log.  Returns the
   cache entries evicted. *)
let end_migration t ~now (m : Journal.migration) ~commit =
  let mid = m.Journal.mid in
  decide t ~now (if commit then Journal.Migration_commit mid else Journal.Migration_abort mid);
  if commit then begin
    t.migrations_committed <- t.migrations_committed + 1;
    Telemetry.incr m_migrations_committed
  end
  else begin
    cancel_pending_installs t [ m.Journal.lo_pid; m.Journal.hi_pid ];
    t.recovery_watch <- None;
    t.migrations_aborted <- t.migrations_aborted + 1;
    Telemetry.incr m_migrations_aborted
  end;
  Deployment.last_evicted t.deployment

let commit_migration t ~now (m : Journal.migration) =
  let invalidated = end_migration t ~now m ~commit:true in
  send_drop t ~now m.Journal.src_pid m.Journal.src_replicas;
  record t ~now "migration m%d committed: p%d retired, %d stale cache entries evicted"
    m.Journal.mid m.Journal.src_pid invalidated

let abort_migration t ~now (m : Journal.migration) ~reason =
  let invalidated = end_migration t ~now m ~commit:false in
  send_drop t ~now m.Journal.lo_pid m.Journal.lo_replicas;
  send_drop t ~now m.Journal.hi_pid m.Journal.hi_replicas;
  record t ~now "migration m%d aborted (%s): p%d restored, %d cache entries evicted"
    m.Journal.mid reason m.Journal.src_pid invalidated

(* An authority referenced by the in-flight migration died.  Before the
   flip the sub-regions carry no traffic, so roll back and let the
   regular failover handle the death; after the flip they are the serving
   tables, so commit early — retiring the source is then the only
   consistent direction. *)
let resolve_migration_on_death t ~now i =
  match Deployment.migration t.deployment with
  | Some (m, stage) when List.mem i (migration_refs m) -> (
      match stage with
      | Deployment.Installed ->
          abort_migration t ~now m ~reason:(Printf.sprintf "authority %d died" i)
      | Deployment.Flipped -> commit_migration t ~now m)
  | _ -> ()

let declare_dead t ~now i =
  let port = t.ports.(i) in
  if not port.declared_dead then begin
    port.declared_dead <- true;
    t.failed <- i :: t.failed;
    Telemetry.incr m_switch_deaths;
    record t ~now "switch %d missed %d echoes; declared dead" i echo_miss_limit;
    (* a dead device cannot serve tunnelled misses either *)
    decide t ~now (Journal.Declared_dead i);
    let dropped = cancel_pending t i in
    if dropped > 0 then record t ~now "cancelled %d in-flight requests to switch %d" dropped i;
    (* resolve an in-flight migration before failover re-places partitions:
       the journal then replays abort/commit against the pre-failover
       layout, the same order the live engine applied *)
    resolve_migration_on_death t ~now i;
    (* Authority failover, if the dead switch held that duty and a
       survivor exists to take it. *)
    let auths = Deployment.authority_ids t.deployment in
    if List.mem i auths && List.length auths > 1 then begin
      decide t ~now (Journal.Fail_authority i);
      Hashtbl.replace t.demoted i ();
      Telemetry.incr m_failovers;
      record t ~now "authority %d demoted; backups promoted" i
    end
  end

(* Aggregate a stats reply: refresh the live snapshot of this switch's
   cache entries.  Cache-rule ids map back to the policy rule they were
   spliced from via the install-time origin record (the cookie the
   authority switch set; we read the switch model's copy). *)
let absorb_stats t i (reply : Message.stats_reply) =
  let sw = Deployment.switch t.deployment i in
  List.iter
    (fun (f : Message.flow_stats) ->
      match Switch.origin_of_cache_rule sw f.rule_id with
      | None -> ()
      | Some origin -> Hashtbl.replace t.live (i, f.rule_id) (origin, f.packets))
    reply.Message.flows

let config_for_switch t i =
  let d = t.deployment in
  let partitioner = Deployment.partitioner d in
  let assignment = Deployment.assignment d in
  let prules =
    Partitioner.partition_rules partitioner ~assignment:(Assignment.switch_for assignment)
  in
  let tables =
    List.map
      (fun pid ->
        List.find
          (fun (p : Partitioner.partition) -> p.pid = pid)
          partitioner.Partitioner.partitions)
      (Assignment.hosted_by assignment i)
  in
  (prules, tables)

let push_switch t i ~now =
  let prules, tables = config_for_switch t i in
  List.iter
    (fun rule ->
      send_reliable t i ~now
        (Message.Flow_mod
           { Message.command = Message.Add; bank = Message.Partition; rule;
             idle_timeout = None; hard_timeout = None }))
    prules;
  send_reliable t i ~now (Message.Barrier_request i);
  List.iter
    (fun (p : Partitioner.partition) ->
      send_reliable t i ~now
        (Message.Install_partition
           { Message.pid = p.pid; region = p.region;
             table_rules = Classifier.rules p.table }))
    tables

(* Take a switch back into service: clear liveness state, rejoin the
   authority pool if failover had demoted it, and re-push its whole
   configuration reliably.  Shared by scheduled restarts and by the
   recovery from a premature death declaration. *)
let recover t ~now i =
  let port = t.ports.(i) in
  port.missed_echoes <- 0;
  port.outstanding_echo <- false;
  if port.declared_dead then begin
    port.declared_dead <- false;
    t.failed <- List.filter (fun j -> j <> i) t.failed;
    Telemetry.incr m_recoveries;
    decide t ~now (Journal.Recovered i)
  end
  else
    (* restarted before it was declared dead: the crash marked it
       unreachable without a journal entry *)
    Deployment.mark_reachable t.deployment i;
  if Hashtbl.mem t.demoted i then begin
    Hashtbl.remove t.demoted i;
    decide t ~now (Journal.Restore_authority i);
    record t ~now "authority %d restored to the pool" i
  end;
  push_switch t i ~now

let process_reply t ~now i (x, msg) =
  let port = t.ports.(i) in
  (* any response carrying a tracked xid retires its request *)
  if x <> 0 then Hashtbl.remove t.pending (i, x);
  match msg with
  | Message.Echo_reply _ ->
      if port.declared_dead then begin
        (* the declaration was premature (lost echoes, not a dead
           device): take the switch back *)
        record t ~now "switch %d answered an echo after being declared dead; recovering" i;
        recover t ~now i
      end
      else begin
        port.outstanding_echo <- false;
        port.missed_echoes <- 0
      end
  | Message.Stats_reply reply -> absorb_stats t i reply
  | Message.Barrier_reply _ | Message.Hello | Message.Ack _ -> ()
  | Message.Flow_removed f ->
      (* final counters from an expired/evicted cache entry: retire them
         so nothing is lost to churn, and drop the live snapshot *)
      Hashtbl.remove t.live (i, f.Message.removed_rule);
      if f.Message.cookie >= 0 then begin
        let prev = Option.value ~default:0L (Hashtbl.find_opt t.retired f.Message.cookie) in
        Hashtbl.replace t.retired f.Message.cookie
          (Int64.add prev f.Message.final_packets)
      end
  | Message.Echo_request _ | Message.Barrier_request _ | Message.Stats_request _
  | Message.Flow_mod _ | Message.Install_partition _
  | Message.Drop_partition _ ->
      ()

let push_deployment t ~now =
  Array.iteri
    (fun i port -> if not port.declared_dead then push_switch t i ~now)
    t.ports

(* ---- closed-loop hotspot detection ----

   Per-authority miss load comes from the switches' monotonic
   [authority_hits] counters (they survive splits and failovers, unlike
   per-partition tallies whose pids retire mid-migration).  An authority
   is hot in a window by {!Hotspot.hot} at [hotspot_threshold];
   [hotspot_window] consecutive hot windows trigger a migration. *)

let authority_cumulative t =
  List.map
    (fun a ->
      ( a,
        Int64.to_float
          (Switch.stats (Deployment.switch t.deployment a)).Switch.authority_hits ))
    (List.sort Int.compare (Deployment.authority_ids t.deployment))

let rebalance_partitions t ~now ~loads =
  decide t ~now (Journal.Rebalance loads);
  Telemetry.incr m_rebalances

let begin_migration t ~now ~src_auth ~dst =
  let d = t.deployment in
  let assignment = Deployment.assignment d in
  let loads = Deployment.measured_partition_loads d in
  let load pid = Option.value ~default:0. (List.assoc_opt pid loads) in
  (* the hottest partition the overloaded authority serves as primary *)
  match
    List.sort
      (fun a b -> Float.compare (load b) (load a))
      (Assignment.partitions_of assignment src_auth)
  with
  | [] ->
      (* hot without any primary partition (all demoted?): nothing to cut *)
      Hotspot.clear t.streaks
  | src_pid :: _ -> (
      match
        Partitioner.split_region (Deployment.partitioner d)
          (Deployment.policy d) ~pid:src_pid
      with
      | None ->
          (* no productive cut left in the hot region: fall back to
             whole-partition re-placement on measured load *)
          record t ~now
            "hotspot at authority %d but p%d has no productive cut; \
             falling back to load rebalance"
            src_auth src_pid;
          rebalance_partitions t ~now ~loads;
          Hotspot.clear t.streaks
      | Some ((lo_pid, lo_region), (hi_pid, hi_region)) ->
          let src_replicas = Assignment.replicas_of assignment src_pid in
          let auths =
            List.sort Int.compare (Deployment.authority_ids d)
          in
          let r = Assignment.replication assignment in
          let hi_replicas =
            dst
            :: (List.filter (fun a -> a <> dst) auths
               |> List.filteri (fun i _ -> i < r - 1))
          in
          let m =
            {
              Journal.mid = t.next_mid;
              src_pid;
              src_region = (partition_table t src_pid).Partitioner.region;
              src_replicas;
              lo_pid;
              lo_region;
              lo_replicas = src_replicas;
              hi_pid;
              hi_region;
              hi_replicas;
            }
          in
          t.next_mid <- t.next_mid + 1;
          decide t ~now (Journal.Migration_begin m);
          send_install t ~now lo_pid m.Journal.lo_replicas;
          send_install t ~now hi_pid m.Journal.hi_replicas;
          let moved = Classifier.length (partition_table t hi_pid).Partitioner.table in
          t.rules_moved <- t.rules_moved + moved;
          Telemetry.add m_rules_moved moved;
          t.stage_since <- now;
          t.migrations_started <- t.migrations_started + 1;
          Telemetry.incr m_migrations_started;
          t.recovery_watch <- Some (src_auth, t.windows_seen);
          Hotspot.clear t.streaks;
          record t ~now
            "hotspot: authority %d overloaded; migrating p%d's sub-region p%d \
             (%d rules) to authority %d (m%d)"
            src_auth src_pid hi_pid moved dst m.Journal.mid)

let adaptive_window t ~now =
  t.windows_seen <- t.windows_seen + 1;
  let cum = authority_cumulative t in
  let deltas =
    List.map
      (fun (a, c) ->
        let prev = Option.value ~default:0. (List.assoc_opt a t.last_auth_cum) in
        (a, Float.max 0. (c -. prev)))
      cum
  in
  t.last_auth_cum <- cum;
  Hotspot.observe t.streaks deltas;
  (match t.recovery_watch with
  | Some (auth, w0) when not (migration_active t) -> (
      match List.assoc_opt auth deltas with
      | Some _ when Hotspot.streak t.streaks auth = 0 ->
          Telemetry.add m_windows_to_recovery (t.windows_seen - w0);
          record t ~now "authority %d back under fair share %d windows after migration began"
            auth (t.windows_seen - w0);
          t.recovery_watch <- None
      | _ -> ())
  | _ -> ());
  if not (migration_active t) then begin
    let candidates =
      List.filter (fun (a, _) -> Hotspot.streak t.streaks a >= t.config.hotspot_window) deltas
    in
    match
      List.sort (fun (_, x) (_, y) -> Float.compare y x) candidates
    with
    | [] -> ()
    | (src_auth, _) :: _ -> (
        match
          List.sort
            (fun (a, x) (b, y) ->
              match Float.compare x y with 0 -> Int.compare a b | c -> c)
            (List.filter (fun (a, _) -> a <> src_auth) deltas)
        with
        | [] -> () (* a single authority: nowhere to move load *)
        | (dst, _) :: _ -> begin_migration t ~now ~src_auth ~dst)
  end

let advance_migration t ~now =
  match Deployment.migration t.deployment with
  | Some (m, stage) when now -. t.stage_since >= t.config.migration_step -> (
      match stage with
      | Deployment.Installed ->
          decide t ~now (Journal.Migration_flip m.Journal.mid);
          t.stage_since <- now;
          record t ~now "migration m%d: ingress partition rules flipped to p%d/p%d"
            m.Journal.mid m.Journal.lo_pid m.Journal.hi_pid
      | Deployment.Flipped -> commit_migration t ~now m)
  | _ -> ()

(* ---- fault events ---- *)

let crash_switch t ~now i =
  let port = t.ports.(i) in
  port.alive <- false;
  (* the device loses every bank and counter the moment it dies *)
  Switch.reset (Deployment.switch t.deployment i);
  Deployment.mark_unreachable t.deployment i;
  record t ~now "switch %d crashed (state lost)" i

let restart_switch t ~now i =
  t.ports.(i).alive <- true;
  (* the device rebooted blank: recover re-pushes its partition bank and
     whatever authority tables the current assignment gives it, all with
     retransmission tracking *)
  recover t ~now i;
  record t ~now "switch %d restarted; resync pushed" i

let set_link t ~now i up =
  t.ports.(i).link_up <- up;
  record t ~now "control link to switch %d %s" i (if up then "restored" else "down")

let apply_fault_events t ~now =
  let rec go = function
    | ev :: rest when Fault.event_time ev <= now ->
        (match ev with
        | Fault.Crash { switch; _ } -> crash_switch t ~now switch
        | Fault.Restart { switch; _ } -> restart_switch t ~now switch
        | Fault.Link_down { switch; _ } -> set_link t ~now switch false
        | Fault.Link_up { switch; _ } -> set_link t ~now switch true
        | Fault.Controller_crash _ | Fault.Controller_restart _ ->
            (* controller replica lifecycle is the cluster's business; a
               standalone control plane has no replicas to lose *)
            ());
        go rest
    | rest -> t.fault_events <- rest
  in
  go t.fault_events

(* ---- retransmission ---- *)

let retransmit_due t ~now =
  (* sorted for a deterministic retransmission order regardless of hash
     internals: the fault plan's reproducibility depends on it *)
  let due =
    Hashtbl.fold
      (fun (i, x) req acc -> if req.next_retry <= now then ((i, x), req) :: acc else acc)
      t.pending []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun ((i, x), req) ->
      let port = t.ports.(i) in
      if port.declared_dead then begin
        Hashtbl.remove t.pending (i, x);
        Telemetry.incr m_cancelled
      end
      else if req.retries >= t.config.retx_limit then begin
        Hashtbl.remove t.pending (i, x);
        t.giveups <- t.giveups + 1;
        Telemetry.incr m_giveups;
        record t ~now "gave up on xid %d to switch %d after %d retransmissions" x i
          req.retries
      end
      else begin
        transmit t i ~now ~xid:x req.req_msg;
        req.retries <- req.retries + 1;
        req.interval <- req.interval *. t.config.retx_backoff;
        req.next_retry <- now +. req.interval;
        t.retransmissions <- t.retransmissions + 1;
        Telemetry.incr m_retransmissions
      end)
    due

(* Deliver controller->switch frames to the (shared) switch devices and
   queue their responses.  This is transport, not mastership: a deposed
   controller's in-flight frames still reach the switch — which fences
   them by epoch — and their acks still come back. *)
let deliver_to_switches t ~now =
  Array.iteri
    (fun i port ->
      let frames = Channel.poll port.to_switch ~now in
      if not port.link_up then begin
        t.link_dropped <- t.link_dropped + List.length frames;
        Telemetry.add m_link_dropped (List.length frames)
      end
      else if port.alive then begin
        let sw = Deployment.switch t.deployment i in
        List.iter
          (fun (x, frame_epoch, msg) ->
            let responses = Switch.handle_control ~xid:x ~epoch:frame_epoch sw ~now msg in
            List.iter
              (fun r ->
                (* replies carry the switch's current epoch: how a deposed
                   leader learns a newer master exists *)
                Channel.send port.to_controller ~now ~xid:x ~epoch:(Switch.epoch sw) r)
              responses)
          frames;
        List.iter
          (fun n -> Channel.send port.to_controller ~now ~xid:0 ~epoch:(Switch.epoch sw) n)
          (Switch.drain_notifications sw)
      end)
    t.ports

(* Stop mastering: a reply carried a newer epoch (deposed), or the
   controller process stopped.  Pending requests are dropped, but frames
   already on the wire still deliver — the cluster keeps ticking a
   stopped control plane as pure transport.  [why] renders the log line
   from the number of requests dropped. *)
let halt t ~now why =
  if not t.deposed then begin
    t.deposed <- true;
    let dropped = Hashtbl.length t.pending in
    Hashtbl.reset t.pending;
    Telemetry.add m_cancelled dropped;
    record t ~now "%s" (why dropped)
  end

let tick t ~now =
  if now < t.last_tick then
    invalid_arg
      (Printf.sprintf "Control_plane.tick: now %g before the last tick %g" now t.last_tick);
  t.last_tick <- now;
  if t.deposed then begin
    (* A deposed controller is transport only: frames already in flight
       deliver (and get fenced), replies drain, nothing new is sent and
       no duty — echoes, stats, failure detection, retransmission — runs. *)
    deliver_to_switches t ~now;
    Array.iter (fun port -> ignore (Channel.poll port.to_controller ~now)) t.ports
  end
  else begin
  (* 0. scheduled faults fire first: they shape everything below *)
  apply_fault_events t ~now;
  (* 1. periodic echoes with failure detection *)
  if now -. t.last_echo >= t.config.echo_interval then begin
    t.last_echo <- now;
    Array.iteri
      (fun i port ->
        if port.declared_dead then
          (* keep probing a declared-dead switch: a reply proves the
             declaration premature and triggers recovery *)
          send_to_switch t i ~now (Message.Echo_request i)
        else begin
          if port.outstanding_echo then begin
            port.missed_echoes <- port.missed_echoes + 1;
            if port.missed_echoes >= echo_miss_limit then declare_dead t ~now i
          end;
          if not port.declared_dead then begin
            port.outstanding_echo <- true;
            send_to_switch t i ~now (Message.Echo_request i)
          end
        end)
      t.ports
  end;
  (* 2. periodic stats collection *)
  if now -. t.last_stats >= t.config.stats_interval then begin
    t.last_stats <- now;
    Array.iteri
      (fun i port ->
        if not port.declared_dead then
          send_to_switch t i ~now
            (Message.Stats_request { Message.table_bank = Message.Cache; cookie = i }))
      t.ports
  end;
  (* 2b. adaptive load management: detect a hotspot over a window, then
        re-cut and migrate in staged steps *)
  (match t.config.rebalance_interval with
  | Some interval ->
      if now -. t.last_rebalance >= interval then begin
        t.last_rebalance <- now;
        adaptive_window t ~now
      end;
      (* 2c. advance an in-flight staged migration *)
      advance_migration t ~now
  | None -> ());
  (* 3. deliver controller->switch frames; collect switch responses and
        any queued asynchronous notifications (flow-removed).  A downed
        link kills arriving frames on the wire in both directions. *)
  deliver_to_switches t ~now;
  (* 4. deliver switch->controller frames.  A reply carrying an epoch
        above our own means a newer master exists: stop mastering. *)
  Array.iteri
    (fun i port ->
      let replies = Channel.poll port.to_controller ~now in
      if not port.link_up then begin
        t.link_dropped <- t.link_dropped + List.length replies;
        Telemetry.add m_link_dropped (List.length replies)
      end
      else
        List.iter
          (fun (x, reply_epoch, msg) ->
            if t.epoch > 0 && reply_epoch > t.epoch then
              halt t ~now
                (Printf.sprintf
                   "fenced: observed epoch %d above own %d; deposed (dropped %d pending)"
                   reply_epoch t.epoch)
            else process_reply t ~now i (x, msg))
          replies)
    t.ports;
  (* 5. retransmit what the lossy channels have not delivered *)
  retransmit_due t ~now
  end

let migrations_started t = t.migrations_started
let migrations_committed t = t.migrations_committed
let migrations_aborted t = t.migrations_aborted
let rules_moved t = t.rules_moved

(* Takeover resolution for a migration the crashed leader left in
   flight: the adopted deployment was replayed up to the stage reached,
   and the new leader finishes it — commit if the flip already happened
   (the sub-regions are serving), abort otherwise. *)
let finish_inherited_migration t ~now =
  match Deployment.migration t.deployment with
  | None -> ()
  | Some (m, stage) ->
      let commit = stage = Deployment.Flipped in
      let evicted = end_migration t ~now m ~commit in
      if commit then
        record t ~now
          "takeover: inherited migration m%d was flipped; committed (%d cache entries evicted)"
          m.Journal.mid evicted
      else
        record t ~now
          "takeover: inherited migration m%d was not yet flipped; aborted (%d cache entries \
           evicted)"
          m.Journal.mid evicted

let rule_counters t =
  let totals = Hashtbl.copy t.retired in
  Hashtbl.iter
    (fun _ (origin, packets) ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt totals origin) in
      Hashtbl.replace totals origin (Int64.add prev packets))
    t.live;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let failed_switches t = List.rev t.failed

let delete_cached_origins t ~now ids =
  let victims =
    Deployment.cache_entries_of_origins t.deployment
      ~live:(fun i -> not t.ports.(i).declared_dead)
      ids
  in
  List.iter
    (fun (i, rule) ->
      send_reliable t i ~now
        (Message.Flow_mod
           {
             Message.command = Message.Delete;
             bank = Message.Cache;
             rule;
             idle_timeout = None;
             hard_timeout = None;
           }))
    victims;
  List.length victims

(* A policy change driven through the control plane: the deployment
   patches or re-partitions its tables, and every cache entry spliced
   from a changed rule is deleted with reliable flow-mods — strict
   consistency that survives lossy channels and failovers racing the
   deletions.  The deployment's id diff names the changed rules. *)
let update_policy t ~now ?(strict = true) policy =
  decide t ~now (Journal.Policy_update { rules = Classifier.rules policy; strict });
  let { Deployment.changed; kept_layout } = Deployment.last_update t.deployment in
  Telemetry.incr m_policy_updates;
  if strict then ignore (delete_cached_origins t ~now changed);
  record t ~now "policy updated: %d rules changed, %s%s" (List.length changed)
    (if kept_layout then "layout kept" else "re-partitioned")
    (if strict then ", strict deletions sent" else "")

let control_frames t =
  Array.fold_left
    (fun acc p -> acc + Channel.frames_carried p.to_switch + Channel.frames_carried p.to_controller)
    0 t.ports

let control_bytes t =
  Array.fold_left
    (fun acc p -> acc + Channel.bytes_carried p.to_switch + Channel.bytes_carried p.to_controller)
    0 t.ports

let sum_stats cps =
  let add (s : Channel.stats) acc =
    {
      acc with
      dropped = acc.dropped + s.Channel.dropped;
      duplicated = acc.duplicated + s.Channel.duplicated;
      corrupted = acc.corrupted + s.Channel.corrupted;
      reordered = acc.reordered + s.Channel.reordered;
      decode_errors = acc.decode_errors + s.Channel.decode_errors;
    }
  in
  List.fold_left
    (fun (acc : stats) t ->
      Array.fold_left
        (fun acc p -> add (Channel.stats p.to_switch) (add (Channel.stats p.to_controller) acc))
        { acc with link_dropped = acc.link_dropped + t.link_dropped }
        t.ports)
    { dropped = 0; duplicated = 0; corrupted = 0; reordered = 0; decode_errors = 0;
      link_dropped = 0 }
    cps

let stats t = sum_stats [ t ]

let retransmissions t = t.retransmissions
let giveups t = t.giveups
let pending_requests t = Hashtbl.length t.pending

let in_flight t =
  Array.fold_left
    (fun acc p -> acc + Channel.pending p.to_switch + Channel.pending p.to_controller)
    0 t.ports
let timeline t = List.rev_map (fun (at, s) -> (at, "control", s)) t.log

(* Test hook: make a switch stop responding (device death). *)
let kill_switch t i = t.ports.(i).alive <- false
