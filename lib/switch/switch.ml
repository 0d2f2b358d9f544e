type bank_hit = Cache_bank | Authority_bank
type verdict = Local of Action.t * bank_hit | Tunnel of int | Unmatched | Misconfigured

type stats = {
  cache_hits : int64;
  authority_hits : int64;
  tunnelled : int64;
  unmatched : int64;
  misconfigured : int64;
}

(* Per-switch registry handles, created once at [create]: increments on
   the packet path are plain field writes, no lookup, no allocation. *)
type tele = {
  m_cache_hits : Telemetry.counter;
  m_authority_hits : Telemetry.counter;
  m_tunnelled : Telemetry.counter;
  m_unmatched : Telemetry.counter;
  m_misconfigured : Telemetry.counter;
  m_stale_rejected : Telemetry.counter;
  m_cache_occupancy : Telemetry.gauge;
}

(* Cache-entry provenance.  A plain spliced entry has one part; an entry
   produced by buddy-merging fragments carries one part per absorbed
   origin, each remembering the sub-predicate that origin contributed so
   a hit can be attributed to the origin whose region the packet actually
   fell in (parts are kept in descending-rank order, so the first
   matching part is the one the policy would pick). *)
type cache_kind = Fragment | Cover | Exact

type cache_part = { part_origin : int; part_rank : int; part_pred : Pred.t }

type cache_meta = {
  pid : int;
  kind : cache_kind;
  parts : cache_part list;
  group : (int * int list) option;
      (* cover sets are only sound while complete: the broad low-rank
         rule relies on its higher-rank dependencies being resident to
         steal the packets it must not decide.  Members of one cover set
         share a (group id, member cache-rule ids) tag;
         [drop_cover_orphans] removes every member of any group that is
         no longer whole, so a partial set can never decide a packet,
         and a hit on any member refreshes the whole group's idle
         deadlines so unhit high-rank dependencies don't idle out from
         under it. *)
}

let meta_primary_origin m =
  match m.parts with p :: _ -> p.part_origin | [] -> -1

type t = {
  id : int;
  cache : Tcam.t;
  mutable authority : (Partitioner.partition * Indexed.t) list;
      (* each partition table carries a tuple-space index for the hot path *)
  mutable partition_bank : Rule.t list; (* disjoint regions; order irrelevant *)
  mutable partition_index : Indexed.t option;
      (* tuple-space index over the committed bank, rebuilt on each
         (rare) control-plane replacement so the per-packet partition
         scan is sub-linear; [None] when the bank is empty or cannot be
         indexed (duplicate ids from a confused controller) — then the
         lookup falls back to the linear scan *)
  cache_origin : (int, cache_meta) Hashtbl.t;
      (* cache rule id -> provenance: serving partition id (-1 when the
         installer didn't know it — degraded exact-match fallbacks),
         entry kind, and the origin set threaded from policy rule through
         authority table to installed cache entry *)
  origin_cache_hits : (int, int64) Hashtbl.t; (* origin rule id -> cache-bank packets *)
  origin_auth_hits : (int, int64) Hashtbl.t; (* origin rule id -> authority-bank packets *)
  partition_hits : (int, int64) Hashtbl.t; (* partition id -> misses served *)
  pid_cache_hits : (int, int64) Hashtbl.t;
      (* partition id -> cache-bank packets absorbed by entries spliced
         from that partition — the cache-efficacy side of the ledger
         whose miss side is [partition_hits] at the authority *)
  mutable next_cache_id : int;
  mutable notifications : Message.t list; (* reverse order *)
  mutable pending_partition : Rule.t list; (* staged until the next barrier *)
  mutable partition_committed : bool;
      (* a barrier has committed the partition bank: adds arriving after
         it (retransmissions whose first copy was lost) merge directly
         instead of staging for a barrier that will never come *)
  seen_xids : (int, Message.t list) Hashtbl.t;
      (* xid -> responses already sent: retransmitted requests are
         re-acked, not re-applied *)
  seen_order : int Queue.t; (* xid admission order, for pruning *)
  mutable epoch : int;
      (* highest master epoch seen; 0 = unfenced (single controller) *)
  mutable stale_rejected : int; (* frames refused for carrying an old epoch *)
  mutable stale_accepted : int; (* must stay 0: the fencing invariant *)
  mutable cache_hits : int64;
  mutable authority_hits : int64;
  mutable tunnelled : int64;
  mutable unmatched : int64;
  mutable misconfigured : int64;
  tele : tele;
}

let cache_rule_base = 2_000_000

let create ~id ~cache_capacity =
  let labels = [ ("switch", string_of_int id) ] in
  {
    id;
    cache = Tcam.create ~capacity:cache_capacity;
    authority = [];
    partition_bank = [];
    partition_index = None;
    cache_origin = Hashtbl.create 64;
    origin_cache_hits = Hashtbl.create 64;
    origin_auth_hits = Hashtbl.create 64;
    partition_hits = Hashtbl.create 16;
    pid_cache_hits = Hashtbl.create 16;
    next_cache_id = cache_rule_base + (id * 100_000);
    notifications = [];
    pending_partition = [];
    partition_committed = false;
    seen_xids = Hashtbl.create 64;
    seen_order = Queue.create ();
    epoch = 0;
    stale_rejected = 0;
    stale_accepted = 0;
    cache_hits = 0L;
    authority_hits = 0L;
    tunnelled = 0L;
    unmatched = 0L;
    misconfigured = 0L;
    tele =
      {
        m_cache_hits = Telemetry.counter ~labels "switch_cache_hits";
        m_authority_hits = Telemetry.counter ~labels "switch_authority_hits";
        m_tunnelled = Telemetry.counter ~labels "switch_tunnelled";
        m_unmatched = Telemetry.counter ~labels "switch_unmatched";
        m_misconfigured = Telemetry.counter ~labels "switch_misconfigured";
        m_stale_rejected = Telemetry.counter ~labels "switch_stale_rejected";
        m_cache_occupancy = Telemetry.gauge ~labels "switch_cache_occupancy";
      };
  }

(* The occupancy gauge tracks the cache TCAM level through installs,
   evictions and expiry, so the monitor's sampler can turn it into a
   timeline without polling every switch. *)
let sync_occupancy t = Telemetry.set t.tele.m_cache_occupancy (float_of_int (Tcam.occupancy t.cache))

let id t = t.id

let rebuild_partition_index t =
  t.partition_index <-
    (match t.partition_bank with
    | [] -> None
    | r :: _ -> (
        match Classifier.create (Pred.schema r.Rule.pred) t.partition_bank with
        | c -> Some (Indexed.of_classifier c)
        | exception Invalid_argument _ -> None))

(* Internal wholesale replacement: what the hardware does with whatever
   the control channel delivered.  Rules with a non-tunnel action stay
   in the bank — [process] counts packets hitting them as
   [misconfigured] instead of crashing the switch mid-dispatch. *)
let set_partition_bank t rules =
  t.partition_bank <- rules;
  t.partition_committed <- true;
  rebuild_partition_index t

let install_partition_rules t rules =
  List.iter
    (fun (r : Rule.t) ->
      match r.action with
      | Action.To_authority _ -> ()
      | _ -> invalid_arg "Switch.install_partition_rules: non-partition action")
    rules;
  set_partition_bank t rules

let install_authority t (p : Partitioner.partition) =
  t.authority <-
    (p, Indexed.of_classifier p.table)
    :: List.filter (fun ((q : Partitioner.partition), _) -> q.pid <> p.pid) t.authority

let drop_authority t pid =
  t.authority <- List.filter (fun ((q : Partitioner.partition), _) -> q.pid <> pid) t.authority

let authority_partitions t = List.map fst t.authority
let partition_rules t = t.partition_bank

let bump tbl key n =
  let prev = Option.value ~default:0L (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (Int64.add prev n)

let notify_removed t ~now reason (e : Tcam.entry) =
  let cookie =
    match Hashtbl.find_opt t.cache_origin e.Tcam.rule.Rule.id with
    | Some m -> meta_primary_origin m
    | None -> -1
  in
  t.notifications <-
    Message.Flow_removed
      {
        Message.removed_rule = e.Tcam.rule.Rule.id;
        cookie;
        reason;
        final_packets = e.Tcam.packets;
        final_bytes = e.Tcam.bytes;
        lifetime = now -. e.Tcam.installed_at;
      }
    :: t.notifications

(* A cover set decides packets correctly only while every member is
   resident: the broad low-rank rule counts on its higher-rank
   dependencies to catch the headers it must not answer.  Any removal
   path (LRU eviction, idle/hard expiry, targeted invalidation, explicit
   delete) can take one member out from under the rest, so after each
   such removal — and after every install batch, whose evictions can
   break a group mid-install — the survivors of any incomplete group are
   scrubbed.  They report [Replaced] like other displacement paths; the
   next miss simply re-serves. *)
let drop_cover_orphans t ~now =
  let doomed =
    Tcam.select t.cache (fun (e : Tcam.entry) ->
        match Hashtbl.find_opt t.cache_origin e.Tcam.rule.Rule.id with
        | Some { group = Some (_, members); _ } ->
            not (List.for_all (Tcam.mem t.cache) members)
        | _ -> false)
  in
  List.iter
    (fun (e : Tcam.entry) ->
      Ptrace.emit_control ~at:now Ptrace.Invalidate ~switch:t.id
        ~rule:e.Tcam.rule.Rule.id ~aux:Ptrace.invalidate_cover_orphan;
      notify_removed t ~now Message.Replaced e;
      ignore (Tcam.remove t.cache e.Tcam.rule.Rule.id);
      Hashtbl.remove t.cache_origin e.Tcam.rule.Rule.id)
    doomed;
  if doomed <> [] then sync_occupancy t;
  List.length doomed

let apply_flow_mod t ~now (fm : Message.flow_mod) =
  match (fm.bank, fm.command) with
  | Message.Cache, Message.Add ->
      ignore
        (Tcam.insert ?idle_timeout:fm.idle_timeout ?hard_timeout:fm.hard_timeout t.cache
           ~now fm.rule);
      Ptrace.emit_control ~at:now Ptrace.Install ~switch:t.id ~rule:fm.rule.Rule.id
        ~aux:0;
      sync_occupancy t
  | Message.Cache, (Message.Delete | Message.Delete_strict) ->
      ignore (Tcam.remove t.cache fm.rule.Rule.id);
      Hashtbl.remove t.cache_origin fm.rule.Rule.id;
      Ptrace.emit_control ~at:now Ptrace.Invalidate ~switch:t.id ~rule:fm.rule.Rule.id
        ~aux:Ptrace.invalidate_delete;
      (* a controller delete can take one cover-set member; the rest of
         its group must not stay behind to misdecide packets *)
      ignore (drop_cover_orphans t ~now);
      sync_occupancy t
  | (Message.Authority | Message.Partition), _ ->
      invalid_arg "Switch.apply_flow_mod: authority/partition banks are replaced wholesale"

(* Replay memory: how many acknowledged xids a switch remembers.  A
   retransmission arriving after its xid was pruned would be re-applied —
   the cap just bounds memory; at the control plane's retransmission
   limits the window is never approached. *)
let seen_cap = 8192

let remember t xid responses =
  if not (Hashtbl.mem t.seen_xids xid) then begin
    Queue.add xid t.seen_order;
    if Queue.length t.seen_order > seen_cap then
      Hashtbl.remove t.seen_xids (Queue.pop t.seen_order)
  end;
  Hashtbl.replace t.seen_xids xid responses

(* acknowledge state-changing requests that have no reply of their own,
   so a controller on a lossy channel can stop retransmitting; xid 0
   marks an untracked (fire-and-forget) request *)
let ack xid = if xid = 0 then [] else [ Message.Ack xid ]

let dispatch_control t ~now ~xid msg =
  match msg with
  | Message.Hello -> [ Message.Hello ]
  | Message.Echo_request c -> [ Message.Echo_reply c ]
  | Message.Barrier_request x ->
      (* barrier semantics: staged partition-bank updates commit as one
         atomic replacement before the reply goes out *)
      if t.pending_partition <> [] then begin
        set_partition_bank t (List.rev t.pending_partition);
        t.pending_partition <- []
      end;
      (* even an empty commit closes the installation: adds whose frames
         were all lost arrive later as retransmissions and must merge *)
      t.partition_committed <- true;
      [ Message.Barrier_reply x ]
  | Message.Flow_mod fm -> (
      match (fm.Message.bank, fm.Message.command) with
      | Message.Cache, _ ->
          apply_flow_mod t ~now fm;
          ack xid
      | Message.Partition, Message.Add ->
          (if t.partition_committed then begin
             (* the barrier that closed this batch already passed (the
                original frame was lost; this is its retransmission):
                merge into the live bank — regions are disjoint and rule
                ids stable, so replace-by-id converges.  A non-tunnel
                action is kept too: [process] surfaces it as
                [misconfigured] rather than dropping it silently here *)
             t.partition_bank <-
               fm.Message.rule
               :: List.filter
                    (fun (r : Rule.t) -> r.Rule.id <> fm.Message.rule.Rule.id)
                    t.partition_bank;
             rebuild_partition_index t
           end
           else t.pending_partition <- fm.Message.rule :: t.pending_partition);
          ack xid
      | Message.Partition, (Message.Delete | Message.Delete_strict)
      | Message.Authority, _ ->
          ack xid)
  | Message.Stats_request { Message.table_bank = Message.Cache; cookie } ->
      let flows =
        List.map
          (fun (e : Tcam.entry) ->
            {
              Message.rule_id = e.rule.Rule.id;
              packets = e.Tcam.packets;
              bytes = e.Tcam.bytes;
              duration = now -. e.Tcam.installed_at;
            })
          (Tcam.entries t.cache)
      in
      [ Message.Stats_reply { Message.request_cookie = cookie; flows } ]
  | Message.Stats_request _ -> [ Message.Stats_reply { Message.request_cookie = 0; flows = [] } ]
  | Message.Install_partition { Message.pid; region; table_rules } ->
      install_authority t
        {
          Partitioner.pid;
          region;
          table = Classifier.create (Pred.schema region) table_rules;
        };
      ack xid
  | Message.Drop_partition pid ->
      drop_authority t pid;
      ack xid
  | Message.Echo_reply _ | Message.Barrier_reply _ | Message.Stats_reply _
  | Message.Packet_in _ | Message.Packet_out _ | Message.Flow_removed _
  | Message.Ack _ ->
      []

let handle_control ?(xid = 0) ?(epoch = 0) t ~now msg =
  (* Epoch fencing (replicated controllers).  A frame from a newer master
     moves the switch forward — and clears the xid replay memory, because
     the new master allocates xids from its own space.  A frame from an
     older (deposed) master is refused without being applied, but still
     acked: replies carry the switch's current epoch, which is how the
     deposed leader learns it lost.  Epoch 0 frames are unfenced
     (single-controller deployments) and always accepted. *)
  if epoch > t.epoch then begin
    t.epoch <- epoch;
    Hashtbl.reset t.seen_xids;
    Queue.clear t.seen_order;
    (* abandon the deposed master's open install transaction: its staged
       partition adds must not leak into the new master's batch (the new
       batch replaces the bank wholesale at its own barrier) *)
    t.pending_partition <- [];
    t.partition_committed <- false
  end;
  if epoch <> 0 && epoch < t.epoch then begin
    t.stale_rejected <- t.stale_rejected + 1;
    Telemetry.incr t.tele.m_stale_rejected;
    ack xid
  end
  else
    (* idempotency per xid: a duplicate (retransmitted or channel-duplicated)
       request is answered from memory without re-applying its effect — a
       replayed barrier must not commit rules staged since, a replayed
       partition add must not double a rule *)
    match (if xid = 0 then None else Hashtbl.find_opt t.seen_xids xid) with
    | Some responses -> responses
    | None ->
        let responses = dispatch_control t ~now ~xid msg in
        if xid <> 0 then remember t xid responses;
        responses

(* Partition regions are disjoint, so at most one rule matches; the
   index turns the old whole-bank scan into a handful of hash probes. *)
let partition_lookup t h =
  match t.partition_index with
  | Some idx -> Indexed.first_match idx h
  | None -> List.find_opt (fun (r : Rule.t) -> Rule.matches r h) t.partition_bank

let authority_lookup t h =
  List.find_map
    (fun ((p : Partitioner.partition), idx) ->
      if Pred.matches p.region h then
        Option.map (fun r -> (p, r)) (Indexed.first_match idx h)
      else None)
    t.authority

(* Which origin's region did a packet hitting a (possibly merged) cache
   entry actually fall in?  Single-part metas — the overwhelmingly common
   case — answer without touching the predicate; merged entries walk
   their rank-ordered parts, so attribution is exact per packet even when
   one installed rule stands for several policy rules. *)
let attribute_hit m h =
  match m.parts with
  | [ p ] -> p.part_origin
  | [] -> -1
  | p :: _ as parts -> (
      match List.find_opt (fun q -> Pred.matches q.part_pred h) parts with
      | Some q -> q.part_origin
      | None -> p.part_origin)

let process t ~now h =
  match Tcam.lookup t.cache ~now h with
  | Some r ->
      t.cache_hits <- Int64.add t.cache_hits 1L;
      Telemetry.incr t.tele.m_cache_hits;
      (match Hashtbl.find_opt t.cache_origin r.Rule.id with
      | Some m ->
          let origin = attribute_hit m h in
          bump t.origin_cache_hits origin 1L;
          if m.pid >= 0 then bump t.pid_cache_hits m.pid 1L;
          (* a cover set lives and dies as one unit: traffic absorbed by
             any member keeps the whole group's idle deadlines fresh, or
             an unhit high-rank dependency would expire and take the
             group (and its hit stream) with it *)
          (match m.group with
          | Some (_, members) ->
              List.iter
                (fun id ->
                  if id <> r.Rule.id then ignore (Tcam.touch t.cache ~now id))
                members
          | None -> ());
          Ptrace.emit ~at:now Ptrace.Cache_hit ~switch:t.id ~rule:r.Rule.id
            ~aux:(Ptrace.pack_provenance ~origin ~pid:m.pid)
      | None ->
          Ptrace.emit ~at:now Ptrace.Cache_hit ~switch:t.id ~rule:r.Rule.id ~aux:0);
      Local (r.Rule.action, Cache_bank)
  | None -> (
      match authority_lookup t h with
      | Some (_, r) ->
          t.authority_hits <- Int64.add t.authority_hits 1L;
          Telemetry.incr t.tele.m_authority_hits;
          bump t.origin_auth_hits r.Rule.id 1L;
          Ptrace.emit ~at:now Ptrace.Authority_hit ~switch:t.id ~rule:r.Rule.id ~aux:0;
          Local (r.Rule.action, Authority_bank)
      | None -> (
          match partition_lookup t h with
          | Some { Rule.action = Action.To_authority a; _ } ->
              t.tunnelled <- Int64.add t.tunnelled 1L;
              Telemetry.incr t.tele.m_tunnelled;
              Ptrace.emit ~at:now Ptrace.Miss ~switch:t.id ~rule:(-1) ~aux:a;
              Tunnel a
          | Some _ ->
              (* a partition rule claimed the header but cannot tunnel
                 it: a misconfigured bank, not uncovered flowspace *)
              t.misconfigured <- Int64.add t.misconfigured 1L;
              Telemetry.incr t.tele.m_misconfigured;
              Misconfigured
          | None ->
              t.unmatched <- Int64.add t.unmatched 1L;
              Telemetry.incr t.tele.m_unmatched;
              Unmatched))

type miss_reply = {
  action : Action.t;
  cache_rule : Rule.t;
  origin_id : int;
  pid : int;
  installs : (Rule.t * cache_meta) list;
}

let exact_pred schema h =
  Pred.make schema
    (List.init (Schema.arity schema) (fun i ->
         Ternary.exact ~width:(Schema.field_bits schema i) (Header.field h i)))

let serve_miss ?(mode = `Spliced) ?cover_limit t ~now h =
  match
    List.find_opt
      (fun ((p : Partitioner.partition), _) -> Pred.matches p.region h)
      t.authority
  with
  | None -> None
  | Some (p, _) -> (
      match Splice.for_header p.table h with
      | None -> None
      | Some piece ->
          (* the authority switch forwards this packet itself: count it
             against the origin rule like any other hit, and against the
             partition for load rebalancing *)
          t.authority_hits <- Int64.add t.authority_hits 1L;
          Telemetry.incr t.tele.m_authority_hits;
          bump t.origin_auth_hits piece.origin.Rule.id 1L;
          bump t.partition_hits p.Partitioner.pid 1L;
          Ptrace.emit ~at:now Ptrace.Authority_serve ~switch:t.id
            ~rule:piece.origin.Rule.id ~aux:p.Partitioner.pid;
          let next_id () =
            let i = t.next_cache_id in
            t.next_cache_id <- i + 1;
            i
          in
          let pid = p.Partitioner.pid in
          let part_of (r : Rule.t) rank =
            { part_origin = r.id; part_rank = rank; part_pred = r.pred }
          in
          let fragment () =
            let r = Splice.cache_rule ~next_id p.table piece in
            ( r,
              [ (r, { pid; kind = Fragment; group = None;
                      parts = [ { (part_of piece.origin r.Rule.priority) with
                                  part_pred = piece.pred } ] }) ] )
          in
          let cache_rule, installs =
            match mode with
            | `Spliced -> (
                match cover_limit with
                | Some limit
                  when Splice.dependent_set_cost p.table piece.origin <= limit ->
                    (* the whole dependency closure fits the budget:
                       install the rule and its covers at their ranks
                       instead of a per-packet clipped fragment — broader
                       entries, and later misses on the same rule are
                       already covered *)
                    let members =
                      List.map
                        (fun (r : Rule.t) ->
                          let rank = Splice.cache_priority p.table r in
                          ( Rule.make ~id:(next_id ()) ~priority:rank r.pred
                              r.action,
                            r, rank ))
                        (Splice.cover_set p.table piece.origin)
                    in
                    (* one atomic group per serve, tagged with every
                       member's cache-rule id: if any member is later
                       evicted or expired the whole set goes with it,
                       and a hit on any member keeps all of them warm *)
                    let group =
                      Some
                        ( next_id (),
                          List.map (fun (cr, _, _) -> cr.Rule.id) members )
                    in
                    let covers =
                      List.map
                        (fun (cr, r, rank) ->
                          ( cr,
                            { pid; kind = Cover; group;
                              parts = [ part_of r rank ] } ))
                        members
                    in
                    let primary =
                      (* the entry standing for the origin rule itself:
                         the last of the table-ordered cover set *)
                      match List.rev covers with
                      | (r, _) :: _ -> r
                      | [] -> assert false
                    in
                    (primary, covers)
                | Some _ | None -> fragment ())
            | `Microflow ->
                (* exact match on the packet's own header: always safe,
                   and under aggregation adjacent microflows merge into
                   wider exact-union blocks *)
                let pr = exact_pred (Classifier.schema p.table) h in
                let r =
                  Rule.make ~id:(next_id ()) ~priority:0 pr
                    piece.origin.Rule.action
                in
                ( r,
                  [ (r, { pid; kind = Exact; group = None;
                          parts = [ { part_origin = piece.origin.Rule.id;
                                      part_rank = 0; part_pred = pr } ] }) ] )
          in
          Some
            {
              action = piece.origin.Rule.action;
              cache_rule;
              origin_id = piece.origin.Rule.id;
              pid;
              installs;
            })


let install_cache_meta ?idle_timeout ?hard_timeout t ~now rule meta =
  let d = Tcam.insert_or_evict_entries ?idle_timeout ?hard_timeout t.cache ~now rule in
  List.iter
    (fun (e : Tcam.entry) ->
      Ptrace.emit ~at:now Ptrace.Replace ~switch:t.id ~rule:e.Tcam.rule.Rule.id
        ~aux:Ptrace.replace_evicted;
      notify_removed t ~now Message.Evicted e)
    d.Tcam.evicted;
  (* a same-id reinstall displaces the old entry: report its final
     counters (cookie read before the provenance mapping is replaced)
     so rule attribution survives the churn *)
  Option.iter
    (fun (e : Tcam.entry) ->
      Ptrace.emit ~at:now Ptrace.Replace ~switch:t.id ~rule:e.Tcam.rule.Rule.id
        ~aux:Ptrace.replace_displaced;
      notify_removed t ~now Message.Replaced e;
      Hashtbl.remove t.cache_origin e.Tcam.rule.Rule.id)
    d.Tcam.replaced;
  if not d.Tcam.bounced then begin
    (match meta with
    | Some m ->
        Ptrace.emit ~at:now Ptrace.Install ~switch:t.id ~rule:rule.Rule.id
          ~aux:(Ptrace.pack_provenance ~origin:(meta_primary_origin m) ~pid:m.pid);
        Hashtbl.replace t.cache_origin rule.Rule.id m
    | None ->
        Ptrace.emit ~at:now Ptrace.Install ~switch:t.id ~rule:rule.Rule.id
          ~aux:(Ptrace.pack_provenance ~origin:(-1) ~pid:(-1)))
  end;
  let rules = List.map (fun (e : Tcam.entry) -> e.Tcam.rule) d.Tcam.evicted in
  List.iter (fun (r : Rule.t) -> Hashtbl.remove t.cache_origin r.id) rules;
  sync_occupancy t;
  rules

let install_cache_rule ?idle_timeout ?hard_timeout ?origin_id ?(pid = -1) t ~now rule =
  (* back-compat single-origin install: wrap the provenance pair into a
     one-part meta; fully specified predicates are exact entries (the
     degraded controller path), everything else is a spliced fragment *)
  let meta =
    Option.map
      (fun origin ->
        let kind = if Pred.size_log2 rule.Rule.pred = 0 then Exact else Fragment in
        {
          pid;
          kind;
          group = None;
          parts =
            [ { part_origin = origin;
                part_rank = rule.Rule.priority;
                part_pred = rule.Rule.pred } ];
        })
      origin_id
  in
  let evicted = install_cache_meta ?idle_timeout ?hard_timeout t ~now rule meta in
  (* a single plain install is never part of a cover batch, so any group
     its eviction broke can be scrubbed immediately *)
  ignore (drop_cover_orphans t ~now);
  evicted

(* Aggregation absorbing an entry into a broader merged rule: the old
   entry leaves the TCAM reporting [Replaced] with its final counters —
   the same provenance-remap signal a same-id reinstall emits — so
   nothing downstream loses attribution when installed rules coalesce. *)
let absorb_cache_rule t ~now cid =
  match Tcam.find t.cache cid with
  | None -> false
  | Some e ->
      Ptrace.emit ~at:now Ptrace.Replace ~switch:t.id ~rule:cid
        ~aux:Ptrace.replace_displaced;
      notify_removed t ~now Message.Replaced e;
      ignore (Tcam.remove t.cache cid);
      Hashtbl.remove t.cache_origin cid;
      sync_occupancy t;
      true

(* Migration cleanup: evict cache entries spliced from a retired (or
   rolled-back) partition.  They report [Replaced] — the same signal a
   same-id reinstall emits — so the controller's provenance retirement
   machinery remaps them; the next miss re-splices under the live pid. *)
let invalidate_cache_pids t ~now pids =
  let doomed =
    Tcam.select t.cache (fun (e : Tcam.entry) ->
        match Hashtbl.find_opt t.cache_origin e.Tcam.rule.Rule.id with
        | Some m -> List.mem m.pid pids
        | None -> false)
  in
  List.iter
    (fun (e : Tcam.entry) ->
      Ptrace.emit_control ~at:now Ptrace.Invalidate ~switch:t.id
        ~rule:e.Tcam.rule.Rule.id ~aux:Ptrace.invalidate_migration;
      notify_removed t ~now Message.Replaced e;
      ignore (Tcam.remove t.cache e.Tcam.rule.Rule.id);
      Hashtbl.remove t.cache_origin e.Tcam.rule.Rule.id)
    doomed;
  sync_occupancy t;
  ignore (drop_cover_orphans t ~now);
  List.length doomed

let expire_cache t ~now =
  let gone = Tcam.expire_entries t.cache ~now in
  List.iter
    (fun (e : Tcam.entry) ->
      let reason =
        match e.Tcam.hard_timeout with
        | Some d when now -. e.Tcam.installed_at >= d -> Message.Hard_timeout
        | _ -> Message.Idle_timeout
      in
      Ptrace.emit_control ~at:now Ptrace.Replace ~switch:t.id
        ~rule:e.Tcam.rule.Rule.id
        ~aux:
          (if reason = Message.Hard_timeout then Ptrace.replace_hard
           else Ptrace.replace_idle);
      notify_removed t ~now reason e)
    gone;
  let rules = List.map (fun (e : Tcam.entry) -> e.Tcam.rule) gone in
  List.iter (fun (r : Rule.t) -> Hashtbl.remove t.cache_origin r.id) rules;
  sync_occupancy t;
  (* expiring one cover-set member (an unhit high-rank dependency idles
     out first) invalidates its whole group *)
  if rules <> [] then ignore (drop_cover_orphans t ~now);
  rules

(* Crash semantics: the device reboots blank.  Every bank, staged update,
   counter and the xid replay memory are gone; the id and cache capacity
   (hardware) survive.  The controller is expected to resync afterwards. *)
let reset t =
  Tcam.clear t.cache;
  t.authority <- [];
  t.partition_bank <- [];
  t.partition_index <- None;
  t.pending_partition <- [];
  t.partition_committed <- false;
  Hashtbl.reset t.cache_origin;
  Hashtbl.reset t.origin_cache_hits;
  Hashtbl.reset t.origin_auth_hits;
  Hashtbl.reset t.partition_hits;
  Hashtbl.reset t.pid_cache_hits;
  Hashtbl.reset t.seen_xids;
  Queue.clear t.seen_order;
  t.epoch <- 0;
  t.stale_rejected <- 0;
  t.stale_accepted <- 0;
  t.notifications <- [];
  t.cache_hits <- 0L;
  t.authority_hits <- 0L;
  t.tunnelled <- 0L;
  t.unmatched <- 0L;
  t.misconfigured <- 0L;
  sync_occupancy t

let fresh_cache_id t =
  let i = t.next_cache_id in
  t.next_cache_id <- i + 1;
  i

let drain_notifications t =
  let n = List.rev t.notifications in
  t.notifications <- [];
  n

let epoch t = t.epoch
let stale_rejected t = t.stale_rejected
let stale_accepted t = t.stale_accepted
let cache t = t.cache
let cache_occupancy t = Tcam.occupancy t.cache
let cache_meta_of_rule t cid = Hashtbl.find_opt t.cache_origin cid

let origin_of_cache_rule t cid =
  Option.map meta_primary_origin (Hashtbl.find_opt t.cache_origin cid)

let origins_of_cache_rule t cid =
  match Hashtbl.find_opt t.cache_origin cid with
  | None -> []
  | Some m ->
      List.sort_uniq Int.compare (List.map (fun p -> p.part_origin) m.parts)

let provenance_of_cache_rule t cid =
  Option.map (fun m -> (meta_primary_origin m, m.pid)) (Hashtbl.find_opt t.cache_origin cid)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let partition_load t = sorted_bindings t.partition_hits
let cache_load t = sorted_bindings t.pid_cache_hits

let origin_breakdown t =
  let merged = Hashtbl.create 64 in
  Hashtbl.iter (fun k v -> Hashtbl.replace merged k (v, 0L)) t.origin_cache_hits;
  Hashtbl.iter
    (fun k v ->
      let c = match Hashtbl.find_opt merged k with Some (c, _) -> c | None -> 0L in
      Hashtbl.replace merged k (c, v))
    t.origin_auth_hits;
  Hashtbl.fold (fun k (c, a) acc -> (k, c, a) :: acc) merged []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let aggregate_counters t =
  List.map (fun (k, c, a) -> (k, Int64.add c a)) (origin_breakdown t)

let stats t =
  {
    cache_hits = t.cache_hits;
    authority_hits = t.authority_hits;
    tunnelled = t.tunnelled;
    unmatched = t.unmatched;
    misconfigured = t.misconfigured;
  }

let reset_stats t =
  t.cache_hits <- 0L;
  t.authority_hits <- 0L;
  t.tunnelled <- 0L;
  t.unmatched <- 0L;
  t.misconfigured <- 0L;
  Hashtbl.reset t.origin_cache_hits;
  Hashtbl.reset t.origin_auth_hits;
  Hashtbl.reset t.partition_hits;
  Hashtbl.reset t.pid_cache_hits

let pp ppf t =
  Format.fprintf ppf "switch %d: cache %d/%d, %d authority partitions, %d partition rules"
    t.id (Tcam.occupancy t.cache) (Tcam.capacity t.cache) (List.length t.authority)
    (List.length t.partition_bank)
