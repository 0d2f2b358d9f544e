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
}

(* Cache-entry provenance: each entry stands for exactly one policy
   rule, its origin. *)
type cache_kind = Fragment | Cover | Exact

type cache_meta = {
  pid : int;
  kind : cache_kind;
  origin : int;
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

(* One held authority table: the partition, the tuple-space index the
   data plane looks it up through, and the splice plan misses are served
   from.  Index and plan live in one entry so that nothing replaces or
   patches one without the other: an install makes a fresh entry, a
   patch swaps both in place. *)
type authority = {
  mutable part : Partitioner.partition;
  index : Indexed.t;
  mutable plan : Splice.plan option; (* built on the table's first miss *)
}

type t = {
  id : int;
  cache : Tcam.t;
  mutable authority : authority list;
  mutable partition_bank : Rule.t list; (* disjoint regions; order irrelevant *)
  mutable partition_index : Indexed.t option;
      (* tuple-space index over the committed bank, rebuilt on each
         (rare) control-plane replacement so the per-packet partition
         scan is sub-linear; [None] when the bank is empty or cannot be
         indexed (duplicate ids from a confused controller) — then the
         lookup falls back to the linear scan *)
  cache_origin : cache_meta Int_table.t;
      (* cache rule id -> provenance: serving partition id (-1 when the
         installer didn't know it — degraded exact-match fallbacks),
         entry kind, and the origin threaded from policy rule through
         authority table to installed cache entry *)
  group_entries : (int, Rule.t) Hashtbl.t;
      (* cover-group id -> its live entries, one binding each *)
  foreign_listers : (int, int) Hashtbl.t;
      (* cache rule id -> ids of the groups that list it as a foreign
         member: a cover entry of another group they share *)
  dirty_groups : (int, unit) Hashtbl.t;
      (* groups that may have become incomplete since the last
         [drop_cover_orphans] *)
  origin_cache_hits : int ref Int_table.t; (* origin rule id -> cache-bank packets *)
  origin_auth_hits : int ref Int_table.t; (* origin rule id -> authority-bank packets *)
  partition_hits : int ref Int_table.t; (* partition id -> misses served *)
  pid_cache_hits : int ref Int_table.t;
      (* partition id -> cache-bank packets absorbed by entries spliced
         from that partition — the cache-efficacy side of the ledger
         whose miss side is [partition_hits] at the authority *)
  mutable next_cache_id : int;
  mutable notifications : Message.t list; (* reverse order *)
  mutable attached : bool; (* to a control plane, which drains [notifications] *)
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
  mutable cache_hits : int;
  mutable authority_hits : int;
  mutable tunnelled : int;
  mutable unmatched : int;
  mutable misconfigured : int;
  tele : tele;
}

let cache_rule_base = 2_000_000

(* Cover-group bookkeeping for [drop_cover_orphans].  A group is dirty
   from the moment something could have made it incomplete — one of its
   entries left, a foreign member left, or an entry of it was installed
   (a sibling may have bounced) — until the next scrub checks it; every
   other group is known whole.  Foreign members are the entries of
   other groups that a group shares ([Aggregate]'s cover-set sharing).
   The scrub registers them when it finds the group whole, which is
   early enough: until then the group is dirty anyway. *)
let mark_dirty t gid = Hashtbl.replace t.dirty_groups gid ()

let remove_binding tbl k gone =
  let vs = Hashtbl.find_all tbl k in
  if List.exists gone vs then begin
    List.iter (fun _ -> Hashtbl.remove tbl k) vs;
    List.iter (fun v -> if not (gone v) then Hashtbl.add tbl k v) (List.rev vs)
  end

let index_entry t rule meta =
  match meta.group with
  | Some (gid, _) ->
      Hashtbl.add t.group_entries gid rule;
      mark_dirty t gid
  | None -> ()

let register_foreign t gid members =
  List.iter
    (fun m ->
      let own =
        match Int_table.find_opt t.cache_origin m with
        | Some { group = Some (g, _); _ } -> g = gid
        | _ -> false
      in
      if not (own || List.mem gid (Hashtbl.find_all t.foreign_listers m)) then
        Hashtbl.add t.foreign_listers m gid)
    members

(* The cache bank's detach hook: every entry leaving the TCAM, by any
   path, leaves its group's entry list here and marks dirty its own
   group and every group that lists it as a foreign member.  Runs
   before the removal site drops the entry's provenance. *)
let forget t (e : Tcam.entry) =
  let r = e.Tcam.rule in
  (match Int_table.find_opt t.cache_origin r.Rule.id with
  | Some { group = Some (gid, _); _ } ->
      remove_binding t.group_entries gid (fun (x : Rule.t) -> x.Rule.id = r.Rule.id);
      mark_dirty t gid
  | _ -> ());
  List.iter
    (fun gid ->
      mark_dirty t gid;
      Hashtbl.remove t.foreign_listers r.Rule.id)
    (Hashtbl.find_all t.foreign_listers r.Rule.id)

let create ~id ~cache_capacity =
  let labels = [ ("switch", string_of_int id) ] in
  let t =
    {
      id;
      cache = Tcam.create ~capacity:cache_capacity;
      authority = [];
      partition_bank = [];
      partition_index = None;
      cache_origin = Int_table.create 64;
      group_entries = Hashtbl.create 16;
      foreign_listers = Hashtbl.create 16;
      dirty_groups = Hashtbl.create 16;
      origin_cache_hits = Int_table.create 64;
      origin_auth_hits = Int_table.create 64;
      partition_hits = Int_table.create 16;
      pid_cache_hits = Int_table.create 16;
      next_cache_id = cache_rule_base + (id * 100_000);
      notifications = [];
      attached = false;
      pending_partition = [];
      partition_committed = false;
      seen_xids = Hashtbl.create 64;
      seen_order = Queue.create ();
      epoch = 0;
      stale_rejected = 0;
      stale_accepted = 0;
      cache_hits = 0;
      authority_hits = 0;
      tunnelled = 0;
      unmatched = 0;
      misconfigured = 0;
      tele =
        {
          m_cache_hits = Telemetry.counter ~labels "switch_cache_hits";
          m_authority_hits = Telemetry.counter ~labels "switch_authority_hits";
          m_tunnelled = Telemetry.counter ~labels "switch_tunnelled";
          m_unmatched = Telemetry.counter ~labels "switch_unmatched";
          m_misconfigured = Telemetry.counter ~labels "switch_misconfigured";
          m_stale_rejected = Telemetry.counter ~labels "switch_stale_rejected";
        };
    }
  in
  Tcam.on_detach t.cache (forget t);
  t

(* The index over a partition bank; [None] leaves lookups to a scan of
   the bank when its rules do not form a classifier. *)
let index_partition_rules = function
  | [] -> None
  | r :: _ as rules -> (
      match Classifier.create (Pred.schema r.Rule.pred) rules with
      | c -> Some (Indexed.of_classifier c)
      | exception Invalid_argument _ -> None)

let rebuild_partition_index t = t.partition_index <- index_partition_rules t.partition_bank

(* Internal wholesale replacement: what the hardware does with whatever
   the control channel delivered.  Rules with a non-tunnel action stay
   in the bank — [process] counts packets hitting them as
   [misconfigured] instead of crashing the switch mid-dispatch. *)
let set_partition_bank t rules =
  t.partition_bank <- rules;
  t.partition_committed <- true;
  rebuild_partition_index t

(* The index is built by the first install that needs it and then
   shared: nothing patches a partition index in place. *)
type partition_bank = { bank_rules : Rule.t list; mutable bank_index : Indexed.t option option }

let partition_bank rules =
  List.iter
    (fun (r : Rule.t) ->
      match r.action with
      | Action.To_authority _ -> ()
      | _ -> invalid_arg "Switch.partition_bank: non-partition action")
    rules;
  { bank_rules = rules; bank_index = None }

let install_partition_bank t b =
  (* the committed bank already holds exactly these rules: its index
     stands *)
  if not (t.partition_committed && List.equal Rule.equal t.partition_bank b.bank_rules) then begin
    let index =
      match b.bank_index with
      | Some index -> index
      | None ->
          let index = index_partition_rules b.bank_rules in
          b.bank_index <- Some index;
          index
    in
    t.partition_bank <- b.bank_rules;
    t.partition_committed <- true;
    t.partition_index <- index
  end

let drop_authority t pid =
  t.authority <- List.filter (fun e -> e.part.Partitioner.pid <> pid) t.authority

let install_authority t (p : Partitioner.partition) =
  drop_authority t p.pid;
  t.authority <- { part = p; index = Indexed.of_classifier p.table; plan = None } :: t.authority

let held t pid = List.find_opt (fun e -> e.part.Partitioner.pid = pid) t.authority
let authority_table t pid = Option.map (fun e -> (e.part, e.index)) (held t pid)

(* An action-only swap keeps every predicate, priority and slot, so the
   plan's blockers, edges and cover sets stand; only its rule array
   takes the new actions. *)
let patch_authority t (p : Partitioner.partition) swapped =
  match held t p.pid with
  | None -> invalid_arg "Switch.patch_authority: no table held for the partition"
  | Some e ->
      Indexed.swap e.index p.table swapped;
      Option.iter (fun plan -> Splice.swap plan swapped) e.plan;
      e.part <- p

let authority_partitions t = List.map (fun e -> e.part) t.authority
let partition_rules t = t.partition_bank

(* A hit counter is an [int] cell, bumped in place once it exists. *)
let bump tbl key =
  match Int_table.find tbl key with
  | c -> incr c
  | exception Not_found -> Int_table.add tbl key (ref 1)

(* Queued only for a control plane to drain: a run without one would
   keep every message to the end. *)
let notify_removed t ~now reason (e : Tcam.entry) =
  if t.attached then
    t.notifications <-
      Message.Flow_removed
        {
          Message.removed_rule = e.Tcam.rule.Rule.id;
          cookie =
            (match Int_table.find_opt t.cache_origin e.Tcam.rule.Rule.id with
            | Some m -> m.origin
            | None -> -1);
          reason;
          final_packets = Int64.of_int e.Tcam.packets;
          final_bytes = Int64.of_int e.Tcam.bytes;
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
   scrubbed.  Only dirty groups can be incomplete, so only they are
   checked; the doomed entries go in [Rule.compare_priority] order.
   They report [Replaced] like other displacement paths; the next miss
   simply re-serves.  A doomed entry another group shares dirties that
   group, so the scrub repeats until no group is dirty. *)
let rec drop_cover_orphans t ~now =
  let dirty = Hashtbl.fold (fun gid () acc -> gid :: acc) t.dirty_groups [] in
  if dirty <> [] then Hashtbl.reset t.dirty_groups;
  let doomed =
    List.fold_left
      (fun acc gid ->
        List.fold_left
          (fun acc (r : Rule.t) ->
            match Int_table.find_opt t.cache_origin r.Rule.id with
            | Some { group = Some (_, members); _ } ->
                if List.for_all (Tcam.mem t.cache) members then begin
                  register_foreign t gid members;
                  acc
                end
                else r :: acc
            | _ -> acc)
          acc
          (Hashtbl.find_all t.group_entries gid))
      [] dirty
    |> List.sort Rule.compare_priority
  in
  List.iter
    (fun (r : Rule.t) ->
      match Tcam.find t.cache r.Rule.id with
      | None -> ()
      | Some e ->
          Ptrace.emit_control ~at:now Ptrace.Invalidate ~switch:t.id ~rule:r.Rule.id
            ~aux:Ptrace.invalidate_cover_orphan;
          notify_removed t ~now Message.Replaced e;
          ignore (Tcam.remove t.cache r.Rule.id);
          Int_table.remove t.cache_origin r.Rule.id)
    doomed;
  match doomed with [] -> 0 | _ -> List.length doomed + drop_cover_orphans t ~now

let apply_flow_mod t ~now (fm : Message.flow_mod) =
  match (fm.bank, fm.command) with
  | Message.Cache, Message.Add ->
      (* a controller install carries no splice provenance: the
         provenance of a same-id entry it replaces goes with that entry *)
      (match
         Tcam.insert ?idle_timeout:fm.idle_timeout ?hard_timeout:fm.hard_timeout t.cache
           ~now fm.rule
       with
      | `Replaced _ -> Int_table.remove t.cache_origin fm.rule.Rule.id
      | `Ok | `Full -> ());
      Ptrace.emit_control ~at:now Ptrace.Install ~switch:t.id ~rule:fm.rule.Rule.id
        ~aux:0
  | Message.Cache, (Message.Delete | Message.Delete_strict) ->
      ignore (Tcam.remove t.cache fm.rule.Rule.id);
      Int_table.remove t.cache_origin fm.rule.Rule.id;
      Ptrace.emit_control ~at:now Ptrace.Invalidate ~switch:t.id ~rule:fm.rule.Rule.id
        ~aux:Ptrace.invalidate_delete;
      (* a controller delete can take one cover-set member; the rest of
         its group must not stay behind to misdecide packets *)
      ignore (drop_cover_orphans t ~now)
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
              packets = Int64.of_int e.Tcam.packets;
              bytes = Int64.of_int e.Tcam.bytes;
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
          table = Classifier.of_table_order (Pred.schema region) table_rules;
        };
      ack xid
  | Message.Drop_partition pid ->
      drop_authority t pid;
      ack xid
  | Message.Echo_reply _ | Message.Barrier_reply _ | Message.Stats_reply _
  | Message.Flow_removed _
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
    (fun e ->
      if Pred.matches e.part.Partitioner.region h then Indexed.first_match e.index h
      else None)
    t.authority

(* A cover set lives and dies as one unit: traffic absorbed by any
   member keeps the whole group's idle deadlines fresh, or an unhit
   high-rank dependency would expire and take the group (and its hit
   stream) with it. *)
let rec touch_members cache ~now hit = function
  | [] -> ()
  | id :: rest ->
      if id <> hit then ignore (Tcam.touch cache ~now id);
      touch_members cache ~now hit rest

let process t ~now h =
  match Tcam.lookup t.cache ~now h with
  | Some r ->
      t.cache_hits <- t.cache_hits + 1;
      Telemetry.incr t.tele.m_cache_hits;
      (match Int_table.find t.cache_origin r.Rule.id with
      | m ->
          bump t.origin_cache_hits m.origin;
          if m.pid >= 0 then bump t.pid_cache_hits m.pid;
          (match m.group with
          | Some (_, members) -> touch_members t.cache ~now r.Rule.id members
          | None -> ());
          Ptrace.emit ~at:now Ptrace.Cache_hit ~switch:t.id ~rule:r.Rule.id
            ~aux:(Ptrace.pack_provenance ~origin:m.origin ~pid:m.pid)
      | exception Not_found ->
          Ptrace.emit ~at:now Ptrace.Cache_hit ~switch:t.id ~rule:r.Rule.id ~aux:0);
      Local (r.Rule.action, Cache_bank)
  | None -> (
      match authority_lookup t h with
      | Some r ->
          t.authority_hits <- t.authority_hits + 1;
          Telemetry.incr t.tele.m_authority_hits;
          bump t.origin_auth_hits r.Rule.id;
          Ptrace.emit ~at:now Ptrace.Authority_hit ~switch:t.id ~rule:r.Rule.id ~aux:0;
          Local (r.Rule.action, Authority_bank)
      | None -> (
          match partition_lookup t h with
          | Some { Rule.action = Action.To_authority a; _ } ->
              t.tunnelled <- t.tunnelled + 1;
              Telemetry.incr t.tele.m_tunnelled;
              Ptrace.emit ~at:now Ptrace.Miss ~switch:t.id ~rule:(-1) ~aux:a;
              Tunnel a
          | Some _ ->
              (* a partition rule claimed the header but cannot tunnel
                 it: a misconfigured bank, not uncovered flowspace *)
              t.misconfigured <- t.misconfigured + 1;
              Telemetry.incr t.tele.m_misconfigured;
              Misconfigured
          | None ->
              t.unmatched <- t.unmatched + 1;
              Telemetry.incr t.tele.m_unmatched;
              Unmatched))

type miss_reply = {
  action : Action.t;
  cache_rule : Rule.t;
  origin_id : int;
  pid : int;
  installs : (Rule.t * cache_meta) list;
}

let fresh_cache_id t =
  let i = t.next_cache_id in
  t.next_cache_id <- i + 1;
  i

(* [List.find_opt] over the regions, without a closure per miss *)
let rec region_holder h = function
  | [] -> None
  | e :: rest -> if Pred.matches e.part.Partitioner.region h then Some e else region_holder h rest

let plan_of e =
  match e.plan with
  | Some plan -> plan
  | None ->
      let plan = Splice.plan e.index in
      e.plan <- Some plan;
      plan

let serve_miss ?(mode = `Spliced) ?cover_limit t ~now h =
  match region_holder h t.authority with
  | None -> None
  | Some e -> (
      match Indexed.first_match e.index h with
      | None -> None
      | Some origin ->
          let pid = e.part.Partitioner.pid in
          (* the authority switch forwards this packet itself: count it
             against the origin rule like any other hit, and against the
             partition for load rebalancing *)
          t.authority_hits <- t.authority_hits + 1;
          Telemetry.incr t.tele.m_authority_hits;
          bump t.origin_auth_hits origin.Rule.id;
          bump t.partition_hits pid;
          Ptrace.emit ~at:now Ptrace.Authority_serve ~switch:t.id ~rule:origin.Rule.id
            ~aux:pid;
          let cache_rule, installs =
            match mode with
            | `Spliced -> (
                let plan = plan_of e in
                match cover_limit with
                | Some limit when Splice.closure_size plan origin <= limit ->
                    (* the whole dependency closure fits the budget:
                       install the rule and its covers at their ranks
                       instead of a per-packet clipped fragment — broader
                       entries, and later misses on the same rule are
                       already covered.  One atomic group per serve,
                       tagged with every member's cache-rule id: if any
                       member is later evicted or expired the whole set
                       goes with it, and a hit on any member keeps all of
                       them warm.  Members take the next ids in table
                       order, the group the one after. *)
                    let size = Splice.closure_size plan origin in
                    let base = t.next_cache_id in
                    t.next_cache_id <- base + size + 1;
                    let group = Some (base + size, List.init size (fun k -> base + k)) in
                    let covers =
                      Splice.fold_cover plan origin
                        (fun k (r : Rule.t) rank acc ->
                          ( Rule.make ~id:(base + k) ~priority:rank r.pred r.action,
                            { pid; kind = Cover; origin = r.id; group } )
                          :: acc)
                        []
                    in
                    (* the entry standing for the origin rule itself: the
                       last of the table-ordered cover set *)
                    let rec last = function
                      | [ (r, _) ] -> r
                      | _ :: rest -> last rest
                      | [] -> assert false
                    in
                    (last covers, covers)
                | Some _ | None ->
                    let piece = Splice.piece plan origin h in
                    let r = Splice.cache_rule ~next_id:(fun () -> fresh_cache_id t) plan piece in
                    ( r,
                      [ (r, { pid; kind = Fragment; origin = origin.Rule.id; group = None }) ] ))
            | `Microflow ->
                (* exact match on the packet's own header: always safe *)
                let pr = Pred.exact (Classifier.schema e.part.Partitioner.table) h in
                let r = Rule.make ~id:(fresh_cache_id t) ~priority:0 pr origin.Rule.action in
                ( r,
                  [ (r, { pid; kind = Exact; origin = origin.Rule.id; group = None }) ] )
          in
          Some { action = origin.Rule.action; cache_rule; origin_id = origin.Rule.id; pid; installs })

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
      Int_table.remove t.cache_origin e.Tcam.rule.Rule.id)
    d.Tcam.replaced;
  if not d.Tcam.bounced then begin
    (match meta with
    | Some m ->
        Ptrace.emit ~at:now Ptrace.Install ~switch:t.id ~rule:rule.Rule.id
          ~aux:(Ptrace.pack_provenance ~origin:m.origin ~pid:m.pid);
        Int_table.replace t.cache_origin rule.Rule.id m;
        index_entry t rule m
    | None ->
        Ptrace.emit ~at:now Ptrace.Install ~switch:t.id ~rule:rule.Rule.id
          ~aux:(Ptrace.pack_provenance ~origin:(-1) ~pid:(-1)))
  end;
  let rules = List.map (fun (e : Tcam.entry) -> e.Tcam.rule) d.Tcam.evicted in
  List.iter (fun (r : Rule.t) -> Int_table.remove t.cache_origin r.id) rules;
  rules

(* The cache entries whose provenance [f] selects, in table order.  The
   walk is over the provenance table, which holds exactly the bank's
   entries that have provenance; only the selected entries are looked
   up in the bank and sorted. *)
let select_by_meta t f =
  Int_table.fold
    (fun cid m acc ->
      if f m then match Tcam.find t.cache cid with Some e -> e :: acc | None -> acc
      else acc)
    t.cache_origin []
  |> List.sort (fun (a : Tcam.entry) (b : Tcam.entry) -> Rule.compare_priority a.rule b.rule)

let entries_of_origins t sel = select_by_meta t (fun m -> sel m.origin)

(* Migration cleanup: evict cache entries spliced from a retired (or
   rolled-back) partition.  They report [Replaced] — the same signal a
   same-id reinstall emits — so the controller's provenance retirement
   machinery remaps them; the next miss re-splices under the live pid. *)
let invalidate_cache_pids t ~now pids =
  let doomed = select_by_meta t (fun m -> List.mem m.pid pids) in
  List.iter
    (fun (e : Tcam.entry) ->
      Ptrace.emit_control ~at:now Ptrace.Invalidate ~switch:t.id
        ~rule:e.Tcam.rule.Rule.id ~aux:Ptrace.invalidate_migration;
      notify_removed t ~now Message.Replaced e;
      ignore (Tcam.remove t.cache e.Tcam.rule.Rule.id);
      Int_table.remove t.cache_origin e.Tcam.rule.Rule.id)
    doomed;
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
  List.iter (fun (r : Rule.t) -> Int_table.remove t.cache_origin r.id) rules;
  (* expiring one cover-set member (an unhit high-rank dependency idles
     out first) invalidates its whole group *)
  if rules <> [] then ignore (drop_cover_orphans t ~now);
  rules

(* The bank's detach hook unindexes every entry; the provenance goes
   with them. *)
let flush_cache t =
  Tcam.clear t.cache;
  Int_table.reset t.cache_origin

(* Crash semantics: the device reboots blank.  Every bank, staged update,
   counter and the xid replay memory are gone; the id and cache capacity
   (hardware) survive.  The controller is expected to resync afterwards. *)
let reset t =
  flush_cache t;
  t.authority <- [];
  t.partition_bank <- [];
  t.partition_index <- None;
  t.pending_partition <- [];
  t.partition_committed <- false;
  Int_table.reset t.origin_cache_hits;
  Int_table.reset t.origin_auth_hits;
  Int_table.reset t.partition_hits;
  Int_table.reset t.pid_cache_hits;
  Hashtbl.reset t.seen_xids;
  Queue.clear t.seen_order;
  t.epoch <- 0;
  t.stale_rejected <- 0;
  t.stale_accepted <- 0;
  t.notifications <- [];
  t.cache_hits <- 0;
  t.authority_hits <- 0;
  t.tunnelled <- 0;
  t.unmatched <- 0;
  t.misconfigured <- 0

let attach t = t.attached <- true

let drain_notifications t =
  let n = List.rev t.notifications in
  t.notifications <- [];
  n

let epoch t = t.epoch
let stale_rejected t = t.stale_rejected
let stale_accepted t = t.stale_accepted
let cache t = t.cache
let cache_occupancy t = Tcam.occupancy t.cache
let cache_meta_of_rule t cid = Int_table.find_opt t.cache_origin cid

let origin_of_cache_rule t cid =
  Option.map (fun m -> m.origin) (Int_table.find_opt t.cache_origin cid)

(* Targeted invalidation: the selected origins' entries go; the next
   miss re-splices.  Removing one cover-set member must take its whole
   group: the broad member alone would answer packets its dependencies
   own. *)
let invalidate_origins t ~now origins =
  let victims = entries_of_origins t origins in
  List.iter
    (fun (e : Tcam.entry) ->
      ignore (Tcam.remove t.cache e.Tcam.rule.Rule.id);
      Int_table.remove t.cache_origin e.Tcam.rule.Rule.id)
    victims;
  let orphans = drop_cover_orphans t ~now in
  List.length victims + orphans

let sorted_bindings tbl =
  Int_table.fold (fun k v acc -> (k, Int64.of_int !v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let partition_load t = sorted_bindings t.partition_hits
let cache_load t = sorted_bindings t.pid_cache_hits

let origin_breakdown t =
  let keys tbl acc = Int_table.fold (fun k _ acc -> k :: acc) tbl acc in
  let count tbl k =
    match Int_table.find tbl k with c -> Int64.of_int !c | exception Not_found -> 0L
  in
  keys t.origin_cache_hits (keys t.origin_auth_hits [])
  |> List.sort_uniq Int.compare
  |> List.map (fun k -> (k, count t.origin_cache_hits k, count t.origin_auth_hits k))

let aggregate_counters t =
  List.map (fun (k, c, a) -> (k, Int64.add c a)) (origin_breakdown t)

let stats t =
  {
    cache_hits = Int64.of_int t.cache_hits;
    authority_hits = Int64.of_int t.authority_hits;
    tunnelled = Int64.of_int t.tunnelled;
    unmatched = Int64.of_int t.unmatched;
    misconfigured = Int64.of_int t.misconfigured;
  }

let pp ppf t =
  Format.fprintf ppf "switch %d: cache %d/%d, %d authority partitions, %d partition rules"
    t.id (Tcam.occupancy t.cache) (Tcam.capacity t.cache) (List.length t.authority)
    (List.length t.partition_bank)
