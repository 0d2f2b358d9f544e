type config = { enabled : bool }

let default = { enabled = false }
let enabled_default = { enabled = true }

(* the dependent-set size up to which a rule is cached as a cover set *)
let cover_set_limit = 4

let cover_limit c = if c.enabled then Some cover_set_limit else None

type stats = {
  installs : int;
  merges : int;
  suppressed : int;
  cover_installs : int;
}

type t = {
  config : config;
  mutable n_installs : int;
  mutable n_merges : int;
  mutable n_suppressed : int;
  mutable n_cover_installs : int;
  m_merges : Telemetry.counter;
  m_suppressed : Telemetry.counter;
}

let create config =
  {
    config;
    n_installs = 0;
    n_merges = 0;
    n_suppressed = 0;
    n_cover_installs = 0;
    m_merges = Telemetry.counter "aggregate_merges";
    m_suppressed = Telemetry.counter "aggregate_suppressed";
  }

let stats t =
  {
    installs = t.n_installs;
    merges = t.n_merges;
    suppressed = t.n_suppressed;
    cover_installs = t.n_cover_installs;
  }

let config t = t.config

(* An incoming install is redundant when a live entry with the same
   action subsumes its predicate at priority >= its own: any header the
   new entry could win is already matched by the subsumer at no lower
   priority, so the TCAM's verdict is the same action either way.  (An
   entry that would beat the new rule also beats the subsumer; a
   priority tie breaks toward the older — lower — id, which suppression
   also preserves.)

   Cover-set members are exempt: a group is only sound while every
   member is physically resident (Switch.drop_cover_orphans), and two
   origins' cover sets routinely share dependencies — suppressing the
   shared member against the other group's live copy would leave this
   group permanently incomplete and scrubbed at the batch boundary,
   reinstall churn in place of caching.  The duplicate it installs
   instead is semantically inert: same predicate, same rank, same
   action, so whichever copy the TCAM picks the verdict is identical. *)
let subsumed_by_live sw (rule : Rule.t) =
  Tcam.exists (Switch.cache sw) (fun (e : Tcam.entry) ->
      e.Tcam.rule.Rule.priority >= rule.Rule.priority
      && Action.equal e.Tcam.rule.Rule.action rule.Rule.action
      && Pred.subsumes e.Tcam.rule.Rule.pred rule.Rule.pred)

(* Merge legality for two entries of the same kind and partition,
   already known to carry the same action:

   - fragments merge at any rank pair; the union installs at the higher
     rank.  Fragments of different origins are disjoint and each
     excludes every rule beating its own origin, so raising one side to
     the other's (higher) rank can never steal a packet — nothing
     ranked above either origin overlaps either side — and per-part
     predicates keep hit attribution exact;
   - cover rules merge only at {e equal} rank: a cover entry reproduces
     one authority rule verbatim, and moving it in the priority order
     would invert a dependency the cover set exists to preserve
     ([install_one] never asks for them: see there);
   - exact entries all sit at priority 0 (microflows and degraded
     fallbacks), so equal-rank holds trivially. *)
let ranks_compatible (k : Switch.cache_kind) pa pb =
  match k with Switch.Fragment -> true | Switch.Cover | Switch.Exact -> pa = pb

let merge_parts a b =
  List.sort
    (fun (p : Switch.cache_part) (q : Switch.cache_part) ->
      compare q.Switch.part_rank p.Switch.part_rank)
    (a @ b)

(* One buddy-merge step: find a live entry adjacent to [pred] (equal on
   every field but one, buddies there — so the union is exact and covers
   no new header) that is legal to merge.  [Pred.buddy_union] only
   succeeds on disjoint operands, so merged parts partition the merged
   predicate exactly.  Cover-set members additionally require the same
   group: cross-group merging would entangle two atomically-evicted sets
   (and within one group ranks are distinct, so cover merges never fire
   in practice — the group machinery stays simple).

   The candidates come from the cache bank's tuple-space group for
   [pred]'s masks, one chain per specified bit ([Tcam.fold_buddies]);
   among the legal ones the victim is the entry [Rule.compare_priority]
   ranks first — the one a walk of the bank in [Tcam.entries] order
   would meet first. *)
let find_merge sw ~pid ~kind ~group ~priority ~action pred =
  Tcam.fold_buddies (Switch.cache sw) pred
    (fun best (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      match Switch.cache_meta_of_rule sw r.Rule.id with
      | Some m
        when Action.equal r.Rule.action action
             && m.Switch.pid = pid && m.Switch.kind = kind && m.Switch.group = group
             && ranks_compatible kind r.Rule.priority priority
             && (match best with Some (b, _, _) -> Rule.beats r b | None -> true) -> (
          match Pred.buddy_union pred r.Rule.pred with
          | Some u -> Some (r, m, u)
          | None -> best)
      | Some _ | None -> best)
    None

let install_one ?idle_timeout ?hard_timeout t sw ~now
    ((rule : Rule.t), (meta : Switch.cache_meta)) =
  if not t.config.enabled then begin
    t.n_installs <- t.n_installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule (Some meta)
  end
  else if meta.Switch.group = None && subsumed_by_live sw rule then begin
    t.n_suppressed <- t.n_suppressed + 1;
    Telemetry.incr t.m_suppressed;
    []
  end
  else begin
    (* widen to fixpoint: each absorbed neighbour may expose another
       buddy one bit further out, collapsing chains of adjacent entries
       into one maximally wide rule.  A cover entry skips the search: its
       only legal partner is a member of its own group at its own rank,
       and a group's members sit at distinct ranks (distinct table
       positions) under a group id fresh to its serve, so [find_merge]
       could only answer [None]. *)
    let pid = meta.Switch.pid and kind = meta.Switch.kind in
    let group = meta.Switch.group in
    let action = rule.Rule.action in
    let rec widen pred priority parts merged =
      match find_merge sw ~pid ~kind ~group ~priority ~action pred with
      | None -> (pred, priority, parts, merged)
      | Some (victim, vmeta, union) ->
          ignore (Switch.absorb_cache_rule sw ~now victim.Rule.id);
          t.n_merges <- t.n_merges + 1;
          Telemetry.incr t.m_merges;
          widen union
            (max priority victim.Rule.priority)
            (merge_parts parts vmeta.Switch.parts)
            true
    in
    let pred, priority, parts, merged =
      if kind = Switch.Cover then (rule.Rule.pred, rule.Rule.priority, meta.Switch.parts, false)
      else widen rule.Rule.pred rule.Rule.priority meta.Switch.parts false
    in
    let rule =
      if merged then
        Rule.make ~id:(Switch.fresh_cache_id sw) ~priority pred action
      else rule
    in
    t.n_installs <- t.n_installs + 1;
    if kind = Switch.Cover then t.n_cover_installs <- t.n_cover_installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule
      (Some { meta with Switch.parts })
  end

(* An exactly-equivalent live cover entry: same predicate, rank, action
   and partition.  Reusing it (below) instead of installing a duplicate
   is what lets overlapping cover sets share their common dependencies —
   the compression the cover path is for.  One chain of the bank's
   tuple-space kernel ([Tcam.fold_equal]); ties go to the entry
   [Rule.compare_priority] ranks first, as in [find_merge]. *)
let equivalent_live_cover sw (rule : Rule.t) (meta : Switch.cache_meta) =
  Tcam.fold_equal (Switch.cache sw) rule.Rule.pred
    (fun best (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      match Switch.cache_meta_of_rule sw r.Rule.id with
      | Some m
        when r.Rule.priority = rule.Rule.priority
             && Action.equal r.Rule.action rule.Rule.action
             && Pred.equal r.Rule.pred rule.Rule.pred
             && m.Switch.kind = Switch.Cover && m.Switch.pid = meta.Switch.pid
             && (match best with Some b -> Rule.beats r b | None -> true) ->
          Some r
      | Some _ | None -> best)
    None
  |> Option.map (fun (r : Rule.t) -> r.Rule.id)

let install ?idle_timeout ?hard_timeout t sw ~now installs =
  (* Cover-set sharing: overlapping origins' cover sets carry the same
     high-rank dependencies.  A member with an exactly-equivalent live
     entry is not installed again — the existing entry's id is
     substituted into this group's member list, so completeness checks
     (Tcam membership) and warmth refresh (touch) flow through the
     shared entry.  If the shared entry later goes, this group is
     incomplete and [drop_cover_orphans] scrubs it — atomicity holds
     across the sharing. *)
  let subst = Hashtbl.create 8 in
  let installs =
    List.filter
      (fun ((rule : Rule.t), (meta : Switch.cache_meta)) ->
        (not t.config.enabled)
        || meta.Switch.group = None
        ||
        match equivalent_live_cover sw rule meta with
        | Some id ->
            Hashtbl.replace subst rule.Rule.id id;
            t.n_suppressed <- t.n_suppressed + 1;
            Telemetry.incr t.m_suppressed;
            false
        | None -> true)
      installs
  in
  let remap id = Option.value ~default:id (Hashtbl.find_opt subst id) in
  let installs =
    List.map
      (fun (rule, (meta : Switch.cache_meta)) ->
        match meta.Switch.group with
        | Some (gid, members) ->
            (rule, { meta with Switch.group = Some (gid, List.map remap members) })
        | None -> (rule, meta))
      installs
  in
  let evicted =
    List.concat_map (install_one ?idle_timeout ?hard_timeout t sw ~now) installs
  in
  (* batch boundary: capacity evictions during the batch may have broken
     a resident cover group, and this batch's own group is incomplete if
     any member was suppressed or evicted mid-install — scrub survivors
     of any group that is not whole (no-op when no cover sets live) *)
  ignore (Switch.drop_cover_orphans sw ~now);
  evicted
