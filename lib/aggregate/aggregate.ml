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
  mutable n_suppressed : int;
  mutable n_cover_installs : int;
  m_suppressed : Telemetry.counter;
}

let create config =
  {
    config;
    n_installs = 0;
    n_suppressed = 0;
    n_cover_installs = 0;
    m_suppressed = Telemetry.counter "aggregate_suppressed";
  }

let stats t =
  {
    installs = t.n_installs;
    merges = 0;
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

let install_one ?idle_timeout ?hard_timeout t sw ~now
    ((rule : Rule.t), (meta : Switch.cache_meta)) =
  if t.config.enabled && meta.Switch.group = None && subsumed_by_live sw rule then begin
    t.n_suppressed <- t.n_suppressed + 1;
    Telemetry.incr t.m_suppressed;
    []
  end
  else begin
    t.n_installs <- t.n_installs + 1;
    if t.config.enabled && meta.Switch.kind = Switch.Cover then
      t.n_cover_installs <- t.n_cover_installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule (Some meta)
  end

(* An exactly-equivalent live cover entry: same predicate, rank, action
   and partition.  Reusing it (below) instead of installing a duplicate
   is what lets overlapping cover sets share their common dependencies —
   the compression the cover path is for.  One chain of the bank's
   tuple-space kernel ([Tcam.fold_equal]); ties go to the entry
   [Rule.compare_priority] ranks first, the one a walk of the bank in
   [Tcam.entries] order would meet first. *)
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
