(* Whole-bank walks answering the aggregation queries and the orphan
   scrub.  Each reads the bank in [Tcam.entries] order
   ([Rule.compare_priority]) and every entry's provenance; the
   differential property in test_aggregate holds the index-backed
   versions to these answers. *)

let ranks_compatible (k : Switch.cache_kind) pa pb =
  match k with Switch.Fragment -> true | Switch.Cover | Switch.Exact -> pa = pb

let find_merge sw ~pid ~kind ~group ~priority ~action pred =
  List.find_map
    (fun (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      if not (Action.equal r.Rule.action action) then None
      else
        match Switch.cache_meta_of_rule sw r.Rule.id with
        | Some m
          when m.Switch.pid = pid && m.Switch.kind = kind
               && m.Switch.group = group
               && ranks_compatible kind r.Rule.priority priority -> (
            match Pred.buddy_union pred r.Rule.pred with
            | Some u -> Some (r, m, u)
            | None -> None)
        | Some _ | None -> None)
    (Tcam.entries (Switch.cache sw))

let equivalent_live_cover sw (rule : Rule.t) (meta : Switch.cache_meta) =
  List.find_map
    (fun (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      if
        r.Rule.priority = rule.Rule.priority
        && Action.equal r.Rule.action rule.Rule.action
        && Pred.equal r.Rule.pred rule.Rule.pred
      then
        match Switch.cache_meta_of_rule sw r.Rule.id with
        | Some m when m.Switch.kind = Switch.Cover && m.Switch.pid = meta.Switch.pid
          ->
            Some r.Rule.id
        | _ -> None
      else None)
    (Tcam.entries (Switch.cache sw))

(* Pass after pass, the entries whose group lost a member, each pass in
   table order, until a pass finds none: a pass's removals can break the
   groups that shared the removed entries. *)
let cover_orphans sw =
  let cache = Switch.cache sw in
  let rec passes gone =
    let live id = Tcam.mem cache id && not (List.mem id gone) in
    let pass =
      List.filter_map
        (fun (e : Tcam.entry) ->
          let id = e.Tcam.rule.Rule.id in
          match Switch.cache_meta_of_rule sw id with
          | Some { Switch.group = Some (_, members); _ }
            when live id && not (List.for_all live members) ->
              Some id
          | _ -> None)
        (Tcam.entries cache)
    in
    if pass = [] then [] else pass @ passes (gone @ pass)
  in
  passes []
