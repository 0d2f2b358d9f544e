let origins sw cid =
  match Switch.cache_meta_of_rule sw cid with
  | None -> []
  | Some m ->
      List.sort_uniq Int.compare (List.map (fun (p : Switch.cache_part) -> p.part_origin) m.parts)

let deletes switches ~live ids =
  List.concat_map
    (fun id ->
      List.concat
        (List.mapi
           (fun i sw ->
             if not (live i) then []
             else
               List.filter_map
                 (fun (e : Tcam.entry) ->
                   let cid = e.Tcam.rule.Rule.id in
                   if List.mem id (origins sw cid) then Some (i, cid)
                   else None)
                 (Tcam.entries (Switch.cache sw)))
           (Array.to_list switches)))
    ids
