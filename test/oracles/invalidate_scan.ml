let origins sw cid =
  match Switch.cache_meta_of_rule sw cid with None -> [] | Some m -> [ m.Switch.origin ]

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
