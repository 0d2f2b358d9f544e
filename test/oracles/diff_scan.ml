let diff old_policy new_policy =
  let by_id c =
    List.sort (fun (a : Rule.t) (b : Rule.t) -> Int.compare a.id b.id) (Classifier.rules c)
  in
  let same_pred (a : Rule.t) (b : Rule.t) = Pred.equal a.pred b.pred in
  let rec merge ids pairs local olds news =
    match (olds, news) with
    | [], [] -> (List.rev ids, if local then Some pairs else None)
    | (o : Rule.t) :: os, [] -> merge (o.id :: ids) pairs false os []
    | [], (n : Rule.t) :: ns -> merge (n.id :: ids) pairs false [] ns
    | o :: os, n :: ns ->
        if o.id < n.id then merge (o.id :: ids) pairs false os news
        else if n.id < o.id then merge (n.id :: ids) pairs false olds ns
        else if Rule.equal o n then merge ids pairs local os ns
        else merge (o.id :: ids) ((o, n) :: pairs) (local && same_pred o n) os ns
  in
  merge [] [] true (by_id old_policy) (by_id new_policy)
