(* The packed kernel, payloads pre-wrapped in [Some] so a hit returns
   without allocating.  Rules arrive in table order, so the kernel's
   first-match and early-exit shortcuts hold. *)
type t = {
  mutable source : Classifier.t;
  index : Rule.t option Tuple_space.t option;  (* [None]: schema over 126 bits *)
}

let of_classifier source =
  let index =
    if not (Header.lanes_exact (Classifier.schema source)) then None
    else begin
      let rules = Classifier.rules source in
      let ts = Tuple_space.create ~size:(List.length rules) () in
      List.iter (fun r -> ignore (Tuple_space.add ts r (Some r))) rules;
      Some ts
    end
  in
  { source; index }

let swap t table rules =
  (match t.index with
  | Some ts -> List.iter (fun (r : Rule.t) -> Tuple_space.swap ts r (Some r)) rules
  | None ->
      List.iter
        (fun (r : Rule.t) ->
          match Classifier.find t.source r.id with
          | Some o when o.priority = r.priority && Pred.equal o.pred r.pred -> ()
          | _ -> invalid_arg "Indexed.swap: no rule with this id, predicate and priority")
        rules);
  t.source <- table

let table t = t.source
let groups t = match t.index with Some ts -> Tuple_space.groups ts | None -> 0
let degenerate t = match t.index with Some ts -> Tuple_space.degenerate ts | None -> true
let first_match t h =
  match t.index with
  | None -> Classifier.first_match t.source h
  | Some ts ->
      let i = Tuple_space.find ts ~lo:(Header.key_lo h) ~hi:(Header.key_hi h) in
      if i < 0 then None else Tuple_space.get ts i
