let decision_region c action =
  let regions =
    Classifier.rules c
    |> List.filter (fun (r : Rule.t) -> Action.equal r.action action)
    |> List.map (Classifier.effective_region c)
  in
  List.fold_left Region.union (Region.empty (Classifier.schema c)) regions

let actions_of c =
  Classifier.rules c
  |> List.map (fun (r : Rule.t) -> r.action)
  |> List.sort_uniq Action.compare

let check_schemas a b =
  if not (Schema.equal (Classifier.schema a) (Classifier.schema b)) then
    invalid_arg "Equiv: schema mismatch"

(* The first region (as disjoint pieces) where the two classifiers
   disagree, or [] when equivalent.  Tables equal rule for rule are
   equivalent without any region algebra. *)
let disagreement a b =
  check_schemas a b;
  if List.equal Rule.equal (Classifier.rules a) (Classifier.rules b) then []
  else
    let actions = List.sort_uniq Action.compare (actions_of a @ actions_of b) in
    let mismatches =
      List.concat_map
        (fun action ->
          let ra = decision_region a action and rb = decision_region b action in
          Region.preds (Region.diff ra rb) @ Region.preds (Region.diff rb ra))
        actions
    in
    (* unmatched on one side only: the covered regions' difference, not
       complements of covers (a piece per fixed bit) *)
    let covered c =
      Region.of_preds (Classifier.schema c) (List.map Rule.(fun r -> r.pred) (Classifier.rules c))
    in
    let ca = covered a and cb = covered b in
    let unmatched = Region.preds (Region.diff cb ca) @ Region.preds (Region.diff ca cb) in
    mismatches @ unmatched

let equivalent a b = disagreement a b = []

let min_point pred =
  (* wildcard bits resolve to zero: the smallest header of the region *)
  Pred.random_point (fun _ -> 0) pred

let counterexample a b =
  match disagreement a b with [] -> None | piece :: _ -> Some (min_point piece)

let agree_on a b region =
  check_schemas a b;
  equivalent (Classifier.clip a region) (Classifier.clip b region)
