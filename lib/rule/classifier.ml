type t = { schema : Schema.t; rules : Rule.t list (* table order *) }

let sort_rules rules = List.sort Rule.compare_priority rules

let create schema rules =
  List.iter
    (fun (r : Rule.t) ->
      if not (Schema.equal (Pred.schema r.pred) schema) then
        invalid_arg "Classifier.create: rule schema mismatch")
    rules;
  let ids = List.map (fun (r : Rule.t) -> r.id) rules in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Classifier.create: duplicate rule ids";
  { schema; rules = sort_rules rules }

let of_table_order schema rules = { schema; rules }

(* clipping keeps ids and priorities: the clipped rules are still a table *)
let clip t region =
  let clipped (r : Rule.t) = Option.map (Rule.with_pred r) (Pred.inter r.pred region) in
  { t with rules = List.filter_map clipped t.rules }

let of_specs schema specs =
  let rules =
    List.mapi
      (fun i (priority, fields, action) ->
        Rule.make ~id:i ~priority (Pred.of_strings schema fields) action)
      specs
  in
  create schema rules

let schema t = t.schema
let rules t = t.rules
let length t = List.length t.rules
let find t id = List.find_opt (fun (r : Rule.t) -> r.id = id) t.rules

let add t r =
  if Option.is_some (find t r.Rule.id) then
    invalid_arg "Classifier.add: duplicate rule id";
  { t with rules = sort_rules (r :: t.rules) }

let remove t id = { t with rules = List.filter (fun (r : Rule.t) -> r.id <> id) t.rules }
let first_match t h = List.find_opt (fun r -> Rule.matches r h) t.rules
let action t h = Option.map (fun (r : Rule.t) -> r.action) (first_match t h)

let covered_region t =
  Region.of_preds t.schema (List.map (fun (r : Rule.t) -> r.pred) t.rules)

let is_total t = Region.subsumes (covered_region t) (Region.full t.schema)

let earlier t (r : Rule.t) =
  List.filter (fun r' -> Rule.beats r' r) t.rules

let effective_region t r =
  let blockers =
    earlier t r |> List.filter (Rule.overlaps r) |> List.map (fun (b : Rule.t) -> b.pred)
  in
  Region.of_preds t.schema (Pred.subtract_all r.Rule.pred blockers)

let shadowed t =
  List.filter (fun r -> List.exists (fun r' -> Rule.shadows r' r) t.rules) t.rules

let dead_rules t =
  List.filter (fun r -> Region.is_empty (effective_region t r)) t.rules

(* [b] is a direct dependency of [r] when some header is matched by both
   [r] and [b] but by no rule whose priority lies strictly between them:
   i.e. the overlap of [r] and [b] survives subtraction of every
   in-between rule. *)
let direct_dependencies t r =
  let earlier_rules = earlier t r |> List.filter (Rule.overlaps r) in
  List.filter
    (fun (b : Rule.t) ->
      match Pred.inter r.Rule.pred b.pred with
      | None -> false
      | Some ov ->
          let between =
            List.filter (fun r' -> Rule.beats b r') earlier_rules
            |> List.map (fun (x : Rule.t) -> x.pred)
          in
          Pred.diff_nonempty ov between)
    earlier_rules

let dependency_depth t =
  (* Longest chain following direct-dependency edges.  Memoised over the
     table-order index: edges always point to earlier rules. *)
  let arr = Array.of_list t.rules in
  let n = Array.length arr in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i r -> Hashtbl.replace index_of r.Rule.id i) arr;
  let memo = Array.make n 0 in
  let rec depth i =
    if memo.(i) > 0 then memo.(i)
    else begin
      let deps = direct_dependencies t arr.(i) in
      let d =
        1
        + List.fold_left
            (fun acc (b : Rule.t) -> max acc (depth (Hashtbl.find index_of b.id)))
            0 deps
      in
      memo.(i) <- d;
      d
    end
  in
  let best = ref 0 in
  for i = 0 to n - 1 do
    best := max !best (depth i)
  done;
  !best

let overlap_depth t =
  let arr = Array.of_list t.rules in
  let n = Array.length arr in
  let depth = Array.make n 1 in
  (* table order: earlier rules beat later ones, so one forward pass *)
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      if Rule.overlaps arr.(i) arr.(j) && depth.(i) + 1 > depth.(j) then
        depth.(j) <- depth.(i) + 1
    done
  done;
  Array.fold_left max 0 depth

let overlap_count t =
  let rec go acc = function
    | [] -> acc
    | r :: rest ->
        let acc =
          acc + List.length (List.filter (fun r' -> Rule.overlaps r r') rest)
        in
        go acc rest
  in
  go 0 t.rules

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Rule.pp)
    t.rules
