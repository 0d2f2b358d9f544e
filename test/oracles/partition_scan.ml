open Partitioner

type leaf = { region : Pred.t; rules : Rule.t list; count : int }

let leaf_of region rules =
  let rules = List.filter (fun (r : Rule.t) -> Pred.overlaps r.pred region) rules in
  { region; rules; count = List.length rules }

(* for each field, its most significant wildcard bit *)
let candidate_cuts region =
  List.filter_map
    (fun fi ->
      match Ternary.first_wildcard_msb (Pred.field region fi) with
      | Some bit -> Some (fi, bit)
      | None -> None)
    (List.init (Pred.arity region) (fun i -> i))

(* (max child size, total size), with the two child regions *)
let cut_cost leaf (fi, bit) =
  match Pred.split leaf.region fi bit with
  | None -> None
  | Some (lo, hi) ->
      let n_lo =
        List.length (List.filter (fun (r : Rule.t) -> Pred.overlaps r.pred lo) leaf.rules)
      in
      let n_hi =
        List.length (List.filter (fun (r : Rule.t) -> Pred.overlaps r.pred hi) leaf.rules)
      in
      Some ((max n_lo n_hi, n_lo + n_hi), (lo, hi))

let best_cut heuristic leaf =
  let cuts =
    match heuristic with
    | Best_cut -> candidate_cuts leaf.region
    | Fixed_dimension fi -> (
        match Ternary.first_wildcard_msb (Pred.field leaf.region fi) with
        | Some bit -> [ (fi, bit) ]
        | None -> [])
  in
  match List.filter_map (cut_cost leaf) cuts with
  | [] -> None
  | first :: rest ->
      let better (c1, _) (c2, _) = compare c1 c2 < 0 in
      Some (snd (List.fold_left (fun acc x -> if better x acc then x else acc) first rest))

let grow_until ~heuristic ~stop ~eligible start =
  let rec grow leaves n_leaves =
    if stop leaves n_leaves then leaves
    else
      let sorted =
        List.sort (fun a b -> compare b.count a.count) (List.filter eligible leaves)
      in
      let untouched = List.filter (fun l -> not (eligible l)) leaves in
      let rec try_split tried = function
        | [] -> None
        | leaf :: rest -> (
            match best_cut heuristic leaf with
            | Some (lo, hi) ->
                Some (leaf_of lo leaf.rules :: leaf_of hi leaf.rules :: (tried @ rest))
            | None -> try_split (leaf :: tried) rest)
      in
      match try_split [] sorted with
      | None -> leaves
      | Some split_leaves -> grow (split_leaves @ untouched) (n_leaves + 1)
  in
  grow start (List.length start)

let compute_generic ~heuristic classifier ~stop ~eligible =
  let rules = Classifier.rules classifier in
  let schema = Classifier.schema classifier in
  let leaves = grow_until ~heuristic ~stop ~eligible [ leaf_of (Pred.any schema) rules ] in
  let partitions =
    List.mapi
      (fun pid leaf ->
        let clipped =
          List.filter_map
            (fun (r : Rule.t) -> Option.map (Rule.with_pred r) (Pred.inter r.pred leaf.region))
            leaf.rules
        in
        { pid; region = leaf.region; table = Classifier.create schema clipped })
      leaves
  in
  let sizes = List.map (fun (p : partition) -> Classifier.length p.table) partitions in
  let total_entries = List.fold_left ( + ) 0 sizes in
  let source_rules = List.length rules in
  {
    partitions;
    heuristic;
    source_rules;
    total_entries;
    max_entries = List.fold_left max 0 sizes;
    duplication = float_of_int total_entries /. float_of_int source_rules;
    next_pid = List.length partitions;
  }

let compute ?(heuristic = Best_cut) classifier ~k =
  compute_generic ~heuristic classifier ~stop:(fun _ n -> n >= k) ~eligible:(fun _ -> true)

let compute_bounded ?(heuristic = Best_cut) ?(max_partitions = 4096) classifier ~max_entries =
  compute_generic ~heuristic classifier
    ~stop:(fun leaves n ->
      n >= max_partitions || List.for_all (fun l -> l.count <= max_entries) leaves)
    ~eligible:(fun l -> l.count > max_entries)

let split_region (t : Partitioner.t) classifier ~pid =
  match List.find_opt (fun (p : partition) -> p.pid = pid) t.partitions with
  | None -> None
  | Some p -> (
      match best_cut t.heuristic (leaf_of p.region (Classifier.rules classifier)) with
      | None -> None
      | Some (lo, hi) ->
          Some ((t.next_pid, lo), (t.next_pid + 1, hi)))
