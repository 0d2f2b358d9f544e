type partition = { pid : int; region : Pred.t; table : Classifier.t }
type heuristic = Best_cut | Fixed_dimension of int

type t = {
  partitions : partition list;
  heuristic : heuristic;
  source_rules : int;
  total_entries : int;
  max_entries : int;
  duplication : float;
}

(* A leaf of the decision tree during construction: a region and the rules
   overlapping it (unclipped — clipping happens once at the end). *)
type leaf = { region : Pred.t; rules : Rule.t list; count : int }

let leaf_of region rules =
  let rules = List.filter (fun (r : Rule.t) -> Pred.overlaps r.pred region) rules in
  { region; rules; count = List.length rules }

(* Candidate cuts of a region: for each field, the most significant
   wildcard bit.  Cutting at the MSB wildcard halves the region along the
   coarsest granularity, mirroring the paper's top-down splitting. *)
let candidate_cuts region =
  List.filter_map
    (fun fi ->
      match Ternary.first_wildcard_msb (Pred.field region fi) with
      | Some bit -> Some (fi, bit)
      | None -> None)
    (List.init (Pred.arity region) (fun i -> i))

(* Cost of a cut: (max child size, total size).  Lexicographic: balance
   first, duplication second. *)
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
  let scored = List.filter_map (cut_cost leaf) cuts in
  match scored with
  | [] -> None
  | first :: rest ->
      let better (c1, _) (c2, _) = compare c1 c2 < 0 in
      Some (snd (List.fold_left (fun acc x -> if better x acc then x else acc) first rest))

(* Greedy growth: repeatedly split the leaf chosen by [pick] until [stop]
   says the forest is good enough or nothing productive is left to cut.
   [pick] only considers leaves for which [eligible] holds. *)
let grow_until ~heuristic ~stop ~eligible start =
  let rec grow leaves n_leaves =
    if stop leaves n_leaves then leaves
    else
      let sorted =
        List.sort (fun a b -> compare b.count a.count)
          (List.filter eligible leaves)
      in
      let untouched = List.filter (fun l -> not (eligible l)) leaves in
      let rec try_split tried = function
        | [] -> None (* nothing splittable *)
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
  if rules = [] then invalid_arg "Partitioner.compute: empty classifier";
  let schema = Classifier.schema classifier in
  let leaves =
    grow_until ~heuristic ~stop ~eligible [ leaf_of (Pred.any schema) rules ]
  in
  let partitions =
    List.mapi
      (fun pid leaf ->
        let clipped =
          List.filter_map
            (fun (r : Rule.t) ->
              Option.map (Rule.with_pred r) (Pred.inter r.pred leaf.region))
            leaf.rules
        in
        { pid; region = leaf.region; table = Classifier.create schema clipped })
      leaves
  in
  let sizes = List.map (fun (p : partition) -> Classifier.length p.table) partitions in
  let total_entries = List.fold_left ( + ) 0 sizes in
  let max_entries = List.fold_left max 0 sizes in
  let source_rules = List.length rules in
  {
    partitions;
    heuristic;
    source_rules;
    total_entries;
    max_entries;
    duplication = float_of_int total_entries /. float_of_int source_rules;
  }

let compute ?(heuristic = Best_cut) classifier ~k =
  if k < 1 then invalid_arg "Partitioner.compute: k must be >= 1";
  compute_generic ~heuristic classifier
    ~stop:(fun _ n -> n >= k)
    ~eligible:(fun _ -> true)

let compute_bounded ?(heuristic = Best_cut) ?(max_partitions = 4096) classifier
    ~max_entries =
  if max_entries < 1 then invalid_arg "Partitioner.compute_bounded: max_entries < 1";
  compute_generic ~heuristic classifier
    ~stop:(fun leaves n ->
      n >= max_partitions || List.for_all (fun l -> l.count <= max_entries) leaves)
    ~eligible:(fun l -> l.count > max_entries)

let clip_table schema rules region =
  let clipped =
    List.filter_map
      (fun (r : Rule.t) ->
        Option.map (Rule.with_pred r) (Pred.inter r.pred region))
      rules
  in
  Classifier.create schema clipped

let refit t classifier ~regions =
  let rules = Classifier.rules classifier in
  if rules = [] then invalid_arg "Partitioner.refit: empty classifier";
  if regions = [] then invalid_arg "Partitioner.refit: no regions";
  let schema = Classifier.schema classifier in
  let partitions =
    List.map
      (fun (pid, region) ->
        { pid; region; table = clip_table schema rules region })
      regions
  in
  let sizes = List.map (fun (p : partition) -> Classifier.length p.table) partitions in
  let total_entries = List.fold_left ( + ) 0 sizes in
  let max_entries = List.fold_left max 0 sizes in
  let source_rules = List.length rules in
  {
    partitions;
    heuristic = t.heuristic;
    source_rules;
    total_entries;
    max_entries;
    duplication = float_of_int total_entries /. float_of_int source_rules;
  }

let patch t edit =
  let swapped = ref [] in
  let partitions =
    List.map
      (fun (p : partition) ->
        let rules = Classifier.rules p.table in
        if not (List.exists (fun (r : Rule.t) -> Option.is_some (edit r.Rule.id)) rules) then p
        else begin
          let mine = ref [] in
          let rules =
            List.map
              (fun (r : Rule.t) ->
                match edit r.id with
                | None -> r
                | Some n ->
                    let c = Rule.with_pred n r.pred in
                    mine := c :: !mine;
                    c)
              rules
          in
          let p = { p with table = Classifier.create (Classifier.schema p.table) rules } in
          swapped := (p, List.rev !mine) :: !swapped;
          p
        end)
      t.partitions
  in
  ({ t with partitions }, List.rev !swapped)

let max_pid t =
  List.fold_left (fun m (p : partition) -> max m p.pid) (-1) t.partitions

let split_region t classifier ~pid =
  match List.find_opt (fun (p : partition) -> p.pid = pid) t.partitions with
  | None -> None
  | Some p -> (
      let leaf = leaf_of p.region (Classifier.rules classifier) in
      match best_cut t.heuristic leaf with
      | None -> None
      | Some (lo, hi) ->
          let base = max_pid t in
          Some ((base + 1, lo), (base + 2, hi)))

let find t h =
  match List.find_opt (fun (p : partition) -> Pred.matches p.region h) t.partitions with
  | Some p -> p
  | None ->
      (* impossible by the covering invariant; fail loudly if it breaks *)
      invalid_arg "Partitioner.find: header not covered by any partition"

let partition_rule_base = 1_000_000

let partition_rules t ~assignment =
  List.map
    (fun (p : partition) ->
      Rule.make
        ~id:(partition_rule_base + p.pid)
        ~priority:0 p.region
        (Action.To_authority (assignment p.pid)))
    t.partitions
