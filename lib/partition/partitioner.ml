type partition = { pid : int; region : Pred.t; table : Classifier.t }
type heuristic = Best_cut | Fixed_dimension of int

type t = {
  partitions : partition list;
  heuristic : heuristic;
  source_rules : int;
  total_entries : int;
  max_entries : int;
  duplication : float;
  next_pid : int;
}

(* A leaf of the decision tree during construction: a region and the rules
   overlapping it (unclipped — clipping happens once at the end). *)
type leaf = { region : Pred.t; rules : Rule.t list; count : int }

(* Cut scoring by bit tests (see the interface).  Every rule of a leaf
   overlaps the leaf's region, so it reaches the child on one side of a
   cut exactly when its own bit at the cut is a wildcard or that side's
   value.  [scores] holds three slots per field: the candidate's bit (the
   field's most significant wildcard bit, or -1 when the field is not
   cut), and the rules reaching the low and the high child. *)
let bit_slot fi = 3 * fi
let lo_slot fi = (3 * fi) + 1
let hi_slot fi = (3 * fi) + 2

let rec count_sides scores n = function
  | [] -> ()
  | (r : Rule.t) :: rest ->
      for fi = 0 to n - 1 do
        let bit = scores.(bit_slot fi) in
        if bit >= 0 then
          match Ternary.bit (Pred.field r.pred fi) bit with
          | `Any ->
              scores.(lo_slot fi) <- scores.(lo_slot fi) + 1;
              scores.(hi_slot fi) <- scores.(hi_slot fi) + 1
          | `Zero -> scores.(lo_slot fi) <- scores.(lo_slot fi) + 1
          | `One -> scores.(hi_slot fi) <- scores.(hi_slot fi) + 1
      done;
      count_sides scores n rest

type cut = { fi : int; bit : int; n_lo : int; n_hi : int }

(* The best cut of a leaf: lexicographically least (max child size,
   total size) — balance first, duplication second — and the first
   candidate (lowest field) on a tie. *)
let best_cut heuristic leaf =
  let n = Pred.arity leaf.region in
  let scores = Array.make (3 * n) (-1) in
  let consider fi =
    match Ternary.first_wildcard_msb (Pred.field leaf.region fi) with
    | Some bit ->
        scores.(bit_slot fi) <- bit;
        scores.(lo_slot fi) <- 0;
        scores.(hi_slot fi) <- 0
    | None -> ()
  in
  (match heuristic with
  | Best_cut -> for fi = 0 to n - 1 do consider fi done
  | Fixed_dimension fi -> consider fi);
  count_sides scores n leaf.rules;
  let best = ref (-1) and best_max = ref 0 and best_total = ref 0 in
  for fi = 0 to n - 1 do
    if scores.(bit_slot fi) >= 0 then begin
      let n_lo = scores.(lo_slot fi) and n_hi = scores.(hi_slot fi) in
      let m = max n_lo n_hi and total = n_lo + n_hi in
      if !best < 0 || m < !best_max || (m = !best_max && total < !best_total) then begin
        best := fi;
        best_max := m;
        best_total := total
      end
    end
  done;
  if !best < 0 then None
  else
    let fi = !best in
    Some { fi; bit = scores.(bit_slot fi); n_lo = scores.(lo_slot fi); n_hi = scores.(hi_slot fi) }

(* The two halves of [region] at [c], whose bit is a wildcard of it. *)
let halves region c = Option.get (Pred.split region c.fi c.bit)

(* The two children of a leaf cut at [c], each keeping the leaf's rule
   order: a rule reaches the side its bit names, or both on a wildcard. *)
let split_leaf leaf c =
  let reaches one (r : Rule.t) =
    match Ternary.bit (Pred.field r.pred c.fi) c.bit with
    | `Any -> true
    | `Zero -> not one
    | `One -> one
  in
  let lo, hi = halves leaf.region c in
  ( { region = lo; rules = List.filter (reaches false) leaf.rules; count = c.n_lo },
    { region = hi; rules = List.filter (reaches true) leaf.rules; count = c.n_hi } )

(* Greedy growth: repeatedly split the fullest leaf with a cut left until
   [stop] says the forest is good enough or nothing is left to cut.  Only
   leaves for which [eligible] holds are split. *)
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
            | Some c ->
                let lo, hi = split_leaf leaf c in
                Some (lo :: hi :: (tried @ rest))
            | None -> try_split (leaf :: tried) rest)
      in
      match try_split [] sorted with
      | None -> leaves
      | Some split_leaves -> grow (split_leaves @ untouched) (n_leaves + 1)
  in
  grow start (List.length start)

let of_partitions heuristic ~source_rules ~next_pid partitions =
  let sizes = List.map (fun (p : partition) -> Classifier.length p.table) partitions in
  let total_entries = List.fold_left ( + ) 0 sizes in
  let max_entries = List.fold_left max 0 sizes in
  {
    partitions;
    heuristic;
    source_rules;
    total_entries;
    max_entries;
    duplication = float_of_int total_entries /. float_of_int source_rules;
    next_pid;
  }

let compute_generic ?(first_pid = 0) ~heuristic classifier ~stop ~eligible =
  let rules = Classifier.rules classifier in
  if rules = [] then invalid_arg "Partitioner.compute: empty classifier";
  let schema = Classifier.schema classifier in
  (* every rule overlaps the whole flowspace *)
  let root = { region = Pred.any schema; rules; count = List.length rules } in
  let leaves = grow_until ~heuristic ~stop ~eligible [ root ] in
  of_partitions heuristic ~source_rules:root.count
    ~next_pid:(first_pid + List.length leaves)
    (List.mapi
       (fun i leaf ->
         (* [leaf.rules] are a table-order subsequence of the classifier's *)
         let table = Classifier.clip (Classifier.of_table_order schema leaf.rules) leaf.region in
         { pid = first_pid + i; region = leaf.region; table })
       leaves)

let compute ?(heuristic = Best_cut) ?first_pid classifier ~k =
  if k < 1 then invalid_arg "Partitioner.compute: k must be >= 1";
  compute_generic ?first_pid ~heuristic classifier
    ~stop:(fun _ n -> n >= k)
    ~eligible:(fun _ -> true)

let compute_bounded ?(heuristic = Best_cut) ?(max_partitions = 4096) classifier
    ~max_entries =
  if max_entries < 1 then invalid_arg "Partitioner.compute_bounded: max_entries < 1";
  compute_generic ~heuristic classifier
    ~stop:(fun leaves n ->
      n >= max_partitions || List.for_all (fun l -> l.count <= max_entries) leaves)
    ~eligible:(fun l -> l.count > max_entries)

let refit t classifier ~regions =
  let rules = Classifier.rules classifier in
  if rules = [] then invalid_arg "Partitioner.refit: empty classifier";
  if regions = [] then invalid_arg "Partitioner.refit: no regions";
  let next_pid = List.fold_left (fun m (pid, _) -> max m (pid + 1)) t.next_pid regions in
  of_partitions t.heuristic ~source_rules:(List.length rules) ~next_pid
    (List.map
       (fun (pid, region) -> { pid; region; table = Classifier.clip classifier region })
       regions)

(* A swapped rule keeps its id, so the table stays a table: it is
   re-sorted only where a priority moved. *)
let patch t edit =
  let swapped = ref [] in
  let partitions =
    List.map
      (fun (p : partition) ->
        let rules = Classifier.rules p.table in
        if not (List.exists (fun (r : Rule.t) -> Option.is_some (edit r.Rule.id)) rules) then p
        else begin
          let mine = ref [] and moved = ref false in
          let rules =
            List.map
              (fun (r : Rule.t) ->
                match edit r.id with
                | None -> r
                | Some n ->
                    let c = Rule.with_pred n r.pred in
                    if c.priority <> r.priority then moved := true;
                    mine := c :: !mine;
                    c)
              rules
          in
          let rules = if !moved then List.sort Rule.compare_priority rules else rules in
          let p = { p with table = Classifier.of_table_order (Classifier.schema p.table) rules } in
          swapped := (p, List.rev !mine) :: !swapped;
          p
        end)
      t.partitions
  in
  ({ t with partitions }, List.rev !swapped)

let split_region t classifier ~pid =
  match List.find_opt (fun (p : partition) -> p.pid = pid) t.partitions with
  | None -> None
  | Some p -> (
      let rules =
        List.filter
          (fun (r : Rule.t) -> Pred.overlaps r.pred p.region)
          (Classifier.rules classifier)
      in
      let leaf = { region = p.region; rules; count = List.length rules } in
      match best_cut t.heuristic leaf with
      | None -> None
      | Some c ->
          let lo, hi = halves p.region c in
          Some ((t.next_pid, lo), (t.next_pid + 1, hi)))

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
