open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let quad_policy =
  (* four disjoint quadrant rules + default *)
  Classifier.of_specs s2
    [
      (10, [ ("f1", "0xxxxxxx"); ("f2", "0xxxxxxx") ], Action.Forward 1);
      (10, [ ("f1", "0xxxxxxx"); ("f2", "1xxxxxxx") ], Action.Forward 2);
      (10, [ ("f1", "1xxxxxxx"); ("f2", "0xxxxxxx") ], Action.Forward 3);
      (10, [ ("f1", "1xxxxxxx"); ("f2", "1xxxxxxx") ], Action.Drop);
    ]

let deep_policy = Policy_gen.acl (Prng.create 17) { Policy_gen.default_acl with rules = 200 }

let regions_disjoint_cover parts schema =
  let region = Region.of_preds schema (List.map (fun (p : Partitioner.partition) -> p.region) parts) in
  let covers = Region.equal_sets region (Region.full schema) in
  let rec disjoint = function
    | [] -> true
    | (p : Partitioner.partition) :: rest ->
        List.for_all (fun (q : Partitioner.partition) -> not (Pred.overlaps p.region q.region)) rest
        && disjoint rest
  in
  covers && disjoint parts

let test_k1 () =
  let r = Partitioner.compute quad_policy ~k:1 in
  check Alcotest.int "one partition" 1 (List.length r.partitions);
  check Alcotest.int "all rules" 4 r.total_entries;
  check (Alcotest.float 1e-9) "no duplication" 1.0 r.duplication

let test_k4_quadrants () =
  let r = Partitioner.compute quad_policy ~k:4 in
  check Alcotest.int "four partitions" 4 (List.length r.partitions);
  (* disjoint rules split perfectly: one rule per partition *)
  check Alcotest.int "max 1 per partition" 1 r.max_entries;
  check Alcotest.bool "disjoint cover" true
    (regions_disjoint_cover r.partitions s2)

let test_find () =
  let r = Partitioner.compute quad_policy ~k:4 in
  let p = Partitioner.find r (h 200 10) in
  check Alcotest.bool "region contains header" true (Pred.matches p.region (h 200 10));
  (* the partition's table decides the header like the original policy *)
  check (Alcotest.option action) "same action" (Classifier.action quad_policy (h 200 10))
    (Classifier.action p.table (h 200 10))

let test_partition_rules () =
  let r = Partitioner.compute quad_policy ~k:4 in
  let rules = Partitioner.partition_rules r ~assignment:(fun pid -> 100 + pid) in
  check Alcotest.int "one per partition" 4 (List.length rules);
  List.iter
    (fun (rl : Rule.t) ->
      match rl.action with
      | Action.To_authority a ->
          if a < 100 || a > 103 then Alcotest.fail "wrong assignment"
      | _ -> Alcotest.fail "partition rule must tunnel")
    rules

let test_monotone_entries () =
  (* more partitions -> per-partition max shrinks, total grows slowly *)
  let r1 = Partitioner.compute deep_policy ~k:1 in
  let r8 = Partitioner.compute deep_policy ~k:8 in
  let r32 = Partitioner.compute deep_policy ~k:32 in
  check Alcotest.bool "max decreases" true (r8.max_entries < r1.max_entries);
  check Alcotest.bool "max decreases more" true (r32.max_entries <= r8.max_entries);
  check Alcotest.bool "total grows" true (r32.total_entries >= r1.total_entries);
  check Alcotest.bool "duplication bounded" true (r32.duplication < 3.0)

let test_fixed_dimension_worse () =
  (* the ablation: cutting only dimension 0 cannot beat best-cut balance *)
  let best = Partitioner.compute deep_policy ~k:16 in
  let fixed =
    Partitioner.compute ~heuristic:(Partitioner.Fixed_dimension 0) deep_policy ~k:16
  in
  check Alcotest.bool "best-cut max <= fixed max" true
    (best.max_entries <= fixed.max_entries)

let test_k_too_large () =
  (* tiny classifier, huge k: partitioner must stop when bits run out *)
  let c = Classifier.of_specs s2 [ (1, [], Action.Drop) ] in
  let r = Partitioner.compute c ~k:10 in
  check Alcotest.bool "stops gracefully" true (List.length r.partitions <= 10);
  check Alcotest.bool "still covers" true (regions_disjoint_cover r.partitions s2)

let test_invalid () =
  (try
     ignore (Partitioner.compute quad_policy ~k:0);
     Alcotest.fail "k=0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Partitioner.compute (Classifier.create s2 []) ~k:1);
    Alcotest.fail "empty classifier accepted"
  with Invalid_argument _ -> ()

(* --- properties --- *)

let gen_policy =
  let open QCheck2.Gen in
  let* n = int_range 1 10 in
  let* specs = list_repeat n (pair (int_bound 10) gen_pred_tiny2) in
  let rules = List.mapi (fun i (pr, pd) -> Rule.make ~id:i ~priority:pr pd (Action.Forward i)) specs in
  return (Classifier.create s2 rules)

let prop_disjoint_cover =
  qt ~count:60 "partitions disjoint and cover"
    QCheck2.Gen.(pair gen_policy (int_range 1 9))
    (fun (c, k) ->
      let r = Partitioner.compute c ~k in
      regions_disjoint_cover r.partitions s2)

let prop_semantics_preserved =
  qt ~count:60 "clipped lookup = original lookup"
    QCheck2.Gen.(triple gen_policy (int_range 1 9) gen_header_tiny2)
    (fun (c, k, pt) ->
      let r = Partitioner.compute c ~k in
      let p = Partitioner.find r pt in
      let lhs = Option.map (fun (x : Rule.t) -> x.action) (Classifier.first_match p.table pt) in
      let rhs = Option.map (fun (x : Rule.t) -> x.action) (Classifier.first_match c pt) in
      (match (lhs, rhs) with
      | None, None -> true
      | Some a, Some b -> Action.equal a b
      | _ -> false))

let prop_total_entries_consistent =
  qt ~count:60 "metrics agree with partitions"
    QCheck2.Gen.(pair gen_policy (int_range 1 9))
    (fun (c, k) ->
      let r = Partitioner.compute c ~k in
      let sizes = List.map (fun (p : Partitioner.partition) -> Classifier.length p.table) r.partitions in
      r.total_entries = List.fold_left ( + ) 0 sizes
      && r.max_entries = List.fold_left max 0 sizes)

(* --- the bit-test cut search against the list-based oracle --- *)

let same_result (a : Partitioner.t) (b : Partitioner.t) =
  List.equal same_partition a.partitions b.partitions
  && a.heuristic = b.heuristic && a.source_rules = b.source_rules
  && a.total_entries = b.total_entries && a.max_entries = b.max_entries
  && Float.equal a.duplication b.duplication

(* [patch] keeps every region and swaps the edited rules into the tables
   in place, re-sorting a table only where a priority moved.  Whatever
   the edits, that is [refit] of the edited policy over the same
   regions: the tables equal rule for rule, in the same order. *)
let test_patch_equals_refit () =
  let moved_order = ref 0 in
  let prop (c, k, edits) =
    let r = Partitioner.compute c ~k in
    let edit = Hashtbl.create 8 in
    List.iteri
      (fun i (r : Rule.t) ->
        match List.nth_opt edits i with
        | Some (Some priority) ->
            Hashtbl.replace edit r.id
              (Rule.make ~id:r.id ~priority r.pred (Action.Forward (100 + r.id)))
        | Some None | None -> ())
      (Classifier.rules c);
    let edited =
      Classifier.create s2
        (List.map
           (fun (r : Rule.t) -> Option.value ~default:r (Hashtbl.find_opt edit r.id))
           (Classifier.rules c))
    in
    if List.map (fun (r : Rule.t) -> r.id) (Classifier.rules edited)
       <> List.map (fun (r : Rule.t) -> r.id) (Classifier.rules c)
    then incr moved_order;
    let patched, _ = Partitioner.patch r (Hashtbl.find_opt edit) in
    let refitted =
      Partitioner.refit r edited
        ~regions:(List.map (fun (p : Partitioner.partition) -> (p.pid, p.region)) r.partitions)
    in
    same_result patched refitted
  in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 31 |])
    (QCheck2.Test.make ~count:200 ~name:"patch = refit"
       QCheck2.Gen.(
         triple gen_policy (int_range 1 9) (list_size (int_range 0 10) (opt (int_bound 10))))
       prop);
  (* many cases moved a rule past another, not just its action *)
  if !moved_order < 50 then Alcotest.failf "coverage: %d cases reordered the policy" !moved_order

let same_split a b =
  match (a, b) with
  | None, None -> true
  | Some ((l, lo), (h, hi)), Some ((l', lo'), (h', hi')) ->
      l = l' && h = h' && Pred.equal lo lo' && Pred.equal hi hi'
  | _ -> false

(* Every [split_region] of [t], plus an unknown pid. *)
let splits_agree t c =
  List.for_all
    (fun pid ->
      same_split (Partitioner.split_region t c ~pid) (Partition_scan.split_region t c ~pid))
    (-1 :: List.map (fun (p : Partitioner.partition) -> p.pid) t.partitions)

(* Fields mixing wildcards, prefixes and scattered bits, so cuts at the
   top wildcard bit see rules on either side and on both. *)
let gen_field width =
  let open QCheck2.Gen in
  let* value = int64 in
  let* mask = int64 in
  frequency
    [
      (3, return (Ternary.any width));
      (4, map (fun len -> Ternary.prefix ~width value len) (int_bound width));
      (2, return (Ternary.make ~width ~value ~mask));
    ]

type call =
  | Compute of int  (* k *)
  | Bounded of int * int  (* max_entries, max_partitions *)
  | Split of int  (* every region of the k-way partition *)

type oracle_case = { policy : Classifier.t; heuristic : Partitioner.heuristic; call : call }

let gen_oracle_case =
  let open QCheck2.Gen in
  let* schema = oneofl [ s2; Schema.acl_5tuple; Schema.openflow_basic ] in
  let arity = Schema.arity schema in
  let gen_pred =
    map (Pred.make schema)
      (flatten_l (List.init arity (fun i -> gen_field (Schema.field_bits schema i))))
  in
  let* n = int_range 1 40 in
  let* specs = list_repeat n (pair (int_bound 10) gen_pred) in
  let policy =
    Classifier.create schema
      (List.mapi (fun i (pr, pd) -> Rule.make ~id:i ~priority:pr pd (Action.Forward i)) specs)
  in
  let* heuristic =
    frequency
      [
        (3, return Partitioner.Best_cut);
        (1, map (fun fi -> Partitioner.Fixed_dimension fi) (int_bound (arity - 1)));
      ]
  in
  let* call =
    oneof
      [
        map (fun k -> Compute k) (int_range 1 32);
        map2 (fun m p -> Bounded (m, p)) (int_range 1 8) (int_range 1 64);
        map (fun k -> Split k) (int_range 1 16);
      ]
  in
  return { policy; heuristic; call }

let print_oracle_case c =
  Format.asprintf "%s %s@.%a"
    (match c.heuristic with
    | Partitioner.Best_cut -> "best-cut"
    | Partitioner.Fixed_dimension fi -> Printf.sprintf "fixed %d" fi)
    (match c.call with
    | Compute k -> Printf.sprintf "compute k=%d" k
    | Bounded (m, p) -> Printf.sprintf "bounded max_entries=%d max_partitions=%d" m p
    | Split k -> Printf.sprintf "split_region over k=%d" k)
    (Format.pp_print_list Rule.pp) (Classifier.rules c.policy)

let matches_oracle { policy; heuristic; call } =
  match call with
  | Compute k ->
      same_result (Partitioner.compute ~heuristic policy ~k)
        (Partition_scan.compute ~heuristic policy ~k)
  | Bounded (max_entries, max_partitions) ->
      same_result
        (Partitioner.compute_bounded ~heuristic ~max_partitions policy ~max_entries)
        (Partition_scan.compute_bounded ~heuristic ~max_partitions policy ~max_entries)
  | Split k -> splits_agree (Partitioner.compute ~heuristic policy ~k) policy

let test_oracle_property () =
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 22 |])
    (QCheck2.Test.make ~count:400 ~name:"bit-test cut search = list-based oracle"
       ~print:print_oracle_case gen_oracle_case matches_oracle)

(* policy-churn's rule set: the 2,000-rule ACL at k = 16 *)
let acl_2000 = lazy (Policy_gen.acl (Prng.create 2010) { Policy_gen.default_acl with rules = 2000 })

let test_oracle_acl () =
  let c = Lazy.force acl_2000 in
  let t = Partitioner.compute c ~k:16 in
  check Alcotest.bool "compute = oracle" true (same_result t (Partition_scan.compute c ~k:16));
  check Alcotest.bool "split_region = oracle" true (splits_agree t c)

(* Pins [compute]'s allocation on that ACL.  About 330k minor words
   today, most of it clipping and building the tables; building both
   child regions and filtering the rules through them for every
   candidate cut made it 533k. *)
let test_compute_allocation () =
  let c = Lazy.force acl_2000 in
  ignore (Partitioner.compute c ~k:16);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Partitioner.compute c ~k:16));
  let words = Gc.minor_words () -. before in
  if words > 420_000. then
    Alcotest.failf "compute allocates %.0f minor words (bound 420,000)" words

let suite =
  [
    ( "partitioner",
      [
        tc "k=1 identity" test_k1;
        tc "quadrants split cleanly" test_k4_quadrants;
        tc "find and local semantics" test_find;
        tc "partition rules" test_partition_rules;
        tc "entries vs k monotonicity" test_monotone_entries;
        tc "fixed-dimension ablation is worse" test_fixed_dimension_worse;
        tc "k larger than splittable" test_k_too_large;
        tc "invalid inputs" test_invalid;
        prop_disjoint_cover;
        prop_semantics_preserved;
        prop_total_entries_consistent;
        tc "bit-test cut search = list-based oracle" test_oracle_property;
        tc "2,000-rule ACL at k=16 = oracle" test_oracle_acl;
        tc "compute allocation bound" test_compute_allocation;
        tc "patch with moved priorities = refit" test_patch_equals_refit;
      ] );
  ]
