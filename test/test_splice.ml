open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

(* A chain: narrow drop on top of a broad accept — the structure where
   naive rule caching is unsafe. *)
let chained =
  Classifier.of_specs s2
    [
      (30, [ ("f1", "00000001") ], Action.Drop);
      (20, [ ("f1", "000000xx"); ("f2", "1xxxxxxx") ], Action.Forward 9);
      (10, [ ("f1", "000000xx") ], Action.Forward 1);
      (0, [], Action.Drop);
    ]

let plan_of c = Splice.plan (Indexed.of_classifier c)
let chained_plan = plan_of chained

let test_piece_contains_header () =
  let hdr = h 2 0 in
  match Splice.for_header chained_plan hdr with
  | None -> Alcotest.fail "no piece"
  | Some piece ->
      check Alcotest.bool "contains header" true (Pred.matches piece.pred hdr);
      check Alcotest.int "origin is broad accept" 2 piece.origin.Rule.id

let test_piece_is_independent () =
  (* The spliced piece of the broad accept must avoid f1=1 (drop rule) and
     the f2>=128 slice (forward-9 rule). *)
  match Splice.for_header chained_plan (h 2 0) with
  | None -> Alcotest.fail "no piece"
  | Some piece ->
      check Alcotest.bool "avoids top drop" false (Pred.matches piece.pred (h 1 0));
      check Alcotest.bool "avoids middle rule" false (Pred.matches piece.pred (h 2 128));
      (* and every header of the piece gets the origin's action *)
      List.iter
        (fun hd ->
          check (Alcotest.option action) "action preserved" (Some (Action.Forward 1))
            (Classifier.action chained hd))
        (Pred.enumerate ~limit:64 piece.pred)

let test_cache_rule () =
  let piece = Option.get (Splice.for_header chained_plan (h 2 0)) in
  let counter = ref 100 in
  let next_id () = incr counter; !counter in
  let r = Splice.cache_rule ~next_id chained_plan piece in
  check Alcotest.int "fresh id" 101 r.Rule.id;
  check action "origin action" (Action.Forward 1) r.Rule.action;
  check pred "piece pred" piece.pred r.Rule.pred;
  (* the cache priority is the origin's bottom-up table rank *)
  check Alcotest.int "rank priority" (Splice.rank chained_plan piece.origin)
    r.Rule.priority;
  check Alcotest.int "broad accept ranks 2nd from bottom" 2 r.Rule.priority

let test_no_match () =
  let partial = Classifier.of_specs s2 [ (1, [ ("f1", "00000001") ], Action.Drop) ] in
  check Alcotest.bool "none" true (Option.is_none (Splice.for_header (plan_of partial) (h 2 0)))

let test_pieces_of_rule () =
  let broad = Option.get (Classifier.find chained 2) in
  let pieces = Splice.pieces_of_rule chained broad in
  check Alcotest.bool "several pieces" true (List.length pieces >= 2);
  (* pieces are disjoint and none overlaps a higher-priority rule *)
  let rec disjoint = function
    | [] -> true
    | p :: rest -> List.for_all (fun q -> not (Pred.overlaps p q)) rest && disjoint rest
  in
  check Alcotest.bool "disjoint" true (disjoint pieces);
  List.iter
    (fun p ->
      check Alcotest.bool "independent of drop" false
        (Pred.overlaps p (Pred.of_strings s2 [ ("f1", "00000001") ])))
    pieces

let test_dependent_set_cost () =
  (* caching the broad accept the naive way drags in both rules above it *)
  let broad = Option.get (Classifier.find chained 2) in
  check Alcotest.int "dependent set" 3 (Splice.dependent_set_cost chained broad);
  let top = Option.get (Classifier.find chained 0) in
  check Alcotest.int "top rule independent" 1 (Splice.dependent_set_cost chained top);
  check Alcotest.int "plan closure" 3 (Splice.closure_size chained_plan broad);
  check Alcotest.int "plan closure of top" 1 (Splice.closure_size chained_plan top)

let cover_of plan r = Splice.fold_cover plan r (fun k r rank acc -> (k, r, rank) :: acc) []

let test_plan_cover () =
  (* the broad accept's cover set: both rules above it, best first, each
     at its bottom-up rank *)
  let broad = Option.get (Classifier.find chained 2) in
  check
    Alcotest.(list (triple int int int))
    "members and ranks"
    [ (0, 0, 4); (1, 1, 3); (2, 2, 2) ]
    (List.map (fun (k, (r : Rule.t), rank) -> (k, r.id, rank)) (cover_of chained_plan broad));
  (* a swap refreshes the members' actions and keeps the structure *)
  let plan = plan_of chained in
  let top = Option.get (Classifier.find chained 0) in
  ignore (cover_of plan broad);
  Splice.swap plan [ Rule.with_action top (Action.Forward 7) ];
  check
    Alcotest.(list action)
    "swapped action"
    [ Action.Forward 7; Action.Forward 9; Action.Forward 1 ]
    (List.map (fun (_, (r : Rule.t), _) -> r.action) (cover_of plan broad))

(* The plan's piece, held to the from-scratch oracle's. *)
let piece_of c hdr =
  let got = Splice.for_header (plan_of c) hdr in
  match (got, Splice_scan.for_header c hdr) with
  | Some g, Some w when Rule.equal g.origin w.origin && Pred.equal g.pred w.pred -> got
  | None, None -> None
  | _ -> QCheck2.Test.fail_report "plan piece differs from the from-scratch piece"

(* --- properties: the DIFANE independence invariant --- *)

let gen_chain_policy =
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* specs = list_repeat n (pair (int_bound 10) gen_pred_tiny2) in
  let rules =
    List.mapi
      (fun i (pr, pd) ->
        Rule.make ~id:i ~priority:pr pd (if i mod 2 = 0 then Action.Drop else Action.Forward i))
      specs
  in
  (* close the policy so every header matches *)
  let rules = Rule.make ~id:n ~priority:(-1) (Pred.any s2) (Action.Forward 0) :: rules in
  return (Classifier.create s2 rules)

let prop_piece_semantics =
  qt "every header of a spliced piece gets the origin action"
    QCheck2.Gen.(pair gen_chain_policy gen_header_tiny2)
    (fun (c, hdr) ->
      match piece_of c hdr with
      | None -> false (* policy is total *)
      | Some piece ->
          List.for_all
            (fun hd ->
              match Classifier.action c hd with
              | Some a -> Action.equal a piece.origin.Rule.action
              | None -> false)
            (Pred.enumerate ~limit:32 piece.pred))

let prop_piece_independent =
  qt "spliced piece overlaps no higher-priority rule"
    QCheck2.Gen.(pair gen_chain_policy gen_header_tiny2)
    (fun (c, hdr) ->
      match piece_of c hdr with
      | None -> false
      | Some piece ->
          List.for_all
            (fun (r : Rule.t) ->
              (not (Rule.beats r piece.origin)) || not (Pred.overlaps r.pred piece.pred))
            (Classifier.rules c))

let prop_pieces_cover_effective_region =
  qt ~count:100 "pieces of a rule = its effective region"
    QCheck2.Gen.(triple gen_chain_policy (int_bound 5) gen_header_tiny2)
    (fun (c, idx, hdr) ->
      match List.nth_opt (Classifier.rules c) (idx mod Classifier.length c) with
      | None -> true
      | Some r ->
          let pieces = Splice.pieces_of_rule c r in
          let in_pieces = List.exists (fun p -> Pred.matches p hdr) pieces in
          in_pieces = Region.matches (Classifier.effective_region c r) hdr)

let suite =
  [
    ( "splice",
      [
        tc "piece contains the header" test_piece_contains_header;
        tc "piece is independent" test_piece_is_independent;
        tc "cache rule materialisation" test_cache_rule;
        tc "no match -> no piece" test_no_match;
        tc "all pieces of a rule" test_pieces_of_rule;
        tc "dependent-set cost" test_dependent_set_cost;
        tc "plan cover set and swap" test_plan_cover;
        prop_piece_semantics;
        prop_piece_independent;
        prop_pieces_cover_effective_region;
      ] );
  ]
