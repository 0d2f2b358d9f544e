open Test_util

let s2 = Schema.tiny2
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let rule ?(priority = 1) id fields action =
  Rule.make ~id ~priority (Pred.of_strings s2 fields) action

let test_insert_lookup () =
  let t = Tcam.create ~capacity:4 in
  check Alcotest.bool "insert" true (Tcam.insert t ~now:0. (rule 1 [ ("f1", "0000_0001") ] (Action.Forward 1)) = `Ok);
  check Alcotest.int "occupancy" 1 (Tcam.occupancy t);
  check (Alcotest.option Alcotest.int) "hit" (Some 1)
    (Option.map (fun r -> r.Rule.id) (Tcam.lookup t ~now:1. (h 1 0)));
  check (Alcotest.option Alcotest.int) "miss" None
    (Option.map (fun r -> r.Rule.id) (Tcam.lookup t ~now:1. (h 2 0)))

let test_priority_order () =
  let t = Tcam.create ~capacity:4 in
  ignore (Tcam.insert t ~now:0. (rule ~priority:1 1 [] (Action.Forward 1)));
  ignore (Tcam.insert t ~now:0. (rule ~priority:9 2 [ ("f1", "0000_0001") ] Action.Drop));
  check (Alcotest.option Alcotest.int) "high priority first" (Some 2)
    (Option.map (fun r -> r.Rule.id) (Tcam.lookup t ~now:1. (h 1 0)))

let test_capacity () =
  let t = Tcam.create ~capacity:2 in
  ignore (Tcam.insert t ~now:0. (rule 1 [ ("f1", "0000_0001") ] Action.Drop));
  ignore (Tcam.insert t ~now:0. (rule 2 [ ("f1", "0000_0010") ] Action.Drop));
  check Alcotest.bool "full" true (Tcam.is_full t);
  check Alcotest.bool "reject" true
    (Tcam.insert t ~now:0. (rule 3 [ ("f1", "0000_0011") ] Action.Drop) = `Full);
  (* replace existing id does not need space *)
  check Alcotest.bool "replace ok" true
    (match Tcam.insert t ~now:1. (rule 2 [ ("f1", "0000_0100") ] Action.Drop) with
    | `Replaced e -> e.Tcam.rule.Rule.id = 2
    | `Ok | `Full -> false);
  check Alcotest.int "still 2" 2 (Tcam.occupancy t)

let test_zero_capacity () =
  let t = Tcam.create ~capacity:0 in
  let r = rule 1 [] Action.Drop in
  check Alcotest.bool "always full" true (Tcam.insert t ~now:0. r = `Full);
  check (Alcotest.list Alcotest.int) "insert_or_evict bounces" [ 1 ]
    (List.map (fun (x : Rule.t) -> x.id) (Tcam.insert_or_evict t ~now:0. r))

let test_lru_eviction () =
  let t = Tcam.create ~capacity:2 in
  ignore (Tcam.insert t ~now:0. (rule 1 [ ("f1", "0000_0001") ] Action.Drop));
  ignore (Tcam.insert t ~now:1. (rule 2 [ ("f1", "0000_0010") ] Action.Drop));
  (* touch rule 1 so rule 2 is LRU *)
  ignore (Tcam.lookup t ~now:5. (h 1 0));
  let evicted = Tcam.insert_or_evict t ~now:6. (rule 3 [ ("f1", "0000_0011") ] Action.Drop) in
  check (Alcotest.list Alcotest.int) "evicts LRU" [ 2 ]
    (List.map (fun (x : Rule.t) -> x.id) evicted);
  check Alcotest.bool "rule1 kept" true (Tcam.mem t 1);
  check Alcotest.bool "rule3 inserted" true (Tcam.mem t 3)

let test_idle_timeout () =
  let t = Tcam.create ~capacity:4 in
  ignore (Tcam.insert ~idle_timeout:5. t ~now:0. (rule 1 [ ("f1", "0000_0001") ] Action.Drop));
  check (Alcotest.list Alcotest.int) "not yet" []
    (List.map (fun (x : Rule.t) -> x.id) (Tcam.expire t ~now:4.9));
  ignore (Tcam.lookup t ~now:4. (h 1 0));
  (* hit at t=4 resets idle clock *)
  check (Alcotest.list Alcotest.int) "hit postpones" []
    (List.map (fun (x : Rule.t) -> x.id) (Tcam.expire t ~now:8.9));
  check (Alcotest.list Alcotest.int) "expires" [ 1 ]
    (List.map (fun (x : Rule.t) -> x.id) (Tcam.expire t ~now:9.1));
  check Alcotest.int "gone" 0 (Tcam.occupancy t)

let test_hard_timeout () =
  let t = Tcam.create ~capacity:4 in
  ignore (Tcam.insert ~hard_timeout:5. t ~now:0. (rule 1 [ ("f1", "0000_0001") ] Action.Drop));
  ignore (Tcam.lookup t ~now:4.9 (h 1 0));
  (* hits do not postpone hard timeouts *)
  check (Alcotest.list Alcotest.int) "hard expiry" [ 1 ]
    (List.map (fun (x : Rule.t) -> x.id) (Tcam.expire t ~now:5.0))

let test_counters () =
  let t = Tcam.create ~capacity:4 in
  ignore (Tcam.insert t ~now:0. (rule 1 [ ("f1", "0000_0001") ] Action.Drop));
  ignore (Tcam.lookup t ~now:1. (h 1 0));
  ignore (Tcam.lookup t ~now:1. ~bytes:1500 (h 1 0));
  ignore (Tcam.lookup t ~now:1. (h 9 0));
  let e = Option.get (Tcam.find t 1) in
  check Alcotest.int "packets" 2 e.Tcam.packets;
  check Alcotest.int "bytes" 1564 e.Tcam.bytes;
  let s = Tcam.stats t in
  check Alcotest.int64 "hits" 2L s.Tcam.hits;
  check Alcotest.int64 "misses" 1L s.Tcam.misses;
  check (Alcotest.float 1e-9) "hit rate" (2. /. 3.) (Tcam.hit_rate t);
  (* peek must not disturb counters *)
  ignore (Tcam.peek t (h 1 0));
  check Alcotest.int64 "peek silent" 2L (Tcam.stats t).Tcam.hits

let test_remove_where () =
  let t = Tcam.create ~capacity:4 in
  ignore (Tcam.insert t ~now:0. (rule 1 [ ("f1", "0000_0001") ] Action.Drop));
  ignore (Tcam.insert t ~now:0. (rule 2 [ ("f1", "0000_0010") ] (Action.Forward 1)));
  ignore (Tcam.insert t ~now:0. (rule 3 [ ("f1", "0000_0011") ] Action.Drop));
  let n = Tcam.remove_where t (fun r -> Action.equal r.Rule.action Action.Drop) in
  check Alcotest.int "removed drops" 2 n;
  check Alcotest.int "left" 1 (Tcam.occupancy t)

(* [exists] walks the bank unsorted (LRU order); [entries], which
   test_util's [select] filters, hands the entries back in table
   order. *)
let test_select_exists () =
  let t = Tcam.create ~capacity:8 in
  List.iter
    (fun (id, priority) ->
      ignore (Tcam.insert t ~now:0. (rule ~priority id [ ("f2", "0000_0000") ] Action.Drop)))
    [ (4, 1); (2, 5); (7, 3); (1, 5); (9, 0) ];
  ignore (Tcam.lookup t ~now:1. (h 0 0));
  let ids = List.map (fun (e : Tcam.entry) -> e.Tcam.rule.Rule.id) in
  let odd (e : Tcam.entry) = e.Tcam.rule.Rule.id mod 2 = 1 in
  check (Alcotest.list Alcotest.int) "table order" [ 1; 7; 9 ] (ids (Tcam.select t odd));
  check (Alcotest.list Alcotest.int) "= filtered entries"
    (ids (List.filter odd (Tcam.entries t)))
    (ids (Tcam.select t odd));
  check Alcotest.bool "exists" true
    (Tcam.exists t (fun e -> e.Tcam.rule.Rule.priority = 3));
  check Alcotest.bool "not exists" false
    (Tcam.exists t (fun e -> e.Tcam.rule.Rule.priority = 2))

(* --- properties --- *)

let prop_never_exceeds_capacity =
  qt "insert_or_evict never exceeds capacity"
    QCheck2.Gen.(list_size (int_bound 30) (pair gen_pred_tiny2 (int_bound 100)))
    (fun ops ->
      let t = Tcam.create ~capacity:5 in
      List.iteri
        (fun i (pd, pr) ->
          ignore
            (Tcam.insert_or_evict t ~now:(float_of_int i)
               (Rule.make ~id:i ~priority:pr pd Action.Drop)))
        ops;
      Tcam.occupancy t <= 5)

let prop_lookup_agrees_with_classifier =
  qt "lookup = classifier first-match on same rules"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 8) (pair gen_pred_tiny2 (int_bound 10)))
        gen_header_tiny2)
    (fun (specs, pt) ->
      let rules =
        List.mapi (fun i (pd, pr) -> Rule.make ~id:i ~priority:pr pd Action.Drop) specs
      in
      let t = Tcam.create ~capacity:100 in
      List.iter (fun r -> ignore (Tcam.insert t ~now:0. r)) rules;
      let c = Classifier.create s2 rules in
      let a = Option.map (fun r -> r.Rule.id) (Tcam.lookup t ~now:1. pt) in
      let b = Option.map (fun r -> r.Rule.id) (Classifier.first_match c pt) in
      a = b)

let suite =
  [
    ( "tcam",
      [
        tc "insert and lookup" test_insert_lookup;
        tc "priority order" test_priority_order;
        tc "capacity limit and replace" test_capacity;
        tc "zero capacity" test_zero_capacity;
        tc "LRU eviction" test_lru_eviction;
        tc "idle timeout" test_idle_timeout;
        tc "hard timeout" test_hard_timeout;
        tc "counters and stats" test_counters;
        tc "remove_where" test_remove_where;
        tc "select and exists" test_select_exists;
        prop_never_exceeds_capacity;
        prop_lookup_agrees_with_classifier;
      ] );
  ]
