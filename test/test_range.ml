open Test_util

let test_single_value () =
  check (Alcotest.list ternary) "point range" [ Ternary.exact ~width:8 7L ]
    (Range.to_prefixes ~width:8 7L 7L)

let test_full_range () =
  check (Alcotest.list ternary) "full" [ Ternary.any 8 ] (Range.to_prefixes ~width:8 0L 255L)

let test_classic_expansion () =
  (* [1..6] over 3 bits: 001, 01x, 10x, 110 *)
  let ps = Range.to_prefixes ~width:3 1L 6L in
  check (Alcotest.list ternary) "1..6"
    [ Ternary.of_string "001"; Ternary.of_string "01x"; Ternary.of_string "10x"; Ternary.of_string "110" ]
    ps

let test_worst_case () =
  (* [1 .. 2^w - 2] is the classic worst case: 2w - 2 prefixes. *)
  check Alcotest.int "worst case w=16" 30 (List.length (Range.to_prefixes ~width:16 1L 65534L));
  (* The thesis/paper motivating example: [1..32766] on 16 bits. *)
  let n = List.length (Range.to_prefixes ~width:16 1L 32766L) in
  check Alcotest.int "1..32766" 28 n

let test_errors () =
  (try
     ignore (Range.to_prefixes ~width:8 5L 4L);
     Alcotest.fail "lo>hi accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Range.to_prefixes ~width:8 0L 256L);
    Alcotest.fail "hi too big accepted"
  with Invalid_argument _ -> ()

let test_of_ternary () =
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.int64)) "prefix"
    (Some (8L, 11L))
    (Range.of_ternary (Ternary.of_string "10xx"));
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.int64)) "exact"
    (Some (9L, 9L))
    (Range.of_ternary (Ternary.of_string "1001"));
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.int64)) "not a prefix" None
    (Range.of_ternary (Ternary.of_string "1x0x"))

(* --- properties --- *)

let gen_bounds =
  let open QCheck2.Gen in
  let* a = int_bound 255 in
  let* b = int_bound 255 in
  return (Int64.of_int (min a b), Int64.of_int (max a b))

let prop_cover_exact =
  qt "prefixes cover exactly the range"
    QCheck2.Gen.(pair gen_bounds (gen_point 8))
    (fun ((lo, hi), v) ->
      let ps = Range.to_prefixes ~width:8 lo hi in
      List.exists (fun p -> Ternary.matches p v) ps
      = (Int64.compare lo v <= 0 && Int64.compare v hi <= 0))

let prop_disjoint =
  qt "prefixes pairwise disjoint" gen_bounds (fun (lo, hi) ->
      let ps = Range.to_prefixes ~width:8 lo hi in
      let rec ok = function
        | [] -> true
        | p :: rest -> List.for_all (fun q -> not (Ternary.overlaps p q)) rest && ok rest
      in
      ok ps)

let prop_bound =
  qt "at most 2w-2 prefixes" gen_bounds (fun (lo, hi) ->
      List.length (Range.to_prefixes ~width:8 lo hi) <= (2 * 8) - 2)

let suite =
  [
    ( "range",
      [
        tc "single value" test_single_value;
        tc "full range" test_full_range;
        tc "classic 1..6/3bit expansion" test_classic_expansion;
        tc "worst-case expansion counts" test_worst_case;
        tc "bound errors" test_errors;
        tc "of_ternary" test_of_ternary;
        prop_cover_exact;
        prop_disjoint;
        prop_bound;
      ] );
  ]
