open Test_util

let t = Ternary.of_string

let test_roundtrip () =
  List.iter
    (fun s -> check Alcotest.string "roundtrip" s Ternary.(to_string (of_string s)))
    [ "0"; "1"; "x"; "01xx"; "xxxxxxxx"; "10101010"; "x0x1x0x1" ]

let test_separators () =
  check ternary "underscores ignored" (t "10101010") (t "1010_1010")

let test_of_string_bad () =
  Alcotest.check_raises "bad char" (Invalid_argument "Ternary.of_string: bad character '2'")
    (fun () -> ignore (t "012"));
  (try
     ignore (t (String.make 70 'x'));
     Alcotest.fail "width 70 accepted"
   with Invalid_argument _ -> ())

let test_constructors () =
  check ternary "any" (t "xxxx") (Ternary.any 4);
  check ternary "exact" (t "0101") (Ternary.exact ~width:4 5L);
  check ternary "prefix 2" (t "01xx") (Ternary.prefix ~width:4 4L 2);
  check ternary "prefix 0" (t "xxxx") (Ternary.prefix ~width:4 9L 0);
  check ternary "prefix full" (t "1001") (Ternary.prefix ~width:4 9L 4);
  (* value bits below the prefix are masked away *)
  check ternary "prefix masks low bits" (Ternary.prefix ~width:4 4L 2) (Ternary.prefix ~width:4 7L 2)

let test_bit () =
  let v = t "01x0" in
  check Alcotest.bool "bit0 zero" true (Ternary.bit v 0 = `Zero);
  check Alcotest.bool "bit1 any" true (Ternary.bit v 1 = `Any);
  check Alcotest.bool "bit2 one" true (Ternary.bit v 2 = `One);
  check Alcotest.bool "bit3 zero" true (Ternary.bit v 3 = `Zero)

let test_matches () =
  let v = t "1x0x" in
  let yes = [ 0b1000; 0b1001; 0b1100; 0b1101 ] and no = [ 0b0000; 0b1010; 0b1111 ] in
  List.iter (fun x -> check Alcotest.bool "yes" true (Ternary.matches v (Int64.of_int x))) yes;
  List.iter (fun x -> check Alcotest.bool "no" false (Ternary.matches v (Int64.of_int x))) no

let test_size () =
  check (Alcotest.float 0.0) "size" 4.0 (Ternary.size (t "1x0x"));
  check (Alcotest.float 0.0) "size exact" 1.0 (Ternary.size (t "1101"));
  check (Alcotest.float 0.0) "size any" 16.0 (Ternary.size (t "xxxx"))

let test_inter () =
  check (Alcotest.option ternary) "compatible" (Some (t "110x")) (Ternary.inter (t "1x0x") (t "x10x"));
  check (Alcotest.option ternary) "disjoint" None (Ternary.inter (t "1xxx") (t "0xxx"));
  check (Alcotest.option ternary) "inter any" (Some (t "10x1")) (Ternary.inter (t "xxxx") (t "10x1"))

let test_subsumes () =
  check Alcotest.bool "any subsumes all" true (Ternary.subsumes (t "xxxx") (t "01x1"));
  check Alcotest.bool "not subsumed" false (Ternary.subsumes (t "01x1") (t "xxxx"));
  check Alcotest.bool "self" true (Ternary.subsumes (t "01x1") (t "01x1"));
  check Alcotest.bool "overlap not subsume" false (Ternary.subsumes (t "1xx0") (t "x110"))

let test_subtract_basic () =
  (* xxxx - 1xxx = 0xxx *)
  check (Alcotest.list ternary) "half" [ t "0xxx" ] (Ternary.subtract (t "xxxx") (t "1xxx"));
  (* disjoint -> unchanged *)
  check (Alcotest.list ternary) "disjoint" [ t "0xxx" ] (Ternary.subtract (t "0xxx") (t "1xxx"));
  (* subsumed -> empty *)
  check (Alcotest.list ternary) "subsumed" [] (Ternary.subtract (t "10xx") (t "1xxx"));
  check (Alcotest.list ternary) "self" [] (Ternary.subtract (t "10x1") (t "10x1"))

let test_split () =
  match Ternary.split (t "1xx0") 1 with
  | None -> Alcotest.fail "split failed"
  | Some (lo, hi) ->
      check ternary "lo" (t "1x00") lo;
      check ternary "hi" (t "1x10") hi;
      check (Alcotest.option (Alcotest.pair ternary ternary)) "specified bit" None
        (Ternary.split (t "1xx0") 0)

let test_first_wildcard () =
  check (Alcotest.option Alcotest.int) "msb wildcard" (Some 2) (Ternary.first_wildcard_msb (t "1xx0"));
  check (Alcotest.option Alcotest.int) "none" None (Ternary.first_wildcard_msb (t "1010"))

let test_enumerate () =
  let vs = Ternary.enumerate (t "1x0x") |> List.sort Int64.compare in
  check (Alcotest.list Alcotest.int64) "enumerate" [ 8L; 9L; 12L; 13L ] vs;
  check Alcotest.int "limit" 4 (List.length (Ternary.enumerate ~limit:4 (t "xxxxxxxx")))

let test_random_point () =
  let v = t "1x0x1xx0" in
  for _ = 1 to 50 do
    let p = Ternary.random_point rand_bits v in
    if not (Ternary.matches v p) then Alcotest.fail "random point escapes ternary"
  done

(* --- properties --- *)

let prop_inter_sound =
  qt "inter = set intersection (sampled)"
    QCheck2.Gen.(triple (gen_ternary ()) (gen_ternary ()) (gen_point 8))
    (fun (a, b, p) ->
      let lhs =
        match Ternary.inter a b with None -> false | Some i -> Ternary.matches i p
      in
      lhs = (Ternary.matches a p && Ternary.matches b p))

let prop_subtract_exact =
  qt "subtract = set difference (sampled)"
    QCheck2.Gen.(triple (gen_ternary ()) (gen_ternary ()) (gen_point 8))
    (fun (a, b, p) ->
      let pieces = Ternary.subtract a b in
      let in_pieces = List.exists (fun q -> Ternary.matches q p) pieces in
      in_pieces = (Ternary.matches a p && not (Ternary.matches b p)))

let prop_subtract_disjoint =
  qt "subtract pieces pairwise disjoint"
    QCheck2.Gen.(pair (gen_ternary ()) (gen_ternary ()))
    (fun (a, b) ->
      let pieces = Ternary.subtract a b in
      let rec ok = function
        | [] -> true
        | p :: rest -> List.for_all (fun q -> not (Ternary.overlaps p q)) rest && ok rest
      in
      ok pieces)

let prop_subsumes_iff_subtract_empty =
  qt "subsumes b a <-> a - b = []"
    QCheck2.Gen.(pair (gen_ternary ()) (gen_ternary ()))
    (fun (a, b) -> Ternary.subsumes b a = (Ternary.subtract a b = []))

let prop_split_partitions =
  qt "split halves partition the parent"
    QCheck2.Gen.(pair (gen_ternary ()) (gen_point 8))
    (fun (a, p) ->
      match Ternary.first_wildcard_msb a with
      | None -> true
      | Some j -> (
          match Ternary.split a j with
          | None -> false
          | Some (lo, hi) ->
              (not (Ternary.overlaps lo hi))
              && Ternary.matches a p = (Ternary.matches lo p || Ternary.matches hi p)))

let prop_size_counts =
  qt "size = number of enumerated points" (gen_ternary ())
    (fun a -> int_of_float (Ternary.size a) = List.length (Ternary.enumerate ~limit:4096 a))

(* A value inside [a], and an operand [b] that contains a value of [a]
   (so overlaps it) or not, as the coin says: random pairs of 8-bit
   ternaries overlap only about one time in eight. *)
let gen_point_in a =
  QCheck2.Gen.map
    (fun r -> Int64.logor (Ternary.value a) (Int64.logand (Int64.of_int r) (Int64.lognot (Ternary.mask a))))
    (QCheck2.Gen.int_bound 255)

let gen_clip_case =
  let open QCheck2.Gen in
  let* a = gen_ternary () in
  let* v = gen_point_in a in
  let* inside = gen_point_in a in
  let* mask = gen_point 8 in
  let* near = bool in
  let* far = gen_point 8 in
  let b = Ternary.make ~width:8 ~value:(if near then inside else far) ~mask in
  return (a, b, v)

let prop_overlaps_is_inter =
  qt "overlaps = inter <> None"
    QCheck2.Gen.(oneof [ pair (gen_ternary ()) (gen_ternary ()); map (fun (a, b, _) -> (a, b)) gen_clip_case ])
    (fun (a, b) -> Ternary.overlaps a b = Option.is_some (Ternary.inter a b))

let prop_piece_holding =
  qt "piece_holding = the subtract piece holding the value" gen_clip_case (fun (a, b, v) ->
      if Ternary.matches b v then
        match Ternary.piece_holding a b v with
        | _ -> false
        | exception Invalid_argument _ -> true
      else
        Ternary.equal (Ternary.piece_holding a b v)
          (List.find (fun q -> Ternary.matches q v) (Ternary.subtract a b)))

let test_overlaps_width_mismatch () =
  match Ternary.overlaps (Ternary.any 8) (Ternary.any 4) with
  | _ -> Alcotest.fail "width mismatch accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ( "ternary",
      [
        tc "roundtrip" test_roundtrip;
        tc "separators" test_separators;
        tc "of_string rejects garbage" test_of_string_bad;
        tc "constructors" test_constructors;
        tc "bit access" test_bit;
        tc "matches" test_matches;
        tc "size" test_size;
        tc "inter" test_inter;
        tc "subsumes" test_subsumes;
        tc "subtract basics" test_subtract_basic;
        tc "split" test_split;
        tc "first wildcard" test_first_wildcard;
        tc "enumerate" test_enumerate;
        tc "random point stays inside" test_random_point;
        prop_inter_sound;
        prop_subtract_exact;
        prop_subtract_disjoint;
        prop_subsumes_iff_subtract_empty;
        prop_split_partitions;
        prop_size_counts;
        tc "overlaps rejects a width mismatch" test_overlaps_width_mismatch;
        prop_overlaps_is_inter;
        prop_piece_holding;
      ] );
  ]
