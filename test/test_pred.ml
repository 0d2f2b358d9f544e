open Test_util

let s2 = Schema.tiny2
let p fields = Pred.of_strings s2 fields
let h a b = Header.make s2 [| Int64.of_int a; Int64.of_int b |]

let test_any () =
  let a = Pred.any s2 in
  check Alcotest.bool "matches everything" true (Pred.matches a (h 3 200));
  check Alcotest.bool "is_any" true (Pred.is_any a);
  check Alcotest.int "size_log2" 16 (Pred.size_log2 a)

let test_of_fields_default_wild () =
  let q = p [ ("f1", "00000001") ] in
  check Alcotest.bool "f2 wild" true (Pred.matches q (h 1 255));
  check Alcotest.bool "f1 constrained" false (Pred.matches q (h 2 255))

let test_named_errors () =
  (try
     ignore (Pred.of_strings s2 [ ("nope", "xxxxxxxx") ]);
     Alcotest.fail "unknown field accepted"
   with Not_found -> ());
  try
    ignore (Pred.of_strings s2 [ ("f1", "xxx") ]);
    Alcotest.fail "width mismatch accepted"
  with Invalid_argument _ -> ()

let test_inter_subsumes () =
  let a = p [ ("f1", "1xxxxxxx") ] and b = p [ ("f2", "0xxxxxxx") ] in
  (match Pred.inter a b with
  | None -> Alcotest.fail "orthogonal fields must intersect"
  | Some i ->
      check Alcotest.bool "point in" true (Pred.matches i (h 128 0));
      check Alcotest.bool "point out" false (Pred.matches i (h 0 0)));
  check Alcotest.bool "any subsumes" true (Pred.subsumes (Pred.any s2) a);
  check Alcotest.bool "a not subsume any" false (Pred.subsumes a (Pred.any s2));
  check (Alcotest.option pred) "disjoint fields" None
    (Pred.inter (p [ ("f1", "1xxxxxxx") ]) (p [ ("f1", "0xxxxxxx") ]))

let test_subtract_tuple () =
  (* full - {f1=1xxxxxxx, f2=1xxxxxxx} leaves the L-shape. *)
  let a = Pred.any s2 and b = p [ ("f1", "1xxxxxxx"); ("f2", "1xxxxxxx") ] in
  let pieces = Pred.subtract a b in
  check Alcotest.int "two pieces" 2 (List.length pieces);
  let covered pt = List.exists (fun q -> Pred.matches q pt) pieces in
  check Alcotest.bool "corner removed" false (covered (h 255 255));
  check Alcotest.bool "left kept" true (covered (h 0 255));
  check Alcotest.bool "bottom kept" true (covered (h 255 0));
  check Alcotest.bool "origin kept" true (covered (h 0 0))

let test_split () =
  let a = Pred.any s2 in
  match Pred.split a 0 7 with
  | None -> Alcotest.fail "split failed"
  | Some (lo, hi) ->
      check Alcotest.bool "lo side" true (Pred.matches lo (h 0 9));
      check Alcotest.bool "hi side" true (Pred.matches hi (h 200 9));
      check Alcotest.bool "disjoint" false (Pred.overlaps lo hi)

let test_enumerate () =
  let q = p [ ("f1", "000000x1"); ("f2", "0000000x") ] in
  let hs = Pred.enumerate q in
  check Alcotest.int "4 points" 4 (List.length hs);
  List.iter (fun x -> check Alcotest.bool "inside" true (Pred.matches q x)) hs

(* --- properties --- *)

let prop_inter_sound =
  qt "pred inter = set intersection"
    QCheck2.Gen.(triple gen_pred_tiny2 gen_pred_tiny2 gen_header_tiny2)
    (fun (a, b, pt) ->
      let lhs = match Pred.inter a b with None -> false | Some i -> Pred.matches i pt in
      lhs = (Pred.matches a pt && Pred.matches b pt))

let prop_subtract_exact =
  qt "pred subtract = set difference"
    QCheck2.Gen.(triple gen_pred_tiny2 gen_pred_tiny2 gen_header_tiny2)
    (fun (a, b, pt) ->
      let pieces = Pred.subtract a b in
      List.exists (fun q -> Pred.matches q pt) pieces
      = (Pred.matches a pt && not (Pred.matches b pt)))

let prop_subtract_disjoint =
  qt "pred subtract pieces disjoint"
    QCheck2.Gen.(pair gen_pred_tiny2 gen_pred_tiny2)
    (fun (a, b) ->
      let pieces = Pred.subtract a b in
      let rec ok = function
        | [] -> true
        | x :: rest -> List.for_all (fun y -> not (Pred.overlaps x y)) rest && ok rest
      in
      ok pieces)

let prop_subtract_all_exact =
  qt "subtract_all = difference of union"
    QCheck2.Gen.(triple gen_pred_tiny2 (list_size (int_bound 4) gen_pred_tiny2) gen_header_tiny2)
    (fun (a, bs, pt) ->
      let pieces = Pred.subtract_all a bs in
      List.exists (fun q -> Pred.matches q pt) pieces
      = (Pred.matches a pt && not (List.exists (fun b -> Pred.matches b pt) bs)))

let prop_diff_nonempty_agrees =
  qt "diff_nonempty <-> subtract_all nonempty"
    QCheck2.Gen.(pair gen_pred_tiny2 (list_size (int_bound 5) gen_pred_tiny2))
    (fun (a, bs) -> Pred.diff_nonempty a bs = (Pred.subtract_all a bs <> []))

let prop_clip_to_holder =
  qt "clip_to_holder keeps the header, avoids the blocker"
    QCheck2.Gen.(triple gen_pred_tiny2 gen_pred_tiny2 gen_header_tiny2)
    (fun (a, b, h) ->
      if not (Pred.matches a h) || Pred.matches b h then true
      else
        let piece = Pred.clip_to_holder a h b in
        Pred.matches piece h && (not (Pred.overlaps piece b)) && Pred.subsumes a piece)

let prop_subsumes_definition =
  qt "subsumes agrees with sampled membership"
    QCheck2.Gen.(triple gen_pred_tiny2 gen_pred_tiny2 gen_header_tiny2)
    (fun (a, b, pt) ->
      (not (Pred.subsumes a b)) || (not (Pred.matches b pt)) || Pred.matches a pt)

(* [a], a header inside it, and a [b] that, field by field, holds a
   value of [a] or a random one: operands that overlap often, which
   random tiny2 pairs rarely do. *)
let gen_clip_case =
  let open QCheck2.Gen in
  let field_case a =
    let inside =
      map
        (fun r ->
          Int64.logor (Ternary.value a) (Int64.logand (Int64.of_int r) (Int64.lognot (Ternary.mask a))))
        (int_bound 255)
    in
    let* v = inside in
    let* w = inside in
    let* mask = gen_point 8 in
    let* near = frequency [ (4, return true); (1, return false) ] in
    let* far = gen_point 8 in
    return (v, Ternary.make ~width:8 ~value:(if near then w else far) ~mask)
  in
  let* a = gen_pred_tiny2 in
  let* f1 = field_case (Pred.field a 0) in
  let* f2 = field_case (Pred.field a 1) in
  return
    ( a,
      Pred.make Schema.tiny2 [ snd f1; snd f2 ],
      Header.make Schema.tiny2 [| fst f1; fst f2 |] )

let prop_overlaps_is_inter =
  qt "pred overlaps = inter <> None"
    QCheck2.Gen.(oneof [ pair gen_pred_tiny2 gen_pred_tiny2; map (fun (a, b, _) -> (a, b)) gen_clip_case ])
    (fun (a, b) -> Pred.overlaps a b = Option.is_some (Pred.inter a b))

let prop_clip_is_subtract_piece =
  qt "clip_to_holder = the subtract piece holding the header" gen_clip_case (fun (a, b, h) ->
      Pred.matches b h
      || Pred.equal (Pred.clip_to_holder a h b)
           (List.find (fun q -> Pred.matches q h) (Pred.subtract a b)))

let test_clip_preconditions () =
  let a = p [ ("f1", "0000xxxx") ] and b = p [ ("f1", "00000xxx") ] in
  let raises h b =
    match Pred.clip_to_holder a h b with _ -> false | exception Invalid_argument _ -> true
  in
  let h1 v = Header.make Schema.tiny2 [| Int64.of_int v; 0L |] in
  check Alcotest.bool "header outside a" true (raises (h1 200) b);
  check Alcotest.bool "header inside b" true (raises (h1 3) b);
  check Alcotest.bool "disjoint blocker leaves a whole" true
    (Pred.equal a (Pred.clip_to_holder a (h1 3) (p [ ("f1", "1xxxxxxx") ])))

(* A disjoint pair is told apart by the overlap test alone: [inter]
   builds no field array for it.  These two differ only in their last
   field, so the test walks every field first. *)
let test_inter_disjoint_allocates_nothing () =
  let s5 = Schema.acl_5tuple in
  let a = Pred.of_fields s5 [ ("src_ip", Ternary.of_ipv4 "10.0.0.0/8"); ("proto", Ternary.exact ~width:8 6L) ]
  and b = Pred.of_fields s5 [ ("src_ip", Ternary.of_ipv4 "10.1.0.0/16"); ("proto", Ternary.exact ~width:8 17L) ] in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    match Pred.inter a b with None -> () | Some _ -> Alcotest.fail "disjoint pair intersects"
  done;
  check (Alcotest.float 0.) "minor words" 0. (Gc.minor_words () -. before);
  (* an overlapping pair still intersects *)
  check Alcotest.bool "overlapping pair" true
    (Option.is_some (Pred.inter a (Pred.of_fields s5 [ ("dst_port", Ternary.exact ~width:16 80L) ])));
  (* a width mismatch raises whichever operand is the wider *)
  let t = p [ ("f1", "1xxxxxxx") ] in
  List.iter
    (fun (x, y) ->
      match Pred.inter x y with
      | _ -> Alcotest.fail "width mismatch accepted"
      | exception Invalid_argument _ -> ())
    [ (t, a); (a, t) ]

(* A nested pair — every field of [inner] inside [outer]'s — shares
   its operands' ternary values: the intersection allocates its record, its
   field array and the [Some], not a value per field. *)
let test_inter_nested_allocates_result_only () =
  let s5 = Schema.acl_5tuple in
  let outer = Pred.of_fields s5 [ ("src_ip", Ternary.of_ipv4 "10.0.0.0/8") ]
  and inner =
    Pred.of_fields s5
      [ ("src_ip", Ternary.of_ipv4 "10.1.0.0/16"); ("dst_port", Ternary.exact ~width:16 80L) ]
  in
  List.iter
    (fun (a, b) ->
      match Pred.inter a b with
      | None -> Alcotest.fail "nested pair is disjoint"
      | Some i ->
          check Alcotest.bool "equals the inner operand" true (Pred.equal i inner);
          for f = 0 to Pred.arity i - 1 do
            check Alcotest.bool "shares an operand's field" true
              (Pred.field i f == Pred.field a f || Pred.field i f == Pred.field b f)
          done)
    [ (outer, inner); (inner, outer) ];
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Pred.inter outer inner))
  done;
  (* Some (2) + record (3) + a five-field array (6) = 11 words *)
  let words = (Gc.minor_words () -. before) /. 1000. in
  if words > 11. then Alcotest.failf "nested inter: %.1f minor words per call, bound 11" words

(* Random schemas of at most 126 bits, so every field lands in the low
   lane, the high lane or across bit 63, plus the 5-tuple, whose
   [dst_ip] spills its top bit into the high lane. *)
let gen_lane_schema =
  let open QCheck2.Gen in
  let random =
    let* widths = list_size (int_range 1 8) (int_range 1 Ternary.max_width) in
    let rec fit total i = function
      | [] -> []
      | w :: rest ->
          if total + w > 126 then []
          else { Schema.name = Printf.sprintf "f%d" i; bits = w } :: fit (total + w) (i + 1) rest
    in
    return
      (match fit 0 0 widths with
      | [] -> Schema.create [ { Schema.name = "f0"; bits = 62 } ]
      | fields -> Schema.create fields)
  in
  frequency [ (3, random); (1, return Schema.acl_5tuple) ]

let gen_lane_pred schema =
  let open QCheck2.Gen in
  let field i =
    let width = Schema.field_bits schema i in
    let* value = int64 in
    let* mask = oneof [ int64; return 0L; return Int64.minus_one ] in
    return (Ternary.make ~width ~value ~mask)
  in
  let* fields = flatten_l (List.init (Schema.arity schema) field) in
  return (Pred.make schema fields)

(* A predicate and a header; half the headers are drawn inside it. *)
let lane_case =
  QCheck2.Gen.(
    let* schema = gen_lane_schema in
    let* p = gen_lane_pred schema in
    let* inside = bool in
    let* noise = flatten_l (List.init (Schema.arity schema) (fun _ -> int64)) in
    let values =
      List.mapi
        (fun i n ->
          let f = Pred.field p i in
          if inside then Int64.logor (Ternary.value f) (Int64.logand n (Int64.lognot (Ternary.mask f)))
          else n)
        noise
    in
    return (p, Header.make schema (Array.of_list values)))

let prop_lanes_equal_oracle =
  qt ~count:500 "lanes = closure packer, and match the header key" lane_case (fun (p, h) ->
      let ((mlo, vlo, mhi, vhi) as lanes) = Pred.lanes p in
      let schema = Pred.schema p in
      lanes = Lanes_scan.pred_lanes p
      && (Header.key_lo h, Header.key_hi h) = Lanes_scan.pack schema (Header.field h)
      && Pred.matches p h = (Header.key_lo h land mlo = vlo && Header.key_hi h land mhi = vhi))

let test_lanes_allocate_result_only () =
  let p =
    Pred.of_fields Schema.acl_5tuple
      [ ("src_ip", Ternary.of_ipv4 "10.0.0.0/8"); ("dst_ip", Ternary.of_ipv4 "192.168.1.0/24");
        ("proto", Ternary.exact ~width:8 6L) ]
  in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Pred.lanes p))
  done;
  (* the four-int result tuple: 5 words *)
  let words = (Gc.minor_words () -. before) /. 1000. in
  if words > 5. then Alcotest.failf "Pred.lanes: %.1f minor words per call, bound 5" words;
  match Pred.lanes (Pred.any Schema.openflow_basic) with
  | _ -> Alcotest.fail "a 136-bit schema packed"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ( "pred",
      [
        tc "any" test_any;
        tc "named fields default to wildcard" test_of_fields_default_wild;
        tc "named construction errors" test_named_errors;
        tc "inter / subsumes" test_inter_subsumes;
        tc "disjoint inter allocates nothing" test_inter_disjoint_allocates_nothing;
        tc "nested inter allocates only its result" test_inter_nested_allocates_result_only;
        prop_lanes_equal_oracle;
        tc "lanes allocate only their result" test_lanes_allocate_result_only;
        tc "tuple subtraction" test_subtract_tuple;
        tc "split" test_split;
        tc "enumerate" test_enumerate;
        prop_inter_sound;
        prop_subtract_exact;
        prop_subtract_disjoint;
        prop_subtract_all_exact;
        prop_diff_nonempty_agrees;
        prop_clip_to_holder;
        prop_subsumes_definition;
        tc "clip_to_holder preconditions" test_clip_preconditions;
        prop_overlaps_is_inter;
        prop_clip_is_subtract_piece;
      ] );
  ]
