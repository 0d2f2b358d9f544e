(* Schema, Header and Action: the small types everything else builds on. *)

open Test_util

(* --- schema --- *)

let test_schema_create () =
  let s = Schema.create [ { Schema.name = "a"; bits = 4 }; { Schema.name = "b"; bits = 62 } ] in
  check Alcotest.int "arity" 2 (Schema.arity s);
  check Alcotest.int "bits a" 4 (Schema.field_bits s 0);
  check Alcotest.int "bits b" 62 (Schema.field_bits s 1);
  check Alcotest.string "name" "b" (Schema.field_name s 1);
  check Alcotest.int "index" 1 (Schema.index s "b");
  check Alcotest.int "total" 66 (Schema.total_bits s)

let test_schema_errors () =
  (try
     ignore (Schema.create []);
     Alcotest.fail "empty schema accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Schema.create [ { Schema.name = "a"; bits = 0 } ]);
     Alcotest.fail "zero-width field accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Schema.create [ { Schema.name = "a"; bits = 63 } ]);
     Alcotest.fail "63-bit field accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Schema.create [ { Schema.name = "a"; bits = 4 }; { Schema.name = "a"; bits = 8 } ]);
     Alcotest.fail "duplicate names accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Schema.index Schema.tiny2 "nope");
    Alcotest.fail "unknown name accepted"
  with Not_found -> ()

let test_stock_schemas () =
  check Alcotest.int "5-tuple arity" 5 (Schema.arity Schema.acl_5tuple);
  check Alcotest.int "5-tuple bits" 104 (Schema.total_bits Schema.acl_5tuple);
  check Alcotest.int "openflow arity" 7 (Schema.arity Schema.openflow_basic);
  check Alcotest.int "ip pair" 64 (Schema.total_bits Schema.ip_pair);
  check Alcotest.bool "equal to self" true (Schema.equal Schema.tiny2 Schema.tiny2);
  check Alcotest.bool "distinct schemas differ" false
    (Schema.equal Schema.tiny2 Schema.ip_pair)

(* --- header --- *)

let test_header_truncation () =
  (* values wider than the field are truncated to its width *)
  let h = Header.make Schema.tiny2 [| 0x1FFL; 0x102L |] in
  check Alcotest.int64 "f1 truncated" 0xFFL (Header.field h 0);
  check Alcotest.int64 "f2 truncated" 0x02L (Header.field h 1)

let test_header_named () =
  let h = Header.of_fields Schema.acl_5tuple [ ("dst_port", 80L); ("proto", 6L) ] in
  check Alcotest.int64 "named" 80L (Header.get h "dst_port");
  check Alcotest.int64 "named 2" 6L (Header.get h "proto");
  check Alcotest.int64 "unnamed defaults to zero" 0L (Header.get h "src_ip");
  try
    ignore (Header.of_fields Schema.acl_5tuple [ ("bogus", 1L) ]);
    Alcotest.fail "unknown field accepted"
  with Not_found -> ()

let test_header_errors () =
  try
    ignore (Header.make Schema.tiny2 [| 1L |]);
    Alcotest.fail "arity mismatch accepted"
  with Invalid_argument _ -> ()

let test_header_compare () =
  let h1 = Header.make Schema.tiny2 [| 1L; 2L |] in
  let h2 = Header.make Schema.tiny2 [| 1L; 3L |] in
  check Alcotest.bool "equal self" true (Header.equal h1 h1);
  check Alcotest.bool "unequal" false (Header.equal h1 h2);
  check Alcotest.bool "ordering" true (Header.compare h1 h2 < 0);
  check Alcotest.bool "antisym" true (Header.compare h2 h1 > 0);
  (* values returns a copy: mutating it must not corrupt the header *)
  let vs = Header.values h1 in
  vs.(0) <- 99L;
  check Alcotest.int64 "values is a copy" 1L (Header.field h1 0)

(* --- action --- *)

let test_action_basics () =
  check Alcotest.bool "fwd equal" true (Action.equal (Action.Forward 2) (Action.Forward 2));
  check Alcotest.bool "fwd unequal" false (Action.equal (Action.Forward 2) (Action.Forward 3));
  check Alcotest.bool "kinds differ" false (Action.equal Action.Drop (Action.Forward 0));
  check Alcotest.string "pp" "fwd(3)" (Action.to_string (Action.Forward 3));
  check Alcotest.string "pp drop" "drop" (Action.to_string Action.Drop)

let test_action_classification () =
  check (Alcotest.option Alcotest.int) "egress of fwd" (Some 4) (Action.egress (Action.Forward 4));
  check (Alcotest.option Alcotest.int) "egress of count" (Some 2)
    (Action.egress (Action.Count_and_forward 2));
  check (Alcotest.option Alcotest.int) "drop has no egress" None (Action.egress Action.Drop);
  (* infrastructure actions steer a packet; they never deliver it *)
  check (Alcotest.option Alcotest.int) "tunnel has no egress" None
    (Action.egress (Action.To_authority 1));
  check (Alcotest.option Alcotest.int) "controller has no egress" None
    (Action.egress Action.Redirect_controller)

let test_action_compare_total () =
  let all =
    [ Action.Forward 1; Action.Drop; Action.Count_and_forward 2; Action.To_authority 3;
      Action.Redirect_controller ]
  in
  (* compare must be a total order consistent with equal *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Action.compare a b and c2 = Action.compare b a in
          if Action.equal a b then check Alcotest.int "equal -> 0" 0 c1
          else if c1 = 0 then Alcotest.fail "unequal actions compare 0";
          check Alcotest.int "antisymmetric" (-c1) c2)
        all)
    all

let suite =
  [
    ( "schema",
      [
        tc "create and access" test_schema_create;
        tc "validation" test_schema_errors;
        tc "stock schemas" test_stock_schemas;
      ] );
    ( "header",
      [
        tc "truncation to field width" test_header_truncation;
        tc "named construction" test_header_named;
        tc "arity validation" test_header_errors;
        tc "equality and compare" test_header_compare;
      ] );
    ( "action",
      [
        tc "equality and printing" test_action_basics;
        tc "infrastructure vs policy" test_action_classification;
        tc "total order" test_action_compare_total;
      ] );
  ]
