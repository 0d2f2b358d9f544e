(* Shared helpers for the test suites. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let qt ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Deterministic PRNG for sampling-based checks. *)
let rng = ref 0x9E3779B97F4A7C15L

let rand_bits n =
  (* splitmix64 step, truncated *)
  rng := Int64.add !rng 0x9E3779B97F4A7C15L;
  let z = !rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z (Int64.sub (Int64.shift_left 1L n) 1L))

(* QCheck generators for ternary values and predicates. *)

let gen_ternary ?(width = 8) () =
  let open QCheck2.Gen in
  list_repeat width (oneofl [ '0'; '1'; 'x' ]) >|= fun cs ->
  Ternary.of_string (String.init width (List.nth cs))

let gen_point width =
  let open QCheck2.Gen in
  map Int64.of_int (int_bound ((1 lsl width) - 1))

let gen_pred_tiny2 =
  let open QCheck2.Gen in
  let* a = gen_ternary ~width:8 () in
  let* b = gen_ternary ~width:8 () in
  return (Pred.make Schema.tiny2 [ a; b ])

let gen_header_tiny2 =
  let open QCheck2.Gen in
  let* a = gen_point 8 in
  let* b = gen_point 8 in
  return (Header.make Schema.tiny2 [| a; b |])

(* Alcotest testables *)
let ternary = Alcotest.testable Ternary.pp Ternary.equal
let pred = Alcotest.testable Pred.pp Pred.equal
let header = Alcotest.testable Header.pp Header.equal
let action = Alcotest.testable Action.pp Action.equal

(* Partitions equal pid, region and table rule for rule. *)
let same_partition (a : Partitioner.partition) (b : Partitioner.partition) =
  a.pid = b.pid && Pred.equal a.region b.region
  && List.equal Rule.equal (Classifier.rules a.table) (Classifier.rules b.table)
