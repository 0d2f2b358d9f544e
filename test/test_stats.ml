open Test_util

let test_summary_basics () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4.; 5. ] in
  check Alcotest.int "count" 5 s.Summary.count;
  check (Alcotest.float 1e-9) "mean" 3. s.Summary.mean;
  check (Alcotest.float 1e-9) "min" 1. s.Summary.min;
  check (Alcotest.float 1e-9) "max" 5. s.Summary.max;
  check (Alcotest.float 1e-9) "p50" 3. s.Summary.p50

let test_summary_single () =
  let s = Summary.of_list [ 7. ] in
  check (Alcotest.float 1e-9) "p99 of singleton" 7. s.Summary.p99;
  check (Alcotest.float 1e-9) "stddev" 0. s.Summary.stddev

let test_summary_empty () =
  try
    ignore (Summary.of_list []);
    Alcotest.fail "empty accepted"
  with Invalid_argument _ -> ()

let test_percentile_interpolation () =
  let sorted = [| 0.; 10. |] in
  check (Alcotest.float 1e-9) "midpoint" 5. (Summary.percentile sorted 0.5);
  check (Alcotest.float 1e-9) "q0" 0. (Summary.percentile sorted 0.);
  check (Alcotest.float 1e-9) "q1" 10. (Summary.percentile sorted 1.)

let test_cdf () =
  let c = Cdf.of_list [ 1.; 2.; 2.; 4. ] in
  check (Alcotest.float 1e-9) "inverse 0" 1. (Cdf.inverse c 0.);
  check (Alcotest.float 1e-9) "inverse 0.25" 1. (Cdf.inverse c 0.25);
  check (Alcotest.float 1e-9) "inverse 0.5" 2. (Cdf.inverse c 0.5);
  check (Alcotest.float 1e-9) "inverse 0.75" 2. (Cdf.inverse c 0.75);
  check (Alcotest.float 1e-9) "inverse 1.0" 4. (Cdf.inverse c 1.0)

let prop_cdf_monotone =
  qt "cdf is monotone"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) (float_bound_inclusive 100.))
        (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (samples, (a, b)) ->
      let c = Cdf.of_list samples in
      let lo = Float.min a b and hi = Float.max a b in
      Cdf.inverse c lo <= Cdf.inverse c hi)

let prop_summary_bounds =
  qt "percentiles ordered"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.))
    (fun samples ->
      let s = Summary.of_list samples in
      s.Summary.min <= s.Summary.p50
      && s.Summary.p50 <= s.Summary.p90
      && s.Summary.p90 <= s.Summary.p95
      && s.Summary.p95 <= s.Summary.p99
      && s.Summary.p99 <= s.Summary.max)

(* [of_array]'s merge sort orders samples as [Array.sort Float.compare]
   does, so every field is bitwise the one the sorted array gives —
   duplicates, negatives and infinities included. *)
let prop_summary_sort =
  qt "summary sorts as Array.sort"
    QCheck2.Gen.(
      array_size (int_range 1 300)
        (frequency
           [ (6, float_range (-50.) 50.); (2, map float_of_int (int_range 0 5));
             (1, oneofl [ infinity; neg_infinity ]) ]))
    (fun samples ->
      let s = Summary.of_array samples in
      let sorted = Array.copy samples in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let bits = Int64.bits_of_float in
      let same a b = Int64.equal (bits a) (bits b) in
      let mean = Array.fold_left ( +. ) 0. sorted /. float_of_int n in
      same s.Summary.mean mean
      && same s.Summary.min sorted.(0)
      && same s.Summary.max sorted.(n - 1)
      && List.for_all2 same
           [ s.Summary.p50; s.Summary.p90; s.Summary.p95; s.Summary.p99 ]
           (List.map (Summary.percentile sorted) [ 0.5; 0.9; 0.95; 0.99 ]))

let test_table_render () =
  let out =
    Table.render ~header:[ "name"; "value" ] [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "3+ lines" 4 (List.length lines);
  (* all lines same width *)
  let widths = List.map String.length lines in
  check Alcotest.bool "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_formatting () =
  check Alcotest.string "pct" "87.3%" (Table.fmt_pct 0.873);
  check Alcotest.string "si M" "1.50M" (Table.fmt_si 1.5e6);
  check Alcotest.string "si k" "20.0k" (Table.fmt_si 20_000.);
  check Alcotest.string "si plain" "350" (Table.fmt_si 350.)

(* --- percentile/quantile edge cases --- *)

let test_percentile_empty () =
  try
    ignore (Summary.percentile [||] 0.5);
    Alcotest.fail "empty array accepted"
  with Invalid_argument _ -> ()

let test_percentile_single () =
  (* a single element answers every quantile *)
  List.iter
    (fun q ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "q=%g of singleton" q)
        42. (Summary.percentile [| 42. |] q))
    [ 0.; 0.25; 0.5; 0.75; 0.99; 1. ]

let test_percentile_extreme_q () =
  let sorted = [| 1.; 2.; 3. |] in
  (* q outside [0..1] clamps to the extremes rather than indexing out *)
  check (Alcotest.float 1e-9) "q=-1 clamps to min" 1. (Summary.percentile sorted (-1.));
  check (Alcotest.float 1e-9) "q=0 is min" 1. (Summary.percentile sorted 0.);
  check (Alcotest.float 1e-9) "q=1 is max" 3. (Summary.percentile sorted 1.);
  check (Alcotest.float 1e-9) "q=2 clamps to max" 3. (Summary.percentile sorted 2.)

let test_percentile_duplicates () =
  (* duplicate-heavy arrays: interpolation between equal values stays put *)
  let sorted = [| 5.; 5.; 5.; 5.; 5.; 5.; 5.; 9. |] in
  check (Alcotest.float 1e-9) "p50 in the plateau" 5. (Summary.percentile sorted 0.5);
  check (Alcotest.float 1e-9) "p75 still in plateau" 5. (Summary.percentile sorted 0.75);
  check Alcotest.bool "p99 leaves the plateau" true (Summary.percentile sorted 0.99 > 5.);
  let all_same = Array.make 100 3.14 in
  let s = Summary.of_array all_same in
  check (Alcotest.float 1e-9) "constant array: p50=p99" s.Summary.p50 s.Summary.p99;
  check (Alcotest.float 1e-9) "constant array: stddev 0" 0. s.Summary.stddev

let prop_percentile_monotone_in_q =
  qt "percentile monotone in q"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 40) (float_bound_inclusive 100.))
        (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (samples, a, b) ->
      let sorted = Array.of_list samples in
      Array.sort Float.compare sorted;
      let lo = Float.min a b and hi = Float.max a b in
      Summary.percentile sorted lo <= Summary.percentile sorted hi +. 1e-9)

let suite =
  [
    ( "stats",
      [
        tc "summary basics" test_summary_basics;
        tc "summary singleton" test_summary_single;
        tc "summary empty rejected" test_summary_empty;
        tc "percentile interpolation" test_percentile_interpolation;
        tc "percentile empty rejected" test_percentile_empty;
        tc "percentile singleton all q" test_percentile_single;
        tc "percentile q clamping" test_percentile_extreme_q;
        tc "percentile duplicate plateaus" test_percentile_duplicates;
        prop_percentile_monotone_in_q;
        tc "cdf" test_cdf;
        tc "table rendering" test_table_render;
        tc "number formatting" test_formatting;
        prop_cdf_monotone;
        prop_summary_bounds;
        prop_summary_sort;
      ] );
  ]
