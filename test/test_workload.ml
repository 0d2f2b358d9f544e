open Test_util

(* --- prng --- *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.int64 a) (Prng.int64 b)
  done;
  let c = Prng.create 8 in
  check Alcotest.bool "different seed differs" true (Prng.int64 (Prng.create 7) <> Prng.int64 c)

let test_prng_bounds () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds";
    let f = Prng.float rng in
    if f < 0. || f >= 1. then Alcotest.fail "float out of bounds"
  done

let test_prng_uniformity () =
  let rng = Prng.create 3 in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Prng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = float_of_int n /. 10. in
      if Float.abs (float_of_int c -. expected) > expected *. 0.1 then
        Alcotest.fail "bucket deviates > 10%")
    buckets

let test_exponential_mean () =
  let rng = Prng.create 5 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~rate:4.
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.25) > 0.01 then
    Alcotest.failf "exponential mean %f too far from 0.25" mean

let test_sampling () =
  let rng = Prng.create 9 in
  let arr = Array.init 10 (fun i -> i) in
  Prng.shuffle rng arr;
  check (Alcotest.list Alcotest.int) "a permutation" (List.init 10 Fun.id)
    (List.sort Int.compare (Array.to_list arr));
  check Alcotest.bool "moved something" true (Array.to_list arr <> List.init 10 Fun.id);
  try
    ignore (Prng.choose rng [||]);
    Alcotest.fail "empty choice accepted"
  with Invalid_argument _ -> ()

(* --- zipf --- *)

(* Zipf's law in closed form: rank [k] has weight [1 / k^alpha]. *)
let zipf_pmf ~n ~alpha k =
  let w i = 1. /. Float.pow (float_of_int i) alpha in
  w k /. List.fold_left (fun acc i -> acc +. w i) 0. (List.init n (fun i -> i + 1))

(* Rank frequencies of [draws] samples, indexed by rank. *)
let zipf_freqs z ~n ~seed ~draws =
  let rng = Prng.create seed in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to draws do
    let k = Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int draws) counts

let test_zipf_pmf () =
  let z = Zipf.create ~n:3 ~alpha:1.0 in
  let f = zipf_freqs z ~n:3 ~seed:3 ~draws:30_000 in
  (* weights 1, 1/2, 1/3 -> total 11/6 *)
  List.iter
    (fun (k, p) ->
      check (Alcotest.float 1e-9) (Printf.sprintf "closed form %d" k) p (zipf_pmf ~n:3 ~alpha:1.0 k);
      if Float.abs (f.(k) -. p) > 0.02 then
        Alcotest.failf "rank-%d frequency %f vs pmf %f" k f.(k) p)
    [ (1, 6. /. 11.); (2, 3. /. 11.); (3, 2. /. 11.) ];
  check Alcotest.int "no rank 0" 0 (int_of_float f.(0))

let test_zipf_uniform () =
  let z = Zipf.create ~n:4 ~alpha:0.0 in
  let f = zipf_freqs z ~n:4 ~seed:5 ~draws:20_000 in
  for k = 1 to 4 do
    if Float.abs (f.(k) -. 0.25) > 0.02 then Alcotest.failf "rank-%d frequency %f" k f.(k)
  done

let test_zipf_draw_skew () =
  let z = Zipf.create ~n:100 ~alpha:1.2 in
  let f = zipf_freqs z ~n:100 ~seed:11 ~draws:30_000 in
  check Alcotest.bool "rank1 most popular" true (f.(1) > f.(2));
  let p1 = zipf_pmf ~n:100 ~alpha:1.2 1 in
  if Float.abs (f.(1) -. p1) > 0.02 then
    Alcotest.failf "rank-1 frequency %f vs pmf %f" f.(1) p1

let test_head_mass () =
  (* half of Zipf(1000, 1.0)'s draws land in its top 100 ranks *)
  let z = Zipf.create ~n:1000 ~alpha:1.0 in
  let f = zipf_freqs z ~n:1000 ~seed:13 ~draws:20_000 in
  let head = Array.fold_left ( +. ) 0. (Array.sub f 1 99) in
  check Alcotest.bool "half the mass in few ranks" true (head >= 0.5)

(* --- policy generators --- *)

let test_acl_shape () =
  let rng = Prng.create 21 in
  let c = Policy_gen.acl rng { Policy_gen.default_acl with rules = 300 } in
  let n = Classifier.length c in
  check Alcotest.bool "about 300 rules" true (n >= 250 && n <= 330);
  check Alcotest.bool "total" true (Classifier.is_total c);
  check Alcotest.bool "has chains" true (Classifier.dependency_depth c >= 3)

let test_acl_determinism () =
  let mk () = Policy_gen.acl (Prng.create 33) { Policy_gen.default_acl with rules = 100 } in
  let a = mk () and b = mk () in
  check Alcotest.int "same size" (Classifier.length a) (Classifier.length b);
  List.iter2
    (fun r1 r2 ->
      if not (Rule.equal r1 r2) then Alcotest.fail "generator not deterministic")
    (Classifier.rules a) (Classifier.rules b)

let test_prefix_table () =
  let rng = Prng.create 5 in
  let c = Policy_gen.prefix_table rng { Policy_gen.default_prefixes with prefixes = 500 } in
  check Alcotest.int "500 + default" 501 (Classifier.length c);
  check Alcotest.bool "total" true (Classifier.is_total c);
  (* LPM: all rules match only on dst_ip; any header must resolve *)
  let h = Header.of_fields Schema.ip_pair [ ("dst_ip", 0x0A000001L) ] in
  check Alcotest.bool "lookup works" true (Option.is_some (Classifier.action c h))

let test_prefix_determinism () =
  let mk () =
    Policy_gen.prefix_table (Prng.create 44)
      { Policy_gen.default_prefixes with prefixes = 200 }
  in
  let a = mk () and b = mk () in
  List.iter2
    (fun r1 r2 -> if not (Rule.equal r1 r2) then Alcotest.fail "prefix gen not deterministic")
    (Classifier.rules a) (Classifier.rules b)

let test_prng_split_independent () =
  let parent = Prng.create 5 in
  let child = Prng.split parent in
  let a = List.init 20 (fun _ -> Prng.int64 parent) in
  let b = List.init 20 (fun _ -> Prng.int64 child) in
  check Alcotest.bool "streams differ" true (a <> b)

let test_evaluation_sets () =
  let sets = Policy_gen.evaluation_sets ~seed:1 in
  check Alcotest.int "five sets" 5 (List.length sets);
  List.iter
    (fun (s : Policy_gen.named) ->
      check Alcotest.bool (s.label ^ " nonempty") true (Classifier.length s.classifier > 0))
    sets

(* --- traffic --- *)

let small_policy =
  Policy_gen.acl (Prng.create 99) { Policy_gen.default_acl with rules = 50; chains = 5 }

let test_headers_for () =
  let rng = Prng.create 2 in
  let hs = Traffic.headers_for rng small_policy 64 in
  check Alcotest.int "population" 64 (Array.length hs);
  Array.iter
    (fun h ->
      if Option.is_none (Classifier.action small_policy h) then
        Alcotest.fail "header escapes total policy")
    hs

let test_generate_flows () =
  let rng = Prng.create 4 in
  let profile =
    { Traffic.default with flows = 500; distinct_headers = 40; ingresses = [ 0; 1; 2 ] }
  in
  let flows = Traffic.generate rng small_policy profile in
  check Alcotest.int "count" 500 (List.length flows);
  let sorted = List.for_all2 (fun a b -> a.Traffic.start <= b.Traffic.start)
      (List.filteri (fun i _ -> i < 499) flows)
      (List.tl flows)
  in
  check Alcotest.bool "sorted by start" true sorted;
  List.iter
    (fun f ->
      if not (List.mem f.Traffic.ingress [ 0; 1; 2 ]) then Alcotest.fail "bad ingress";
      if f.Traffic.packets < 1 then Alcotest.fail "empty flow")
    flows

let test_zipf_popularity () =
  let rng = Prng.create 4 in
  let profile =
    { Traffic.default with flows = 5000; distinct_headers = 100; alpha = 1.2 }
  in
  let flows = Traffic.generate rng small_policy profile in
  let per_header = Hashtbl.create 64 in
  List.iter
    (fun (f : Traffic.flow) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt per_header f.header) in
      Hashtbl.replace per_header f.header (prev + f.packets))
    flows;
  let counts = Hashtbl.fold (fun _ c acc -> c :: acc) per_header [] |> List.sort (fun a b -> Int.compare b a) in
  let top = List.hd counts in
  let total = List.fold_left ( + ) 0 counts in
  check Alcotest.bool "skewed" true (float_of_int top /. float_of_int total > 0.1)

let suite =
  [
    ( "prng",
      [
        tc "determinism" test_prng_determinism;
        tc "bounds" test_prng_bounds;
        tc "uniformity" test_prng_uniformity;
        tc "exponential mean" test_exponential_mean;
        tc "sampling" test_sampling;
        tc "split streams differ" test_prng_split_independent;
      ] );
    ( "zipf",
      [
        tc "pmf/cdf" test_zipf_pmf;
        tc "alpha=0 uniform" test_zipf_uniform;
        tc "draw skew" test_zipf_draw_skew;
        tc "head mass" test_head_mass;
      ] );
    ( "policy_gen",
      [
        tc "acl shape" test_acl_shape;
        tc "acl determinism" test_acl_determinism;
        tc "prefix table" test_prefix_table;
        tc "prefix determinism" test_prefix_determinism;
        tc "evaluation sets" test_evaluation_sets;
      ] );
    ( "traffic",
      [
        tc "header population" test_headers_for;
        tc "flow generation" test_generate_flows;
        tc "zipf popularity" test_zipf_popularity;
      ] );
  ]
