(* Causal packet-path tracing: postcard rings, path reconstruction and
   the invariant checker.  Three groups:

   - ring mechanics: provenance packing, wraparound accounting, the
     truncation rule;
   - the checker: every invariant rule fired by a deliberately
     corrupted postcard stream built through [Paths.of_postcards];
   - end-to-end determinism: the traced E-SCALE run yields
     byte-identical [difane-paths-v1] JSON at domains 1 and 4, and
     tracing itself never perturbs the simulation digest. *)

open Test_util

let pack = Ptrace.pack_provenance

(* Build one postcard; defaults make a shard-0 packet-0 hop. *)
let pc ?(shard = 0) ?(pkt = 0) ?(sw = 0) ?(rule = -1) ?(aux = 0) at kind =
  {
    Ptrace.at;
    shard;
    pkt;
    kind;
    switch = sw;
    rule;
    aux;
    key_lo = 0xbeef;
    key_hi = 0x5;
  }

let violations ?wrapped cards = Paths.check (Paths.of_postcards ?wrapped (Array.of_list cards))

let has_violation sub vs =
  List.exists
    (fun v ->
      let lv = String.length v and ls = String.length sub in
      let rec at i = i + ls <= lv && (String.sub v i ls = sub || at (i + 1)) in
      at 0)
    vs

let check_fires name sub cards =
  let vs = violations cards in
  if not (has_violation sub vs) then
    Alcotest.failf "%s: expected a violation containing %S, got [%s]" name sub
      (String.concat "; " vs)

(* ---- provenance packing ---- *)

let test_provenance () =
  List.iter
    (fun (origin, pid) ->
      let packed = pack ~origin ~pid in
      check Alcotest.int "origin" origin (Ptrace.provenance_origin packed);
      check Alcotest.int "pid" pid (Ptrace.provenance_pid packed))
    [ (0, 0); (59, 7); (1_000_000, 2_000_000); (0, 2_097_150); (-1, 5); (3, -1) ];
  check Alcotest.int "unknown pair packs to 0" 0 (pack ~origin:(-1) ~pid:(-1))

(* ---- ring wraparound ---- *)

(* 5 packets x 3 postcards into a capacity-8 ring: 7 oldest postcards
   are overwritten, the boundary lands mid-packet-2, so pkt 2 survives
   truncated (first surviving hop is a transit, not a verdict) while
   pkts 3 and 4 survive whole. *)
let test_wraparound () =
  Telemetry.reset ();
  Ptrace.enable ~capacity:8 ();
  Ptrace.bind ~shard:0;
  for i = 0 to 4 do
    let t = float_of_int i in
    ignore (Ptrace.begin_packet_key ~lo:i ~hi:0);
    Ptrace.emit ~at:t Ptrace.Miss ~switch:0 ~rule:(-1) ~aux:1;
    Ptrace.emit ~at:(t +. 0.1) Ptrace.Transit ~switch:1 ~rule:(-1) ~aux:0;
    Ptrace.emit ~at:(t +. 0.2) Ptrace.Deliver ~switch:1 ~rule:(-1) ~aux:0
  done;
  Ptrace.disable ();
  check Alcotest.int "emitted counts overwritten history" 15 (Ptrace.emitted ());
  check Alcotest.int "overwritten" 7 (Ptrace.overwritten ());
  check Alcotest.bool "shard 0 wrapped" true (Ptrace.shard_wrapped 0);
  check Alcotest.bool "unknown shard did not wrap" false (Ptrace.shard_wrapped 9);
  let cards = Ptrace.postcards () in
  check Alcotest.int "window is the ring capacity" 8 (Array.length cards);
  Array.iteri
    (fun i (p : Ptrace.postcard) ->
      if i > 0 then
        check Alcotest.bool "window is oldest-first" true (cards.(i - 1).Ptrace.at <= p.Ptrace.at))
    cards;
  let t = Paths.reconstruct () in
  check Alcotest.int "trace totals: emitted" 15 t.Paths.emitted;
  check Alcotest.int "trace totals: overwritten" 7 t.Paths.overwritten;
  let by_pkt pkt = List.find (fun (p : Paths.path) -> p.Paths.pkt = pkt) t.Paths.paths in
  check Alcotest.int "pkts 2..4 survive" 3 (List.length t.Paths.paths);
  check Alcotest.bool "mid-cut path is truncated" true (by_pkt 2).Paths.truncated;
  check Alcotest.bool "whole path is not truncated" false (by_pkt 3).Paths.truncated;
  check Alcotest.bool "truncated paths are not judged" true (Paths.check t = []);
  check Alcotest.int "truncated path keeps its key" 3 (by_pkt 3).Paths.key_lo

(* Disabled emission is inert: no ring, no context, id -1. *)
let test_disabled_noop () =
  Telemetry.reset ();
  (* fresh, empty rings; then stop recording *)
  Ptrace.enable ();
  Ptrace.disable ();
  check Alcotest.int "begin_packet_key returns -1" (-1)
    (Ptrace.begin_packet_key ~lo:1 ~hi:2);
  Ptrace.emit ~at:0. Ptrace.Deliver ~switch:0 ~rule:(-1) ~aux:0;
  check Alcotest.int "nothing recorded" 0 (Array.length (Ptrace.postcards ()))

(* ---- the invariant checker, rule by rule ---- *)

let miss ?(pkt = 0) t = pc ~pkt ~sw:0 ~aux:1 t Ptrace.Miss
let deliver ?(pkt = 0) ?(sw = 1) t = pc ~pkt ~sw t Ptrace.Deliver

let test_checker_terminal () =
  check_fires "missing terminal" "has no terminal postcard" [ miss 0. ];
  check_fires "double terminal" "has 2 terminal postcards"
    [ miss 0.; deliver 1.; deliver 2. ];
  check_fires "hop after terminal" "transit postcard after its terminal"
    [ miss 0.; deliver 1.; pc ~sw:2 2. Ptrace.Transit ];
  (* deferred install traffic after the terminal is legitimate *)
  check Alcotest.bool "trailing install allowed" true
    (violations
       [
         miss 0.;
         pc ~sw:0 0.5 Ptrace.Authority_serve;
         deliver 1.;
         pc ~sw:0 ~rule:7 ~aux:(pack ~origin:3 ~pid:0) 1.5 Ptrace.Install;
         pc ~sw:0 ~rule:4 ~aux:Ptrace.replace_evicted 1.5 Ptrace.Replace;
       ]
    = [])

let test_checker_no_loop () =
  check_fires "loop within a leg" "revisits switch 3 within one leg"
    [
      miss 0.;
      pc ~sw:3 1. Ptrace.Transit;
      pc ~sw:4 2. Ptrace.Transit;
      pc ~sw:3 3. Ptrace.Transit;
      deliver 4.;
    ];
  (* a star topology revisits the hub on the next leg: legal *)
  check Alcotest.bool "revisit across legs allowed" true
    (violations
       [
         miss 0.;
         pc ~sw:3 1. Ptrace.Transit;
         pc ~sw:0 1.5 Ptrace.Authority_serve;
         pc ~sw:3 2. Ptrace.Transit;
         deliver 3.;
       ]
    = [])

let test_checker_serve_cause () =
  check_fires "serve without miss" "authority-served without an ingress miss"
    [ pc ~sw:2 0. Ptrace.Authority_serve; deliver 1. ]

let test_checker_install_cause () =
  check_fires "provenance install without serve"
    "with no authority serve or controller fallback"
    [ miss 0.; pc ~sw:0 ~rule:9 ~aux:(pack ~origin:2 ~pid:1) 1. Ptrace.Install; deliver 2. ];
  (* a controller fallback is an acceptable cause too *)
  check Alcotest.bool "controller-caused install allowed" true
    (violations
       [
         miss 0.;
         pc ~sw:0 ~rule:2 1. Ptrace.Controller;
         pc ~sw:0 ~rule:9 ~aux:(pack ~origin:2 ~pid:1) 2. Ptrace.Install;
         deliver 3.;
       ]
    = [])

let test_checker_backpressure () =
  check_fires "serve after deferral" "authority-served after a backpressure deferral"
    [
      miss 0.;
      pc ~sw:5 1. Ptrace.Backpressure;
      pc ~sw:5 2. Ptrace.Authority_serve;
      deliver 3.;
    ];
  check_fires "deferral never resolved" "reached neither controller nor drop"
    [ miss 0.; pc ~sw:5 1. Ptrace.Backpressure; deliver 2. ];
  check Alcotest.bool "deferral resolved by controller" true
    (violations
       [ miss 0.; pc ~sw:5 1. Ptrace.Backpressure; pc 2. Ptrace.Controller; deliver 3. ]
    = [])

let test_checker_queue_drop () =
  check_fires "queue_full verdict without shed" "with no congestion-layer shed"
    [ miss 0.; pc ~aux:Ptrace.drop_queue_full 1. Ptrace.Drop ];
  check_fires "shed without queue_full verdict" "but was not dropped queue_full"
    [ miss 0.; pc ~sw:0 ~aux:3 1. Ptrace.Queue_drop; deliver 2. ];
  check Alcotest.bool "agreeing layers pass" true
    (violations
       [ miss 0.; pc ~sw:0 ~aux:3 1. Ptrace.Queue_drop; pc ~aux:Ptrace.drop_queue_full 2. Ptrace.Drop ]
    = [])

let test_checker_drop_reason () =
  check_fires "unknown reason code" "unknown reason code 99"
    [ miss 0.; pc ~aux:99 1. Ptrace.Drop ]

let test_checker_hit_install () =
  check_fires "hit with no live install" "with no live install"
    [ pc ~rule:5 ~sw:2 ~aux:0 0. Ptrace.Cache_hit; deliver 1. ];
  (* a control-plane install makes the hit legitimate... *)
  let install = pc ~pkt:(-1) ~rule:5 ~sw:2 0. Ptrace.Install in
  let hit = pc ~rule:5 ~sw:2 1. Ptrace.Cache_hit in
  check Alcotest.bool "live install satisfies the hit" true
    (violations [ install; hit; deliver 2. ] = []);
  (* ...until an invalidate kills the entry *)
  check_fires "hit after invalidate" "with no live install"
    [
      install;
      pc ~pkt:(-1) ~rule:5 ~sw:2 ~aux:Ptrace.invalidate_migration 0.5 Ptrace.Invalidate;
      hit;
      deliver 2.;
    ];
  (* liveness is judged per shard: shard 1's install cannot vouch for
     shard 0's hit *)
  check_fires "install on another shard" "with no live install"
    [
      pc ~shard:0 ~rule:5 ~sw:2 0. Ptrace.Cache_hit;
      deliver ~pkt:0 1.;
      pc ~shard:1 ~pkt:(-1) ~rule:5 ~sw:2 0. Ptrace.Install;
    ];
  (* wraparound may have eaten the install: the rule must stand down *)
  let t =
    Paths.of_postcards ~wrapped:(fun _ -> true)
      (Array.of_list [ hit; deliver 2. ])
  in
  check Alcotest.bool "skipped while rings are whole-trace wrapped" true
    (List.for_all
       (fun v ->
         not (has_violation "hit-install" [ v ]))
       (Paths.check { t with Paths.overwritten = 1 }))

(* ---- queries ---- *)

let test_select () =
  let cards =
    [
      miss ~pkt:0 0.;
      pc ~pkt:0 ~sw:7 0.5 Ptrace.Transit;
      deliver ~pkt:0 1.;
      miss ~pkt:1 10.;
      pc ~pkt:1 ~aux:Ptrace.drop_unreachable 11. Ptrace.Drop;
    ]
  in
  let t = Paths.of_postcards (Array.of_list cards) in
  let n q = List.length (Paths.select q t) in
  check Alcotest.int "any matches all" 2 (n Paths.any);
  check Alcotest.int "switch filter" 1 (n { Paths.any with Paths.q_switch = Some 7 });
  check Alcotest.int "outcome filter" 1 (n { Paths.any with Paths.q_outcome = Some `Dropped });
  check Alcotest.int "since filter" 1 (n { Paths.any with Paths.q_since = Some 5. });
  check Alcotest.int "until filter" 1 (n { Paths.any with Paths.q_until = Some 5. });
  check Alcotest.int "key filter" 2 (n { Paths.any with Paths.q_key = Some (0xbeef, 0x5) });
  check Alcotest.int "key mismatch" 0 (n { Paths.any with Paths.q_key = Some (1, 2) })

(* ---- end-to-end determinism ---- *)

let scale_json ~domains =
  Telemetry.reset ();
  Ptrace.enable ();
  let spec = { Experiments.E_scale.quick_spec with Experiments.E_scale.domains } in
  let r = Experiments.E_scale.run ~seed:11 spec in
  Ptrace.disable ();
  let t = Paths.reconstruct () in
  check Alcotest.bool "causal invariants hold on a real run" true (Paths.check t = []);
  (Experiments.E_scale.digest r, Paths.to_json t)

let test_shard_merge_determinism () =
  let d1, j1 = scale_json ~domains:1 in
  let d4, j4 = scale_json ~domains:4 in
  check Alcotest.string "digest identical across domain counts" d1 d4;
  check Alcotest.string "paths JSON identical across domain counts" j1 j4;
  check Alcotest.bool "the run actually traced" true (String.length j1 > 1000)

let test_tracing_noninterference () =
  Telemetry.reset ();
  Ptrace.disable ();
  let spec = Experiments.E_scale.quick_spec in
  let off = Experiments.E_scale.digest (Experiments.E_scale.run ~seed:7 spec) in
  Telemetry.reset ();
  Ptrace.enable ();
  let traced = Experiments.E_scale.digest (Experiments.E_scale.run ~seed:7 spec) in
  Ptrace.disable ();
  check Alcotest.string "tracing does not perturb the digest" off traced

(* ---- sub-microsecond histogram ladder ---- *)

let test_sub_us_buckets () =
  let b = Telemetry.default_buckets in
  check Alcotest.int "17 bounds" 17 (Array.length b);
  check (Alcotest.float 1e-12) "ladder reaches ~15.6 ns" 1.5625e-8 b.(0);
  check (Alcotest.float 1e-12) "the old 1 us floor survives" 1e-6 b.(3);
  Array.iteri (fun i x -> if i > 0 then check Alcotest.bool "ascending" true (x > b.(i - 1))) b;
  let h = Telemetry.histogram "ptrace_test_hist" in
  Telemetry.observe h 4.0e-8;
  Telemetry.observe h 1.0e-4;
  let cumulative =
    match
      List.find_opt (fun s -> s.Telemetry.name = "ptrace_test_hist") (Telemetry.snapshot ())
    with
    | Some { Telemetry.v = Telemetry.Histogram { buckets; _ }; _ } ->
        Array.of_list (List.map snd buckets)
    | _ -> Alcotest.fail "histogram not in snapshot"
  in
  (* 40 ns lands in the 62.5 ns bucket — below the old 1 us floor the
     ladder used to start at *)
  check Alcotest.int "below 15.6 ns: nothing" 0 cumulative.(0);
  check Alcotest.int "40 ns resolved at 62.5 ns" 1 cumulative.(1);
  check Alcotest.int "still one at the old 1 us floor" 1 cumulative.(3);
  check Alcotest.int "both observations by +inf" 2 cumulative.(Array.length cumulative - 1);
  Telemetry.reset ()

let suite =
  [
    ( "ptrace",
      [
      tc "provenance packing roundtrip" test_provenance;
      tc "postcard ring wraparound and truncation" test_wraparound;
      tc "disabled emission is inert" test_disabled_noop;
      tc "checker: terminal rules" test_checker_terminal;
      tc "checker: no-loop within a leg" test_checker_no_loop;
      tc "checker: serve-cause" test_checker_serve_cause;
      tc "checker: install-cause" test_checker_install_cause;
      tc "checker: backpressure resolution" test_checker_backpressure;
      tc "checker: queue-drop cross-layer agreement" test_checker_queue_drop;
      tc "checker: drop-reason validity" test_checker_drop_reason;
      tc "checker: hit-install liveness" test_checker_hit_install;
      tc "path queries" test_select;
      tc "shard merge: domains 1 vs 4 byte-identical" test_shard_merge_determinism;
      tc "tracing never perturbs the digest" test_tracing_noninterference;
      tc "sub-microsecond histogram ladder" test_sub_us_buckets;
      ] );
  ]
