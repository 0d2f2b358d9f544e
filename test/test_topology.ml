open Test_util

let mk ~nodes links =
  Topology.create ~nodes
    (List.map
       (fun (a, b, lat) -> { Topology.src = a; dst = b; latency = lat; bandwidth = 1e9 })
       links)

(* Path length in links, reachability and the placement objective, from
   the topology's public readers. *)
let hop_count t src dst =
  Option.map (fun p -> List.length p - 1) (Topology.shortest_path t src dst)

let is_connected t =
  List.for_all (fun v -> Topology.distance t 0 v <> None) (List.init (Topology.nodes t) Fun.id)

let mean_nearest_distance topo authorities =
  let dist = List.map (Topology.all_distances topo) authorities in
  let n = Topology.nodes topo in
  let total = ref 0. in
  for v = 0 to n - 1 do
    total := !total +. List.fold_left (fun acc d -> Float.min acc d.(v)) infinity dist
  done;
  !total /. float_of_int n

(* A diamond: 0-1-3 is longer than 0-2-3. *)
let diamond = mk ~nodes:4 [ (0, 1, 3.); (1, 3, 3.); (0, 2, 1.); (2, 3, 1.); (1, 2, 1.) ]

let test_validation () =
  (try
     ignore (mk ~nodes:2 [ (0, 2, 1.) ]);
     Alcotest.fail "out-of-range endpoint accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (mk ~nodes:2 [ (0, 0, 1.) ]);
     Alcotest.fail "self loop accepted"
   with Invalid_argument _ -> ());
  try
    ignore (mk ~nodes:2 [ (0, 1, 1.); (1, 0, 2.) ]);
    Alcotest.fail "duplicate link accepted"
  with Invalid_argument _ -> ()

let test_shortest_path () =
  check (Alcotest.option (Alcotest.list Alcotest.int)) "min latency path"
    (Some [ 0; 2; 3 ])
    (Topology.shortest_path diamond 0 3);
  check (Alcotest.option (Alcotest.float 1e-9)) "distance" (Some 2.)
    (Topology.distance diamond 0 3);
  check (Alcotest.option Alcotest.int) "hops" (Some 2) (hop_count diamond 0 3);
  check (Alcotest.option (Alcotest.list Alcotest.int)) "self" (Some [ 1 ])
    (Topology.shortest_path diamond 1 1)

let test_disconnected () =
  let g = mk ~nodes:3 [ (0, 1, 1.) ] in
  check (Alcotest.option (Alcotest.list Alcotest.int)) "unreachable" None
    (Topology.shortest_path g 0 2);
  check Alcotest.bool "not connected" false (is_connected g);
  check Alcotest.bool "diamond connected" true (is_connected diamond)

let test_path_latency () =
  check (Alcotest.float 1e-9) "sum" 6. (Topology.path_latency diamond [ 0; 1; 3 ]);
  try
    ignore (Topology.path_latency diamond [ 0; 3 ]);
    Alcotest.fail "non-adjacent accepted"
  with Invalid_argument _ -> ()

let test_stretch () =
  (* via node 2 (on the shortest path): stretch 1 *)
  check (Alcotest.float 1e-9) "on-path via" 1.0 (Topology.stretch diamond ~src:0 ~via:2 ~dst:3);
  (* via node 1: best 0→1 is 0-2-1 (2), best 1→3 is 1-2-3 (2): (2+2)/2 *)
  check (Alcotest.float 1e-9) "detour via" 2.0 (Topology.stretch diamond ~src:0 ~via:1 ~dst:3);
  check (Alcotest.float 1e-9) "src=dst" 1.0 (Topology.stretch diamond ~src:2 ~via:0 ~dst:2)

let test_generators () =
  let line = Topology.line 5 () in
  check Alcotest.int "line nodes" 5 (Topology.nodes line);
  check (Alcotest.option Alcotest.int) "line hop count" (Some 4) (hop_count line 0 4);
  let star = Topology.star 6 () in
  check Alcotest.int "star hub degree" 5 (Topology.degree star 0);
  check (Alcotest.option Alcotest.int) "spoke-spoke" (Some 2) (hop_count star 1 5);
  let mesh = Topology.full_mesh 4 () in
  check Alcotest.int "mesh links" 6 (List.length (Topology.links mesh))

let test_random_generators () =
  let rng = Prng.create 42 in
  let rand () = Prng.float rng in
  let w = Topology.waxman ~rand ~nodes:30 () in
  check Alcotest.int "waxman nodes" 30 (Topology.nodes w);
  check Alcotest.bool "waxman connected" true (is_connected w);
  let c = Topology.campus ~rand ~edge_switches:10 () in
  check Alcotest.bool "campus connected" true (is_connected c);
  check Alcotest.int "campus nodes" (2 + 3 + 10) (Topology.nodes c)

(* --- placement --- *)

let test_placement_strategies () =
  let rng = Prng.create 9 in
  let rand () = Prng.float rng in
  let topo = Topology.waxman ~rand ~nodes:40 () in
  let k = 4 in
  let score p = mean_nearest_distance topo p in
  let km = Placement.k_median topo ~k in
  check Alcotest.int "k nodes" k (List.length km);
  check Alcotest.int "distinct" k (List.length (List.sort_uniq Int.compare km));
  (* greedy k-median must beat the non-interacting strategies on its own
     objective for this graph *)
  check Alcotest.bool "beats centroid picks" true
    (score km <= score (Placement.centroid topo ~k) +. 1e-12);
  check Alcotest.bool "beats degree picks" true
    (score km <= score (Placement.by_degree topo ~k) +. 1e-12);
  check Alcotest.bool "beats random picks" true
    (score km <= score (Placement.random ~rand topo ~k) +. 1e-12)

let test_placement_objective_monotone () =
  let topo = Topology.line 10 () in
  (* more authorities never hurt the objective *)
  let s2 = mean_nearest_distance topo (Placement.k_median topo ~k:2) in
  let s4 = mean_nearest_distance topo (Placement.k_median topo ~k:4) in
  check Alcotest.bool "monotone" true (s4 <= s2);
  (* full coverage: objective 0 when every node is an authority *)
  check (Alcotest.float 1e-12) "all nodes" 0.
    (mean_nearest_distance topo (Placement.k_median topo ~k:10))

let test_placement_validation () =
  let topo = Topology.line 4 () in
  (try
     ignore (Placement.k_median topo ~k:0);
     Alcotest.fail "k=0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Placement.by_degree topo ~k:9);
    Alcotest.fail "k>n accepted"
  with Invalid_argument _ -> ()

let prop_triangle_inequality =
  qt "stretch >= 1 for all via"
    QCheck2.Gen.(triple (int_bound 3) (int_bound 3) (int_bound 3))
    (fun (s, v, d) -> Topology.stretch diamond ~src:s ~via:v ~dst:d >= 1.0 -. 1e-9)

let prop_waxman_connected =
  qt ~count:20 "waxman always connected" QCheck2.Gen.(int_range 2 60) (fun n ->
      let rng = Prng.create n in
      let rand () = Prng.float rng in
      is_connected (Topology.waxman ~rand ~nodes:n ()))

let prop_dijkstra_symmetric =
  qt ~count:50 "undirected distances are symmetric"
    QCheck2.Gen.(pair (int_bound 3) (int_bound 3))
    (fun (a, b) -> Topology.distance diamond a b = Topology.distance diamond b a)

(* --- routing: the link-state underlay the table provides --- *)

let test_next_hops () =
  let next_hop a b = Option.map (fun p -> List.nth_opt p 1) (Topology.shortest_path diamond a b) in
  check (Alcotest.option (Alcotest.option Alcotest.int)) "0 -> 3 via 2" (Some (Some 2))
    (next_hop 0 3);
  check (Alcotest.option (Alcotest.option Alcotest.int)) "1 -> 3 via 2 (cheaper)" (Some (Some 2))
    (next_hop 1 3);
  check (Alcotest.option (Alcotest.option Alcotest.int)) "self" (Some None) (next_hop 1 1)

let test_paths_are_shortest () =
  (* Bellman's condition: no link offers a cheaper way to any node, and
     the path realises the distance bit for bit *)
  let rng = Prng.create 31 in
  let topo = Topology.waxman ~rand:(fun () -> Prng.float rng) ~nodes:25 () in
  for src = 0 to 24 do
    for dst = 0 to 24 do
      match (Topology.shortest_path topo src dst, Topology.distance topo src dst) with
      | Some p, Some d ->
          if not (Float.equal (Topology.path_latency topo p) d) then
            Alcotest.failf "path %d->%d costs %h, distance is %h" src dst
              (Topology.path_latency topo p) d
      | None, None -> ()
      | _ -> Alcotest.failf "reachability disagrees for %d->%d" src dst
    done;
    let dist = Topology.all_distances topo src in
    List.iter
      (fun (l : Topology.link) ->
        if dist.(l.dst) > dist.(l.src) +. l.latency +. 1e-12
           || dist.(l.src) > dist.(l.dst) +. l.latency +. 1e-12
        then Alcotest.failf "link %d-%d shortens a path from %d" l.src l.dst src)
      (Topology.links topo)
  done

let test_unreachable () =
  let g = mk ~nodes:3 [ (0, 1, 1.) ] in
  check (Alcotest.option (Alcotest.list Alcotest.int)) "no route" None
    (Topology.shortest_path g 0 2);
  check Alcotest.bool "reachable" true (Topology.distance g 0 1 <> None);
  check Alcotest.bool "not reachable" true (Topology.distance g 0 2 = None)

let test_reconvergence () =
  (* best 0->3 is 0-2-3; break link 2-3: reroute via 2-1-3 or 0-1-3 *)
  (match Topology.shortest_path (Topology.without_link diamond 2 3) 0 3 with
  | Some p ->
      check Alcotest.bool "avoids dead link" true
        (not
           (List.exists2
              (fun a b -> (a = 2 && b = 3) || (a = 3 && b = 2))
              (List.filteri (fun i _ -> i < List.length p - 1) p)
              (List.tl p)))
  | None -> Alcotest.fail "diamond stays connected");
  (* kill node 2 entirely: 0->3 must go 0-1-3 *)
  check (Alcotest.option (Alcotest.list Alcotest.int)) "reroute around dead node"
    (Some [ 0; 1; 3 ])
    (Topology.shortest_path (without_node diamond 2) 0 3)

(* A random graph of 2-30 nodes whose link latencies are drawn from
   {1, 2}: equal-cost paths abound, so tie-breaking shows in every path,
   and integer sums make every float comparison exact. *)
let tied_topology seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 29 in
  let density = 0.1 +. (0.3 *. Prng.float rng) in
  let links = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Prng.float rng < density then
        links := (a, b, float_of_int (1 + Prng.int rng 2)) :: !links
    done
  done;
  mk ~nodes:n (List.rev !links)

let floyd_warshall topo =
  let n = Topology.nodes topo in
  let d = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else infinity)) in
  List.iter
    (fun (l : Topology.link) ->
      d.(l.src).(l.dst) <- l.latency;
      d.(l.dst).(l.src) <- l.latency)
    (Topology.links topo);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) +. d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) +. d.(k).(j)
      done
    done
  done;
  d

let rec adjacent_chain topo = function
  | a :: (b :: _ as rest) -> Topology.link_between topo a b <> None && adjacent_chain topo rest
  | _ -> true

(* Every path the table hands out is exact: right endpoints, adjacent
   hops, latency bitwise equal to [distance], distance equal to an
   independent Floyd-Warshall, and the path to a node's predecessor a
   prefix of the node's own path: a source's paths form one tree, as
   the congestion model's hop-by-hop queue booking assumes.  Paths are
   memoised per pair on first query: the filled memo, asked again, and a
   fresh topology over the same links, its memo filled in the opposite
   pair order, hand out equal paths. *)
let prop_paths_exact =
  qt ~count:100 "table paths are exact on tied latencies" QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let topo = tied_topology seed in
      let n = Topology.nodes topo in
      let fw = floyd_warshall topo in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match (Topology.shortest_path topo src dst, Topology.distance topo src dst) with
          | None, None -> if fw.(src).(dst) <> infinity then ok := false
          | Some p, Some d ->
              let rev = List.rev p in
              let prefix_ok =
                src = dst
                || Topology.shortest_path topo src (List.nth rev 1) = Some (List.rev (List.tl rev))
              in
              if not
                   (List.hd p = src && List.hd rev = dst && adjacent_chain topo p
                   && Float.equal (Topology.path_latency topo p) d
                   && Float.equal d fw.(src).(dst)
                   && prefix_ok)
              then ok := false
          | _ -> ok := false
        done
      done;
      let fresh = Topology.create ~nodes:n (Topology.links topo) in
      for src = n - 1 downto 0 do
        for dst = n - 1 downto 0 do
          let memo = Topology.shortest_path topo src dst in
          if memo <> Topology.shortest_path fresh src dst
             || memo <> Topology.shortest_path topo src dst
          then ok := false
        done
      done;
      !ok)

(* Pins tie-breaking: the all-pairs paths over a fixed set of tie-heavy
   topologies.  Any change to which equal-cost path wins changes this
   digest (and with it the congestion model's per-hop bookings). *)
let test_tie_breaking_pinned () =
  let buf = Buffer.create 4096 in
  for seed = 1 to 40 do
    let topo = tied_topology seed in
    let n = Topology.nodes topo in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        (match Topology.shortest_path topo src dst with
        | None -> Buffer.add_char buf '-'
        | Some p -> List.iter (fun v -> Buffer.add_string buf (string_of_int v ^ ",")) p);
        Buffer.add_char buf '\n'
      done
    done
  done;
  check Alcotest.string "all-pairs paths digest" "82b6f673d432d97367b4120b52548968"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    ( "topology",
      [
        tc "link validation" test_validation;
        tc "shortest path" test_shortest_path;
        tc "disconnected graphs" test_disconnected;
        tc "path latency" test_path_latency;
        tc "stretch metric" test_stretch;
        tc "deterministic generators" test_generators;
        tc "random generators" test_random_generators;
        tc "placement strategies" test_placement_strategies;
        tc "placement objective monotone" test_placement_objective_monotone;
        tc "placement validation" test_placement_validation;
        prop_triangle_inequality;
        prop_waxman_connected;
        prop_dijkstra_symmetric;
        prop_paths_exact;
        tc "tie-breaking pinned" test_tie_breaking_pinned;
      ] );
    ( "routing",
      [
        tc "next hops" test_next_hops;
        tc "table paths are shortest" test_paths_are_shortest;
        tc "unreachable" test_unreachable;
        tc "reconvergence after failures" test_reconvergence;
      ] );
  ]
