(* Quickstart: the DIFANE packet walk on a five-switch line.

   Build a tiny access-control policy, deploy it with two authority
   switches, and watch what happens to the first and second packet of a
   flow: the first detours through an authority switch (which installs a
   spliced cache rule at the ingress), the second cuts through.

     dune exec examples/quickstart.exe *)

let printf = Printf.printf

let () =
  let schema = Schema.tiny2 in

  (* A policy with a dependency chain: a narrow drop shadowing a broad
     accept — the case where caching the matched rule naively would be
     unsafe. *)
  let policy =
    Classifier.of_specs schema
      [
        (30, [ ("f1", "00000001") ], Action.Drop);
        (20, [ ("f1", "000000xx"); ("f2", "1xxxxxxx") ], Action.Forward 4);
        (10, [ ("f1", "0xxxxxxx") ], Action.Forward 3);
        (0, [], Action.Drop);
      ]
  in
  printf "Policy (highest priority first):\n%s\n\n"
    (Format.asprintf "%a" Classifier.pp policy);

  (* Topology: 0 - 1 - 2 - 3 - 4, authorities at switches 1 and 3. *)
  let topology = Topology.line 5 () in
  let d = Deployment.build ~policy ~topology ~authority_ids:[ 1; 3 ] () in
  printf "Deployed: %d partitions over authority switches 1 and 3\n"
    (List.length (Deployment.partitioner d).Partitioner.partitions);
  printf "%s\n\n" (Format.asprintf "%a" Assignment.pp (Deployment.assignment d));

  let show_path o =
    String.concat " -> " (List.map string_of_int o.Deployment.path)
  in
  let h f1 f2 = Header.make schema [| Int64.of_int f1; Int64.of_int f2 |] in

  (* First packet of a flow matching the broad accept rule. *)
  let pkt = h 2 5 in
  printf "First packet %s from switch 0:\n" (Format.asprintf "%a" Header.pp pkt);
  let o1 = Deployment.inject d ~now:0.0 ~ingress:0 pkt in
  printf "  action    : %s\n" (Action.to_string o1.Deployment.action);
  printf "  path      : %s   (detours via authority %s)\n" (show_path o1)
    (match o1.Deployment.authority with Some a -> string_of_int a | None -> "-");
  printf "  latency   : %.0f us\n" (1e6 *. o1.Deployment.latency);
  (match o1.Deployment.installed with
  | Some r ->
      printf "  installed : spliced cache rule %s\n"
        (Format.asprintf "%a" Rule.pp r)
  | None -> printf "  installed : nothing\n");

  (* Second packet of the same flow: served by the ingress cache. *)
  let o2 = Deployment.inject d ~now:0.1 ~ingress:0 pkt in
  printf "\nSecond packet:\n";
  printf "  cache hit : %b\n" o2.Deployment.cache_hit;
  printf "  path      : %s   (straight to egress)\n" (show_path o2);
  printf "  latency   : %.0f us\n" (1e6 *. o2.Deployment.latency);

  (* The spliced cache rule must not swallow the narrow drop rule. *)
  let blocked = h 1 5 in
  let o3 = Deployment.inject d ~now:0.2 ~ingress:0 blocked in
  printf "\nPacket %s (matches the high-priority drop):\n"
    (Format.asprintf "%a" Header.pp blocked);
  printf "  action    : %s  (cache hit: %b — the cached piece excluded it)\n"
    (Action.to_string o3.Deployment.action)
    o3.Deployment.cache_hit;

  (* Per-switch view. *)
  printf "\nSwitch state:\n";
  Array.iter
    (fun sw -> printf "  %s\n" (Format.asprintf "%a" Switch.pp sw))
    (Deployment.switches d);

  (* And the whole thing stays faithful to the original classifier. *)
  let rng = Prng.create 1 in
  let probes =
    List.init 1000 (fun _ -> h (Prng.int rng 256) (Prng.int rng 256))
  in
  printf "\n1000 random probes agree with the original policy: %b\n"
    (Deployment.semantically_equal d probes)
