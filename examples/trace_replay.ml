(* Trace replay: record a workload once, replay it against different cache
   configurations.

   This is the methodology of the paper era's trace-driven cache studies
   (e.g. the REANNZ IXP trace in follow-on work): freeze a traffic trace
   to a file, then compare caching schemes on the *identical* packet
   sequence.  Here: record 20k Zipf flows, replay them into the ingress
   cache of a small deployment whose authorities install spliced wildcard
   pieces or microflow entries, across cache sizes.

     dune exec examples/trace_replay.exe *)

let printf = Printf.printf

let () =
  let seed = 4 in
  let rng = Prng.create seed in
  let policy =
    Policy_gen.acl (Prng.split rng)
      { Policy_gen.default_acl with rules = 800; chains = 40 }
  in
  let schema = Classifier.schema policy in

  (* 1. record *)
  let profile =
    {
      Traffic.default with
      flows = 20_000;
      distinct_headers = 1_500;
      alpha = 1.0;
      packets_per_flow_mean = 3.0;
    }
  in
  let flows = Traffic.generate (Prng.split rng) policy profile in
  let path = Filename.temp_file "difane" ".trace" in
  Trace.save path schema flows;
  printf "recorded %d flows to %s (%d bytes)\n" (List.length flows) path
    (let st = open_in path in
     let n = in_channel_length st in
     close_in st;
     n);

  (* 2. replay — from the file, as a separate consumer would *)
  let replayed =
    match Trace.load path schema with
    | Ok f -> f
    | Error e -> failwith e
  in
  Sys.remove path;
  printf "replayed %d flows\n\n" (List.length replayed);

  let stream = Traffic.packet_stream replayed in
  printf "packet stream: %d packets over %d distinct headers\n\n"
    (Array.length stream) profile.Traffic.distinct_headers;

  let sizes = [ 25; 50; 100; 200; 400; 800 ] in
  let points = Experiments.F_miss.sweep policy ~alpha:profile.alpha ~cache_sizes:sizes stream in
  Table.print
    ~title:"miss rate vs cache size (same trace; OPT = clairvoyant floor)"
    ~header:
      [ "cache entries"; "wildcard (DIFANE)"; "wildcard OPT"; "microflow (Ethane)";
        "advantage" ]
    (List.map
       (fun (p : Experiments.F_miss.point) ->
         [
           string_of_int p.cache_size;
           Table.fmt_pct p.wildcard_miss_rate;
           Table.fmt_pct p.wildcard_opt_miss_rate;
           Table.fmt_pct p.microflow_miss_rate;
           (if p.wildcard_miss_rate > 0. then
              Printf.sprintf "%.1fx" (p.microflow_miss_rate /. p.wildcard_miss_rate)
            else "inf");
         ])
       points);
  printf "\n(aggregation is why DIFANE's wildcard cache wins at equal TCAM budget)\n"
