(* Shared machinery for the experiment drivers. *)

(* The messages of the claims that do not hold. *)
let unmet claims = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) claims

let eval_sets ~seed ~quick =
  if not quick then Policy_gen.evaluation_sets ~seed
  else
    (* Scaled-down twins of the Table-1 rule sets, for the test suite. *)
    let rng = Prng.create seed in
    let mk label description classifier = { Policy_gen.label; classifier; description } in
    [
      mk "acl-small" "campus-edge ACL stand-in (quick)"
        (Policy_gen.acl (Prng.split rng)
           { Policy_gen.default_acl with rules = 60; chains = 8; chain_depth = 3 });
      mk "acl-medium" "campus-core ACL stand-in (quick)"
        (Policy_gen.acl (Prng.split rng)
           { Policy_gen.default_acl with rules = 120; chains = 12; chain_depth = 5 });
      mk "acl-deep" "ClassBench-style deep-chain ACL (quick)"
        (Policy_gen.acl (Prng.split rng)
           { Policy_gen.default_acl with rules = 150; chains = 12; chain_depth = 8 });
      mk "prefix-5k" "ISP VPN stand-in (quick)"
        (Policy_gen.prefix_table (Prng.split rng)
           { Policy_gen.default_prefixes with prefixes = 300 });
      mk "prefix-20k" "backbone stand-in (quick)"
        (Policy_gen.prefix_table (Prng.split rng)
           { Policy_gen.default_prefixes with prefixes = 800 });
    ]

(* An ACL of [rules] rules in [chains] chains, drawn from a split of
   [rng]. *)
let acl rng ~rules ~chains =
  Policy_gen.acl (Prng.split rng) { Policy_gen.default_acl with rules; chains }

(* [n] probe headers of [policy], drawn from a split of [rng]. *)
let probes rng policy n = Array.to_list (Traffic.headers_for (Prng.split rng) policy n)

(* A small total policy for the timing experiments: the saturation points
   depend on service rates, not on rule-set size, so a compact table keeps
   data-plane lookups cheap inside the event loop. *)
let timing_policy ~seed =
  Policy_gen.acl (Prng.create seed)
    { Policy_gen.default_acl with rules = 120; chains = 10; chain_depth = 4; egresses = 4 }

(* splitmix64 finaliser: uniform and uncorrelated in every bit, so header
   fields are independent — correlated fields would skew traffic across
   the flowspace partitions. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Distinct single-packet flows with Poisson arrivals at [rate] — the
   paper's worst-case flow-setup workload (every flow misses): at most
   [count] of them, none starting after [duration].  Flow [i]'s five-tuple
   (the schema of every generated ACL) is splitmix-mixed from id
   [offset + i], so disjoint id ranges draw independent headers. *)
let distinct_flows ~rng ~rate ~duration ~ingresses ~offset ~count =
  let ingresses = Array.of_list ingresses in
  let schema = Schema.acl_5tuple in
  let arity = Schema.arity schema in
  let rec gen acc now flow_id =
    if flow_id >= count then List.rev acc
    else
      let now = now +. Prng.exponential rng ~rate in
      if now > duration then List.rev acc
      else
        let header =
          Header.make schema
            (Array.init arity (fun f ->
                 mix64 (Int64.of_int (((offset + flow_id) * arity) + f + 1))))
        in
        let flow =
          {
            Traffic.flow_id;
            header;
            ingress = ingresses.(flow_id mod Array.length ingresses);
            start = now;
            packets = 1;
            interval = 1e-4;
          }
        in
        gen (flow :: acc) now (flow_id + 1)
  in
  gen [] 0. 0

(* The scenarios' fixed-step clock: [tick now] at [from], [from + step],
   ... while [now <= until] (times accumulate by addition, as replays
   expect), then the action of each [timed] time the step crossed. *)
let drive ~step ~from ~until ~timed tick =
  let t = ref from in
  while !t <= until do
    let now = !t in
    tick now;
    List.iter (fun (at, action) -> if now -. step < at && at <= now then action now) timed;
    t := !t +. step
  done

(* A flash crowd confined to one flowspace region: [profile]'s flows from
   the first partition's table, ids +1,000,000, starting at [at], stably
   merged into [background] by start time. *)
let flash_crowd d ~seed ~at profile background =
  let hot = List.hd (Deployment.partitioner d).Partitioner.partitions in
  Traffic.generate (Prng.create (seed + 2)) hot.Partitioner.table profile
  |> List.map (fun (f : Traffic.flow) ->
         { f with flow_id = f.flow_id + 1_000_000; start = f.start +. at })
  |> List.append background
  |> List.stable_sort (fun (a : Traffic.flow) b -> Float.compare a.start b.start)

(* Fraction of the offered flows a run dropped. *)
let drop_rate (r : Flowsim.result) =
  if r.offered_flows = 0 then 0.
  else float_of_int r.dropped_flows /. float_of_int r.offered_flows

(* Nesting in a destination-prefix table, by hashing truncations
   (O(n * width)) where the generic analysis is O(n^2): for each rule
   whose dst_ip field satisfies [keep], how many kept rules are its
   proper ancestors.  Chain depth is one more than the most; overlapping
   pairs are nested pairs, so their count is the sum. *)
let prefix_ancestors ~keep classifier =
  let dst = Schema.index (Classifier.schema classifier) "dst_ip" in
  let prefixes =
    List.filter_map
      (fun (r : Rule.t) ->
        let f = Pred.field r.pred dst in
        if keep f then Some (Ternary.value f, Ternary.specified_bits f) else None)
      (Classifier.rules classifier)
  in
  let table = Hashtbl.create 1024 in
  List.iter (fun p -> Hashtbl.replace table p ()) prefixes;
  let truncate v l = if l = 0 then 0L else Int64.logand v (Int64.shift_left Int64.minus_one (32 - l)) in
  List.map
    (fun (v, l) ->
      let ancestors = ref 0 in
      for l' = 0 to l - 1 do
        if Hashtbl.mem table (truncate v l', l') then incr ancestors
      done;
      !ancestors)
    prefixes

let is_prefix_set label = String.length label >= 6 && String.sub label 0 6 = "prefix"

(* ------------------------------------------------------------------ *)

(* Table 1: characteristics of the evaluation rule sets; depth is the
   longest priority-dependency chain. *)
module T1 = struct
  type row = {
    label : string;
    description : string;
    rules : int;
    fields : int;
    depth : int;
    overlaps : int;
  }

  let run ?(seed = 42) ?(quick = false) () =
    List.map
      (fun (s : Policy_gen.named) ->
        let c = s.classifier in
        let depth =
          if is_prefix_set s.label then
            (* chains of range-expressible prefixes only *)
            List.fold_left (fun acc n -> max acc (n + 1)) 0
              (prefix_ancestors ~keep:(fun f -> Option.is_some (Range.of_ternary f)) c)
          else if Classifier.length c > 2500 then
            (* exact dependency depth is O(n^2) subtractions; the overlap
               chain is a tight upper bound on these generated ACLs *)
            Classifier.overlap_depth c
          else Classifier.dependency_depth c
        in
        let overlaps =
          if is_prefix_set s.label then
            List.fold_left ( + ) 0 (prefix_ancestors ~keep:(fun _ -> true) c)
          else Classifier.overlap_count c
        in
        {
          label = s.label;
          description = s.description;
          rules = Classifier.length c;
          fields = Schema.arity (Classifier.schema c);
          depth;
          overlaps;
        })
      (eval_sets ~seed ~quick)

  let check rows =
    let depth label =
      List.fold_left (fun acc r -> if r.label = label then r.depth else acc) 0 rows
    in
    unmet
      ((List.length rows = 5, "expected five rule sets")
       :: (depth "acl-deep" > depth "acl-small", "acl-deep is not deeper than acl-small")
       :: List.concat_map
            (fun r ->
              [ (r.rules > 0, r.label ^ ": no rules"); (r.depth >= 1, r.label ^ ": depth 0") ])
            rows)

  let render rows =
    Table.section ~title:"Table 1: evaluation rule sets"
      ~header:[ "rule set"; "rules"; "fields"; "dep. depth"; "overlap pairs"; "stands in for" ]
      (List.map
         (fun r ->
           [
             r.label;
             string_of_int r.rules;
             string_of_int r.fields;
             string_of_int r.depth;
             (if r.overlaps < 0 then "-" else string_of_int r.overlaps);
             r.description;
           ])
         rows)
end

(* ------------------------------------------------------------------ *)

let throughput_topology = Topology.star 6 ~latency:100e-6 ()
(* hub 0 = authority candidate pool is spokes 1..4; ingresses at hub+spoke 5 *)

(* The flow-setup experiments' deployment: volume-balanced partitions,
   1 s cache idle timeout. *)
let setup_config =
  { Deployment.default_config with k = 8; cache_idle_timeout = Some 1.0; balance = `Volume }

let throughput_deployment ~seed ~authorities () =
  (* Worst case of the paper's throughput runs: every flow must miss, so
     ingress caches are disabled (a spliced wildcard entry would otherwise
     absorb most "distinct" headers and flatter DIFANE). *)
  let config =
    { setup_config with k = max 8 (2 * List.length authorities); cache_capacity = 0 }
  in
  Deployment.build ~config ~policy:(timing_policy ~seed) ~topology:throughput_topology
    ~authority_ids:authorities ()

let nox_baseline ~policy ~topology () =
  let d = Deployment.build ~policy ~topology ~authority_ids:[ 1 ] () in
  Deployment.mark_unreachable d 1;
  d

(* Fig. "Throughput of flow setup": DIFANE (one authority switch) vs NOX
   as the offered rate of single-packet flows sweeps past both
   systems' capacities. *)
module F_tput = struct
  type point = { offered_rate : float; difane : Flowsim.result; nox : Flowsim.result }

  let rates ~quick =
    if quick then [ 10e3; 50e3; 200e3 ]
    else [ 10e3; 20e3; 50e3; 100e3; 200e3; 400e3; 800e3; 1200e3 ]

  let duration ~quick = if quick then 0.02 else 0.1

  let run ?(seed = 42) ?(quick = false) () =
    let policy = timing_policy ~seed in
    let duration = duration ~quick in
    List.map
      (fun rate ->
        let flows =
          distinct_flows ~rng:(Prng.create (seed + int_of_float rate)) ~rate
            ~duration ~ingresses:[ 5 ] ~offset:0 ~count:max_int
        in
        let difane =
          Flowsim.run Flowsim.Config.default
            (throughput_deployment ~seed ~authorities:[ 1 ] ())
            flows
        in
        let nox =
          Flowsim.run Flowsim.Config.default
            (nox_baseline ~policy ~topology:throughput_topology ())
            flows
        in
        { offered_rate = rate; difane; nox })
      (rates ~quick)

  (* At the top rate DIFANE out-scales NOX, which saturates near its
     controller's capacity. *)
  let check points =
    match List.rev points with
    | [] -> [ "no points" ]
    | top :: _ ->
        let difane = top.difane.Flowsim.setup_throughput
        and nox = top.nox.Flowsim.setup_throughput in
        let capacity = 1. /. Flowsim.default_timing.Flowsim.controller_service in
        unmet
          [
            ( difane >= 3. *. nox,
              Printf.sprintf "DIFANE %.0f flows/s under 3x NOX's %.0f at the top rate" difane
                nox );
            ( nox < 1.2 *. capacity,
              Printf.sprintf "NOX %.0f flows/s not under 1.2x its controller's %.0f" nox
                capacity );
          ]

  let render points =
    Table.section ~title:"Fig: flow-setup throughput, DIFANE (1 authority) vs NOX"
      ~header:
        [ "offered (flows/s)"; "DIFANE tput"; "DIFANE drop%"; "NOX tput"; "NOX drop%" ]
      (List.map
         (fun p ->
           [
             Table.fmt_si p.offered_rate;
             Table.fmt_si p.difane.Flowsim.setup_throughput;
             Table.fmt_pct (drop_rate p.difane);
             Table.fmt_si p.nox.Flowsim.setup_throughput;
             Table.fmt_pct (drop_rate p.nox);
           ])
         points)
end

(* Fig. "Throughput with multiple authority switches": peak setup
   throughput as authority switches scale 1 -> 4. *)
module F_scale = struct
  type point = { authority_switches : int; throughput : float; per_switch : float }

  let run ?(seed = 42) ?(quick = false) () =
    let timing = Flowsim.default_timing in
    let capacity_per_switch = 1. /. timing.Flowsim.authority_service in
    let duration = if quick then 0.01 else 0.05 in
    List.map
      (fun n_auth ->
        (* offer ~1.5x the aggregate capacity so every configuration
           saturates *)
        let rate = 1.5 *. capacity_per_switch *. float_of_int n_auth in
        let flows =
          distinct_flows ~rng:(Prng.create (seed + n_auth)) ~rate ~duration
            ~ingresses:[ 5 ] ~offset:0 ~count:max_int
        in
        let authorities = List.init n_auth (fun i -> i + 1) in
        let d = throughput_deployment ~seed ~authorities () in
        let r = Flowsim.run { Flowsim.Config.default with timing } d flows in
        {
          authority_switches = n_auth;
          throughput = r.Flowsim.setup_throughput;
          per_switch = r.Flowsim.setup_throughput /. float_of_int n_auth;
        })
      (if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ])

  (* Near-linear: k switches set up within 20% of k times one switch. *)
  let check = function
    | [] -> [ "no points" ]
    | one :: _ as points ->
        List.concat_map
          (fun p ->
            let expected = one.throughput *. float_of_int p.authority_switches in
            unmet
              [
                ( Float.abs (p.throughput -. expected) /. expected <= 0.2,
                  Printf.sprintf "%d switches: %.0f flows/s, over 20%% off %.0f"
                    p.authority_switches p.throughput expected );
              ])
          points

  let render points =
    Table.section ~title:"Fig: DIFANE throughput vs number of authority switches"
      ~header:[ "authority switches"; "throughput (flows/s)"; "per switch" ]
      (List.map
         (fun p ->
           [
             string_of_int p.authority_switches;
             Table.fmt_si p.throughput;
             Table.fmt_si p.per_switch;
           ])
         points)
end

(* Fig. "First-packet delay CDF": DIFANE's extra data-plane hop vs
   NOX's controller round trip, at low load. *)
module F_delay = struct
  type t = {
    difane_delays : Cdf.t;
    nox_delays : Cdf.t;
    difane_median : float;
    ratio : float;  (* NOX median / DIFANE median *)
  }

  let run ?(seed = 42) ?(quick = false) () =
    let policy = timing_policy ~seed in
    let n_flows_rate = 5e3 (* far below every capacity: pure latency *) in
    let duration = if quick then 0.1 else 1.0 in
    (* a line gives a spread of ingress->authority->egress distances, so
       the CDF has the shape the paper plots rather than a step *)
    let topology = Topology.line 8 ~latency:100e-6 () in
    let ingresses = [ 0; 2; 4; 6; 7 ] in
    let flows =
      distinct_flows ~rng:(Prng.create (seed + 1)) ~rate:n_flows_rate ~duration
        ~ingresses ~offset:0 ~count:max_int
    in
    let config =
      { Deployment.default_config with k = 8; cache_capacity = 0; balance = `Volume }
    in
    let d = Deployment.build ~config ~policy ~topology ~authority_ids:[ 1; 5 ] () in
    let rd = Flowsim.run Flowsim.Config.default d flows in
    let rn = Flowsim.run Flowsim.Config.default (nox_baseline ~policy ~topology ()) flows in
    let difane_delays = Cdf.of_array rd.Flowsim.miss_delays in
    let nox_delays = Cdf.of_array rn.Flowsim.miss_delays in
    let difane_median = Cdf.inverse difane_delays 0.5 in
    { difane_delays; nox_delays; difane_median;
      ratio = Cdf.inverse nox_delays 0.5 /. difane_median }

  let check t =
    unmet
      [
        (t.ratio > 10., Printf.sprintf "NOX/DIFANE median ratio %.1f, not over 10" t.ratio);
        ( t.difane_median < 1e-3,
          Printf.sprintf "DIFANE median %.6f s, not under 1 ms" t.difane_median );
      ]

  let render t =
    Table.section ~title:"Fig: first-packet delay CDF (seconds)"
      ~header:[ "percentile"; "DIFANE"; "NOX" ]
      (List.map
         (fun q ->
           [
             Printf.sprintf "p%.0f" (100. *. q);
             Printf.sprintf "%.6f" (Cdf.inverse t.difane_delays q);
             Printf.sprintf "%.6f" (Cdf.inverse t.nox_delays q);
           ])
         [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ])
    ^ Printf.sprintf "median ratio (NOX / DIFANE): %.1fx\n" t.ratio
end

(* ------------------------------------------------------------------ *)

(* Fig. "TCAM entries vs number of authority switches": partitioning
   overhead for each Table-1 rule set. *)
module F_part = struct
  type point = {
    label : string;
    k : int;
    max_entries : int;
    total_entries : int;
    duplication : float;
  }

  let ks ~quick = if quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

  let run ?(seed = 42) ?(quick = false) () =
    let sets = eval_sets ~seed ~quick in
    List.concat_map
      (fun (s : Policy_gen.named) ->
        List.map
          (fun k ->
            let r = Partitioner.compute s.classifier ~k in
            {
              label = s.label;
              k;
              max_entries = r.Partitioner.max_entries;
              total_entries = r.Partitioner.total_entries;
              duplication = r.Partitioner.duplication;
            })
          (ks ~quick))
      sets

  (* Per-switch tables shrink as k grows, and duplication stays bounded. *)
  let check points =
    List.concat_map
      (fun label ->
        let ps = List.filter (fun p -> p.label = label) points in
        match List.sort (fun a b -> Int.compare a.k b.k) ps with
        | [] -> [ label ^ ": no points" ]
        | first :: _ as ps ->
            let last = List.nth ps (List.length ps - 1) in
            List.map (Printf.sprintf "%s: %s" label)
              (unmet
                 [
                   ( last.max_entries <= first.max_entries,
                     Printf.sprintf "max entries grew from %d at k=%d to %d at k=%d"
                       first.max_entries first.k last.max_entries last.k );
                   ( last.duplication < 2.5,
                     Printf.sprintf "duplication %.2fx at k=%d, not under 2.5x" last.duplication
                       last.k );
                 ]))
      [ "acl-small"; "prefix-5k" ]

  let render points =
    Table.section ~title:"Fig: TCAM entries vs number of partitions"
      ~header:[ "rule set"; "k"; "max entries/switch"; "total entries"; "duplication" ]
      (List.map
         (fun p ->
           [
             p.label;
             string_of_int p.k;
             string_of_int p.max_entries;
             string_of_int p.total_entries;
             Printf.sprintf "%.2fx" p.duplication;
           ])
         points)
end

(* Fig. "Cache miss rate vs cache size": spliced wildcard caching vs
   microflow caching under Zipf traffic, both through the shipped
   ingress cache. *)
module F_miss = struct
  type point = {
    alpha : float;
    cache_size : int;
    wildcard_miss_rate : float;
    wildcard_opt_miss_rate : float;  (** Belady floor for the same keys *)
    microflow_miss_rate : float;
  }

  (* The stream enters at switch 0 of a 4-switch line whose authorities
     are 1 and 2; nothing expires, so only capacity evicts. *)
  let ingress_cache ~mode ~capacity policy =
    let config =
      { Deployment.default_config with cache_capacity = capacity; cache_idle_timeout = None;
        cache_hard_timeout = None; cache_mode = mode }
    in
    let d =
      Deployment.build ~config ~policy ~topology:(Topology.line 4 ()) ~authority_ids:[ 1; 2 ] ()
    in
    (d, Switch.cache (Deployment.switch d 0))

  let inject d h = Deployment.inject d ~now:0. ~ingress:0 h

  let misses ~mode ~capacity policy stream =
    let d, _ = ingress_cache ~mode ~capacity policy in
    Array.fold_left (fun n h -> if (inject d h).Deployment.cache_hit then n else n + 1) 0
      stream

  (* Each packet's key is the spliced piece that decides it: the id of
     its ingress entry in a cache with room for every piece (each
     distinct header misses at most once).  Nothing is evicted, so a hit
     changes nothing that matters and only misses are injected. *)
  let pieces policy stream =
    let capacity = List.length (List.sort_uniq Header.compare (Array.to_list stream)) in
    let d, cache = ingress_cache ~mode:`Spliced ~capacity policy in
    Array.map
      (fun h ->
        match Tcam.peek cache h with
        | Some r -> r.Rule.id
        | None -> (Option.get (inject d h).Deployment.installed).Rule.id)
      stream

  (* Belady's OPT: on a miss with the cache full, evict the resident key
     whose next use lies furthest ahead. *)
  let opt_misses ~cache_size keys =
    let next_use = Array.make (Array.length keys) max_int and seen = Hashtbl.create 1024 in
    for i = Array.length keys - 1 downto 0 do
      Option.iter (fun j -> next_use.(i) <- j) (Hashtbl.find_opt seen keys.(i));
      Hashtbl.replace seen keys.(i) i
    done;
    let resident = Hashtbl.create (2 * cache_size) and misses = ref 0 in
    Array.iteri
      (fun i key ->
        if not (Hashtbl.mem resident key) then begin
          incr misses;
          if Hashtbl.length resident >= cache_size then
            Hashtbl.remove resident
              (fst
                 (Hashtbl.fold
                    (fun k nu (bk, bnu) -> if nu > bnu then (k, nu) else (bk, bnu))
                    resident (-1, min_int)))
        end;
        Hashtbl.replace resident key next_use.(i))
      keys;
    !misses

  let sweep policy ~alpha ~cache_sizes stream =
    let keys = pieces policy stream in
    let n = Array.length stream in
    let rate misses = if n = 0 then 0. else float_of_int misses /. float_of_int n in
    List.map
      (fun size ->
        {
          alpha;
          cache_size = size;
          wildcard_miss_rate = rate (misses ~mode:`Spliced ~capacity:size policy stream);
          wildcard_opt_miss_rate = rate (opt_misses ~cache_size:size keys);
          microflow_miss_rate = rate (misses ~mode:`Microflow ~capacity:size policy stream);
        })
      cache_sizes

  let run ?(seed = 42) ?(quick = false) () =
    let rng = Prng.create seed in
    let policy =
      Policy_gen.acl (Prng.split rng)
        (if quick then { Policy_gen.default_acl with rules = 150; chains = 15 }
         else { Policy_gen.default_acl with rules = 2000; chains = 70; chain_depth = 6 })
    in
    let alphas = if quick then [ 1.0 ] else [ 0.8; 1.0; 1.2 ] in
    let sizes =
      if quick then [ 8; 32; 128 ] else [ 20; 50; 100; 200; 400; 800; 1600 ]
    in
    List.concat_map
      (fun alpha ->
        let profile =
          {
            Traffic.default with
            flows = (if quick then 2_000 else 50_000);
            distinct_headers = (if quick then 300 else 5_000);
            alpha;
            packets_per_flow_mean = 3.0;
          }
        in
        let flows = Traffic.generate (Prng.split rng) policy profile in
        sweep policy ~alpha ~cache_sizes:sizes (Traffic.packet_stream flows))
      alphas

  let check points =
    let top = List.fold_left (fun acc p -> max acc p.cache_size) 0 points in
    List.concat_map
      (fun p ->
        List.map
          (Printf.sprintf "alpha %.1f, %d entries: %s" p.alpha p.cache_size)
          (unmet
             [
               (p.wildcard_miss_rate <= p.microflow_miss_rate, "wildcard missed more");
               (p.wildcard_opt_miss_rate <= p.wildcard_miss_rate, "OPT missed more than LRU");
               ( p.cache_size < top || p.microflow_miss_rate > 1.5 *. p.wildcard_miss_rate,
                 "microflow missed under 1.5x wildcard at the largest cache" );
             ]))
      points

  let render points =
    Table.section ~title:"Fig: cache miss rate vs cache size (Zipf traffic)"
      ~header:
        [ "alpha"; "cache entries"; "wildcard (DIFANE) miss"; "wildcard OPT floor";
          "microflow miss" ]
      (List.map
         (fun p ->
           [
             Printf.sprintf "%.1f" p.alpha;
             string_of_int p.cache_size;
             Table.fmt_pct p.wildcard_miss_rate;
             Table.fmt_pct p.wildcard_opt_miss_rate;
             Table.fmt_pct p.microflow_miss_rate;
           ])
         points)
end

(* ------------------------------------------------------------------ *)

(* Fig. "Stretch CDF": the detour of miss packets through their
   authority switch under each placement strategy. *)
module F_stretch = struct
  type series = { placement : string; stretch : Cdf.t; mean : float; p95 : float }

  let pick_placement topo rng ~k = function
    | `Random -> Placement.random ~rand:(fun () -> Prng.float rng) topo ~k
    | `Degree -> Placement.by_degree topo ~k
    | `Centroid -> Placement.centroid topo ~k
    | `K_median -> Placement.k_median topo ~k

  let run ?(seed = 42) ?(quick = false) () =
    let rng = Prng.create seed in
    let topo_rng = Prng.split rng in
    let topo =
      Topology.waxman ~rand:(fun () -> Prng.float topo_rng)
        ~nodes:(if quick then 20 else 50) ()
    in
    let policy =
      Policy_gen.prefix_table (Prng.split rng)
        { Policy_gen.default_prefixes with prefixes = (if quick then 200 else 2000) }
    in
    let n_probes = if quick then 500 else 5000 in
    List.map
      (fun (name, strategy, tunnel_to, replication) ->
        let placement_rng = Prng.split rng in
        let authorities = pick_placement topo placement_rng ~k:4 strategy in
        let config =
          {
            Deployment.default_config with
            cache_capacity = 0 (* every packet misses *);
            tunnel_to;
            replication;
          }
        in
        let d = Deployment.build ~config ~policy ~topology:topo ~authority_ids:authorities () in
        let probe_rng = Prng.split rng in
        let headers =
          Traffic.headers_for (Prng.split rng) policy (min n_probes 1000)
        in
        let stretches = ref [] in
        for i = 0 to n_probes - 1 do
          let ingress = Prng.int probe_rng (Topology.nodes topo) in
          let h = headers.(i mod Array.length headers) in
          let o = Deployment.inject d ~now:0. ~ingress h in
          match (o.Deployment.authority, Action.egress o.Deployment.action) with
          | Some via, Some egress when ingress <> egress ->
              stretches := Topology.stretch topo ~src:ingress ~via ~dst:egress :: !stretches
          | _ -> ()
        done;
        let cdf = Cdf.of_list !stretches in
        let s = Summary.of_list !stretches in
        { placement = name; stretch = cdf; mean = s.Summary.mean; p95 = s.Summary.p95 })
      [
        ("random", `Random, `Primary, 1);
        ("top-degree", `Degree, `Primary, 1);
        ("centroid", `Centroid, `Primary, 1);
        ("k-median", `K_median, `Primary, 1);
        (* with every partition replicated on every authority and misses
           tunnelled to the nearest replica, spread-out placement pays *)
        ("k-median+nearest", `K_median, `Nearest_replica, 4);
      ]

  (* Informed placement beats random, tunnelling to the nearest replica
     beats every primary-only placement, and no detour is shorter than
     the direct path. *)
  let check series =
    let mean name =
      List.fold_left (fun acc s -> if s.placement = name then s.mean else acc) Float.nan series
    in
    unmet
      ((List.length series = 5, "expected five placements")
       :: (mean "centroid" <= mean "random", "centroid's mean stretch over random's")
       :: ( mean "k-median+nearest" <= mean "centroid" +. 1e-9,
            "k-median+nearest's mean stretch over centroid's" )
       :: List.map
            (fun s ->
              (Cdf.inverse s.stretch 0.01 >= 1.0 -. 1e-9, s.placement ^ ": stretch below 1"))
            series)

  let render series =
    Table.section ~title:"Fig: stretch of miss packets by authority placement"
      ~header:[ "placement"; "p50"; "mean"; "p95"; "max" ]
      (List.map
         (fun s ->
           [
             s.placement;
             Printf.sprintf "%.2f" (Cdf.inverse s.stretch 0.5);
             Printf.sprintf "%.2f" s.mean;
             Printf.sprintf "%.2f" s.p95;
             Printf.sprintf "%.2f" (Cdf.inverse s.stretch 1.0);
           ])
         series)
end

(* ------------------------------------------------------------------ *)

(* "Network dynamics": after a policy change, how long stale cached
   decisions linger as a function of the cache hard timeout (lazy
   expiry), and that strict flushing and targeted invalidation remove
   them. *)
module F_dyn = struct
  type mode = Lazy_expiry | Strict_flush | Targeted

  type point = {
    timeout : float;  (** cache hard timeout (lazy mode's staleness bound) *)
    mode : mode;
    stale_packets : int;
    stale_fraction : float;
    stale_window : float;
    invalidated : int;  (** cache entries removed by the update *)
    preserved : int;  (** cache entries that survived it *)
  }

  (* Flip forwarding decisions (all rules, or a selected subset) so stale
     cache entries are observable. *)
  let flipped ?(select = fun _ -> true) policy =
    let rules =
      List.map
        (fun (r : Rule.t) ->
          if not (select r.Rule.id) then r
          else
            let action' =
              match r.action with
              | Action.Forward p -> Action.Forward (p + 1)
              | Action.Count_and_forward p -> Action.Count_and_forward (p + 1)
              | Action.Drop -> Action.Forward 0
              | a -> a
            in
            Rule.with_action r action')
        (Classifier.rules policy)
    in
    Classifier.of_table_order (Classifier.schema policy) rules

  let run_one ~seed ~quick ~timeout ~mode =
    let rng = Prng.create seed in
    let policy = acl rng ~rules:(if quick then 60 else 200) ~chains:10 in
    let topo = Topology.line 6 () in
    let config =
      {
        Deployment.default_config with
        cache_capacity = 4096;
        cache_idle_timeout = None;
        cache_hard_timeout = Some timeout;
      }
    in
    let d = ref (Deployment.build ~config ~policy ~topology:topo ~authority_ids:[ 1; 2 ] ()) in
    let profile =
      {
        Traffic.default with
        flows = (if quick then 2_000 else 20_000);
        rate = 5_000.;
        distinct_headers = 200;
        alpha = 1.0;
        packets_per_flow_mean = 2.0;
      }
    in
    let flows = Traffic.generate (Prng.split rng) policy profile in
    let stream =
      List.concat_map
        (fun (f : Traffic.flow) ->
          List.init f.packets (fun i ->
              (f.start +. (float_of_int i *. f.interval), f.header)))
        flows
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    in
    let t_update =
      (* halfway through the packet stream, so both phases are populated *)
      match List.rev stream with (t_end, _) :: _ -> t_end /. 2. | [] -> 0.
    in
    (* targeted mode updates a quarter of the rules — the realistic
       incremental change where selective invalidation pays *)
    let new_policy =
      match mode with
      | Targeted -> flipped ~select:(fun id -> id mod 4 = 0) policy
      | Lazy_expiry | Strict_flush -> flipped policy
    in
    let updated = ref false in
    let invalidated = ref 0 and preserved = ref 0 in
    let stale = ref 0 and post = ref 0 in
    let last_stale = ref 0. in
    let last_expiry = ref 0. in
    List.iter
      (fun (t, h) ->
        if (not !updated) && t >= t_update then begin
          d :=
            Deployment.update_policy
              ~flush:(mode = Strict_flush)
              !d ~now:t new_policy;
          (if mode = Targeted then begin
             let changed = Hashtbl.create 64 in
             List.iter
               (fun id -> Hashtbl.replace changed id ())
               (Deployment.last_update !d).Deployment.changed;
             invalidated := Deployment.invalidate_origins !d ~origins:(Hashtbl.mem changed);
             preserved := Deployment.total_cache_entries !d
           end);
          updated := true
        end;
        (* idle expiry sweep, as a switch's slow path would run it *)
        if t -. !last_expiry > timeout /. 8. then begin
          ignore (Deployment.expire_caches !d ~now:t);
          last_expiry := t
        end;
        let o = Deployment.inject !d ~now:t ~ingress:0 h in
        if !updated then begin
          incr post;
          let expected = Option.value ~default:Action.Drop (Classifier.action new_policy h) in
          if not (Action.equal o.Deployment.action expected) then begin
            incr stale;
            if t -. t_update > !last_stale then last_stale := t -. t_update
          end
        end)
      stream;
    {
      timeout;
      mode;
      stale_packets = !stale;
      stale_fraction =
        (if !post = 0 then 0. else float_of_int !stale /. float_of_int !post);
      stale_window = !last_stale;
      invalidated = !invalidated;
      preserved = !preserved;
    }

  let run ?(seed = 42) ?(quick = false) () =
    let timeouts = if quick then [ 0.1; 0.4 ] else [ 0.25; 0.5; 1.0; 2.0; 5.0 ] in
    List.map (fun timeout -> run_one ~seed ~quick ~timeout ~mode:Lazy_expiry) timeouts
    @ [
        run_one ~seed ~quick ~timeout:1.0 ~mode:Targeted;
        run_one ~seed ~quick ~timeout:1.0 ~mode:Strict_flush;
      ]

  let mode_name = function
    | Lazy_expiry -> "lazy expiry"
    | Strict_flush -> "strict flush"
    | Targeted -> "targeted invalidation"

  (* Strict and targeted updates serve no stale packet; lazy expiry's
     staleness is bounded by the hard timeout plus one sweep period. *)
  let check points =
    let exact mode =
      match List.find_opt (fun p -> p.mode = mode) points with
      | None -> [ "no " ^ mode_name mode ^ " run" ]
      | Some p ->
          unmet
            [
              ( p.stale_packets = 0,
                Printf.sprintf "%s served %d stale packets" (mode_name mode) p.stale_packets );
            ]
    in
    exact Strict_flush @ exact Targeted
    @ List.concat_map
        (fun p ->
          let bound = p.timeout +. (p.timeout /. 4.) +. 1e-6 in
          unmet
            [
              ( p.mode <> Lazy_expiry || p.stale_window <= bound,
                Printf.sprintf "lazy expiry at %.2f s: stale for %.2f s, over 1.25x the timeout"
                  p.timeout p.stale_window );
            ])
        points

  let render points =
    Table.section ~title:"Fig: policy-update consistency vs cache timeout"
      ~header:
        [ "hard timeout (s)"; "mode"; "stale packets"; "stale %"; "stale window (s)";
          "cache invalidated/kept" ]
      (List.map
         (fun p ->
           [
             Printf.sprintf "%.2f" p.timeout;
             mode_name p.mode;
             string_of_int p.stale_packets;
             Table.fmt_pct p.stale_fraction;
             Printf.sprintf "%.2f" p.stale_window;
             (match p.mode with
             | Targeted -> Printf.sprintf "%d/%d" p.invalidated p.preserved
             | Lazy_expiry | Strict_flush -> "-");
           ])
         points)
end

(* ------------------------------------------------------------------ *)

(* Ablation: the best-cut split heuristic vs always cutting one fixed
   dimension (an informed choice, src_ip, and a poor one, proto). *)
module A_cut = struct
  type point = {
    k : int;
    best_max : int;
    best_total : int;
    src_max : int;  (** always cutting src_ip — an informed fixed choice *)
    src_total : int;
    proto_max : int;  (** always cutting proto — a poor fixed choice *)
    proto_total : int;
  }

  let run ?(seed = 42) ?(quick = false) () =
    let policy =
      Policy_gen.acl (Prng.create seed)
        { Policy_gen.default_acl with rules = (if quick then 150 else 1500); chains = 50 }
    in
    let proto_dim = Schema.index (Classifier.schema policy) "proto" in
    List.map
      (fun k ->
        let best = Partitioner.compute ~heuristic:Partitioner.Best_cut policy ~k in
        let src = Partitioner.compute ~heuristic:(Partitioner.Fixed_dimension 0) policy ~k in
        let proto =
          Partitioner.compute ~heuristic:(Partitioner.Fixed_dimension proto_dim) policy ~k
        in
        {
          k;
          best_max = best.Partitioner.max_entries;
          best_total = best.Partitioner.total_entries;
          src_max = src.Partitioner.max_entries;
          src_total = src.Partitioner.total_entries;
          proto_max = proto.Partitioner.max_entries;
          proto_total = proto.Partitioner.total_entries;
        })
      (if quick then [ 4; 16 ] else [ 2; 4; 8; 16; 32; 64 ])

  (* Best-cut never loses to the poor fixed dimension.  It does not
     always beat the informed one: src-only wins at some k. *)
  let check points =
    List.concat_map
      (fun p ->
        unmet
          [
            ( p.best_max <= p.proto_max && p.best_total <= p.proto_total,
              Printf.sprintf "k=%d: best-cut %d max/%d total, over proto-only's %d/%d" p.k
                p.best_max p.best_total p.proto_max p.proto_total );
          ])
      points

  let render points =
    Table.section ~title:"Ablation: best-cut heuristic vs fixed-dimension cuts"
      ~header:
        [ "k"; "best max"; "best total"; "src-only max"; "src-only total";
          "proto-only max"; "proto-only total" ]
      (List.map
         (fun p ->
           [
             string_of_int p.k;
             string_of_int p.best_max;
             string_of_int p.best_total;
             string_of_int p.src_max;
             string_of_int p.src_total;
             string_of_int p.proto_max;
             string_of_int p.proto_total;
           ])
         points)
end

(* Ablation: spliced cache cost vs CacheFlow-style dependent-set cost,
   per cached rule, on a deep-chain ACL. *)
module A_splice = struct
  type t = {
    rules_sampled : int;
    splice_mean : float;
    splice_p95 : float;
    dependent_mean : float;
    dependent_p95 : float;
    worst_dependent : int;
    worst_splice : int;
  }

  let run ?(seed = 42) ?(quick = false) () =
    let policy =
      Policy_gen.acl (Prng.create seed)
        {
          Policy_gen.default_acl with
          rules = (if quick then 120 else 600);
          chains = (if quick then 10 else 30);
          chain_depth = 10;
        }
    in
    let rules = Classifier.rules policy in
    (* Cost per cached flow: splicing installs 1 entry; dependent-set
       caching installs the rule's whole upward closure. *)
    let splice_costs =
      List.map (fun _ -> 1.) rules (* one spliced piece per cached flow *)
    in
    let dependent_costs =
      List.map (fun r -> float_of_int (Splice.dependent_set_cost policy r)) rules
    in
    (* Worst-case splice fragmentation: pieces a single rule can shatter
       into if every piece ends up cached.  Catch-all rules overlapped by
       hundreds of others fragment combinatorially — computing their exact
       piece count is both expensive and uninformative, so the statistic
       covers rules with a bounded blocker set (the table reports the
       coverage). *)
    let bounded_blockers (r : Rule.t) =
      let n =
        List.length
          (List.filter (fun r' -> Rule.beats r' r && Rule.overlaps r' r) rules)
      in
      n <= 12 && not (Pred.is_any r.pred)
    in
    let fragmentation =
      List.filter_map
        (fun r ->
          if bounded_blockers r then Some (List.length (Splice.pieces_of_rule policy r))
          else None)
        rules
    in
    let s1 = Summary.of_list splice_costs and s2 = Summary.of_list dependent_costs in
    {
      rules_sampled = List.length rules;
      splice_mean = s1.Summary.mean;
      splice_p95 = s1.Summary.p95;
      dependent_mean = s2.Summary.mean;
      dependent_p95 = s2.Summary.p95;
      worst_dependent = int_of_float (Summary.of_list dependent_costs).Summary.max;
      worst_splice = List.fold_left max 0 fragmentation;
    }

  let check t =
    unmet
      [
        ( Float.abs (t.splice_mean -. 1.) <= 1e-9,
          Printf.sprintf "splicing installs %.2f entries per flow, not 1" t.splice_mean );
        ( t.dependent_mean > 1.5,
          Printf.sprintf "dependent sets install %.2f entries per flow, not over 1.5"
            t.dependent_mean );
      ]

  let render t =
    Table.section ~title:"Ablation: cache cost per flow, splicing vs dependent-set"
      ~header:[ "metric"; "splice"; "dependent-set" ]
      [
        [ "mean entries per cached flow"; Printf.sprintf "%.2f" t.splice_mean;
          Printf.sprintf "%.2f" t.dependent_mean ];
        [ "p95"; Printf.sprintf "%.2f" t.splice_p95; Printf.sprintf "%.2f" t.dependent_p95 ];
        [ "worst case"; string_of_int t.worst_splice; string_of_int t.worst_dependent ];
      ]
    ^ Printf.sprintf "(%d rules; splice worst case counts total pieces of one rule)\n"
        t.rules_sampled
end

(* ------------------------------------------------------------------ *)

(* Supplementary: control-plane overhead — the proactive install, the
   steady-state keepalive/statistics load and a full policy update, in
   encoded control frames and bytes. *)
module E_ctrl = struct
  type row = { scenario : string; frames : int; bytes : int }

  let run ?(seed = 42) ?(quick = false) () =
    let rng = Prng.create seed in
    let policy = acl rng ~rules:(if quick then 200 else 2000) ~chains:40 in
    let topo_rng = Prng.split rng in
    let topology =
      Topology.campus ~rand:(fun () -> Prng.float topo_rng)
        ~edge_switches:(if quick then 6 else 12) ()
    in
    let config =
      { Deployment.default_config with k = 16; replication = 2; cache_capacity = 256 }
    in
    (* blank switches: every byte of configuration crosses the channels *)
    let d =
      Deployment.build ~install:false ~config ~policy ~topology ~authority_ids:[ 2; 3; 4 ] ()
    in
    let cp = Control_plane.create d in
    let drive ~from ~until ~step =
      drive ~step ~from ~until ~timed:[] (fun now -> Control_plane.tick cp ~now)
    in
    let measure scenario f =
      let f0 = Control_plane.control_frames cp and b0 = Control_plane.control_bytes cp in
      f ();
      { scenario; frames = Control_plane.control_frames cp - f0;
        bytes = Control_plane.control_bytes cp - b0 }
    in
    (* 1. initial installation, as really transmitted *)
    let install =
      measure "initial install (partition rules + authority tables)" (fun () ->
          Control_plane.push_deployment cp ~now:0.;
          drive ~from:0.001 ~until:0.2 ~step:0.01)
    in
    (* 2. steady state: echoes + stats for a simulated minute *)
    let horizon = if quick then 10. else 60. in
    let steady =
      measure (Printf.sprintf "steady state (%.0f s: echo 1 s, stats 5 s)" horizon) (fun () ->
          drive ~from:1. ~until:(1. +. horizon) ~step:0.25)
    in
    (* 3. one full policy change, retransmitted *)
    let policy2 = acl rng ~rules:(if quick then 200 else 2000) ~chains:40 in
    let update =
      measure "policy update (full reinstall)" (fun () ->
          let _d' = Deployment.update_policy (Control_plane.deployment cp)
                      ~now:(2. +. horizon) policy2 in
          (* update_policy recomputes in place on the same switches; the
             transmission cost is one full push of the new configuration *)
          Control_plane.push_deployment cp ~now:(2. +. horizon);
          drive ~from:(2.001 +. horizon) ~until:(2.2 +. horizon) ~step:0.01)
    in
    [ install; steady; update ]

  (* Every frame carries a 20-byte control header (wire format v2). *)
  let check rows =
    unmet
      ((List.length rows = 3, "expected three scenarios")
       :: List.concat_map
            (fun r ->
              [
                (r.frames > 0, r.scenario ^ ": no frames");
                ( r.bytes > r.frames,
                  Printf.sprintf "%s: %d bytes for %d frames of 20-byte headers" r.scenario
                    r.bytes r.frames );
              ])
            rows)

  let render rows =
    Table.section ~title:"Supplementary: control-plane overhead (encoded frames on the wire)"
      ~header:[ "scenario"; "frames"; "bytes" ]
      (List.map
         (fun r -> [ r.scenario; string_of_int r.frames; Table.fmt_si (float_of_int r.bytes) ])
         rows)
end

(* ------------------------------------------------------------------ *)

(* Supplementary: how the ingress cache budget shifts load off the
   authority switches, each capacity run twice on the identical
   workload: the seed install path and the aggregation pipeline. *)
module E_cache = struct
  type point = {
    cache_size : int;
    hit_rate : float;
    authority_load : float;
    evictions : int64;  (* LRU victims: capacity pressure *)
    expirations : int64;  (* idle/hard timeouts: cache churn *)
    installed_rules : int64;  (* TCAM writes over the run (seed path) *)
    agg_hit_rate : float;  (* same workload, aggregation on *)
    agg_installed_rules : int64;
    compression : float;
        (* 1 - aggregated installs / seed installs: the fraction of TCAM
           writes aggregation saved at this capacity *)
  }

  let run ?(seed = 42) ?(quick = false) () =
    let rng = Prng.create seed in
    let policy = acl rng ~rules:(if quick then 150 else 1000) ~chains:40 in
    let topology = Topology.line 4 () in
    let profile =
      {
        Traffic.default with
        flows = (if quick then 3_000 else 30_000);
        rate = 20_000.;
        alpha = 1.0;
        distinct_headers = (if quick then 400 else 3_000);
        packets_per_flow_mean = 3.0;
        ingresses = [ 0 ];
      }
    in
    let sizes = if quick then [ 4; 32; 256 ] else [ 8; 16; 32; 64; 128; 256; 512; 1024 ] in
    List.map
      (fun cache_size ->
        (* one run per arm at identical capacity and workload (same
           generator seed): the seed install path vs the aggregation
           pipeline (suppression + buddy merging + cover sets) *)
        let arm aggregation =
          let config =
            { Deployment.default_config with k = 8; cache_capacity = cache_size;
              aggregation }
          in
          let d = Deployment.build ~config ~policy ~topology ~authority_ids:[ 1; 2 ] () in
          let flows = Traffic.generate (Prng.create (seed + 1)) policy profile in
          let r = Flowsim.run Flowsim.Config.default d flows in
          let sum f =
            Array.fold_left
              (fun acc sw -> Int64.add acc (f (Tcam.stats (Switch.cache sw))))
              0L (Deployment.switches d)
          in
          (r, sum)
        in
        let r0, sum0 = arm Aggregate.default in
        let r1, sum1 = arm Aggregate.enabled_default in
        let packets = float_of_int (max 1 r0.Flowsim.delivered_packets) in
        let packets1 = float_of_int (max 1 r1.Flowsim.delivered_packets) in
        let installs = sum0 (fun (s : Tcam.stats) -> s.Tcam.inserts) in
        let agg_installs = sum1 (fun (s : Tcam.stats) -> s.Tcam.inserts) in
        {
          cache_size;
          hit_rate = float_of_int r0.Flowsim.cache_hit_packets /. packets;
          authority_load =
            (packets -. float_of_int r0.Flowsim.cache_hit_packets) /. packets;
          evictions = sum0 (fun (s : Tcam.stats) -> s.Tcam.evictions);
          expirations = sum0 (fun (s : Tcam.stats) -> s.Tcam.expirations);
          installed_rules = installs;
          agg_hit_rate = float_of_int r1.Flowsim.cache_hit_packets /. packets1;
          agg_installed_rules = agg_installs;
          compression =
            (if installs = 0L then 0.
             else 1. -. (Int64.to_float agg_installs /. Int64.to_float installs));
        })
      sizes

  (* Bigger caches absorb more traffic (within 2 points), and every
     packet is either a hit or authority load. *)
  let check points =
    let rec monotone = function
      | a :: (b :: _ as rest) ->
          unmet
            [
              ( a.hit_rate <= b.hit_rate +. 0.02,
                Printf.sprintf "hit rate fell from %.1f%% at %d entries to %.1f%% at %d"
                  (100. *. a.hit_rate) a.cache_size (100. *. b.hit_rate) b.cache_size );
            ]
          @ monotone rest
      | _ -> []
    in
    monotone (List.sort (fun a b -> Int.compare a.cache_size b.cache_size) points)
    @ List.concat_map
        (fun p ->
          unmet
            [
              ( Float.abs (p.hit_rate +. p.authority_load -. 1.) <= 1e-9,
                Printf.sprintf "%d entries: hit rate + authority load is not 1" p.cache_size );
            ])
        points

  let render points =
    Table.section
      ~title:
        "Supplementary: ingress cache size vs authority load (plain vs aggregated)"
      ~header:
        [ "cache entries"; "hit rate"; "agg hit rate"; "authority load"; "evictions";
          "expirations"; "installs"; "agg installs"; "compression" ]
      (List.map
         (fun p ->
           [
             string_of_int p.cache_size;
             Table.fmt_pct p.hit_rate;
             Table.fmt_pct p.agg_hit_rate;
             Table.fmt_pct p.authority_load;
             Int64.to_string p.evictions;
             Int64.to_string p.expirations;
             Int64.to_string p.installed_rules;
             Int64.to_string p.agg_installed_rules;
             Table.fmt_pct p.compression;
           ])
         points)
end

(* ------------------------------------------------------------------ *)

(* The fault sweeps' reliable-channel timers: the tight values the chaos
   scenarios have always run with. *)
let fault_cp_config =
  {
    Control_plane.default_config with
    echo_interval = 1.0;
    retx_timeout = 0.05;
    retx_backoff = 2.0;
    retx_limit = 8;
  }

(* The per-row invariants both fault sweeps gate on: every count in
   [zero] (give-ups first) must be zero and the final state must have
   recovered. *)
let fault_check ~loss ~zero ~recovered =
  let at msg = Printf.sprintf "%s at %s loss" msg (Table.fmt_pct loss) in
  List.filter_map
    (fun (n, what) -> if n > 0 then Some (at (Printf.sprintf "%d %s" n what)) else None)
    zero
  @ if recovered then [] else [ at "did not recover" ]

(* Both fault scenarios' data plane (on a 6-switch line): k = 8
   partitions, each on two authorities, and 128-entry caches. *)
let fault_dconfig =
  { Deployment.default_config with k = 8; replication = 2; cache_capacity = 128 }

(* A fault sweep: one seeded run of [scenario] per loss rate, each row
   with the trace its run left. *)
let loss_sweep ~quick scenario =
  List.map
    (fun loss -> scenario ~loss)
    (if quick then [ 0.0; 0.10 ] else [ 0.0; 0.05; 0.10; 0.20 ])

(* One batch of probe traffic: every cache flushed, then [probes] from
   ingress 0. *)
let inject_batch d probes ~now =
  Deployment.flush_caches d;
  List.iter (fun h -> ignore (Deployment.inject d ~now ~ingress:0 h)) probes

(* The end-of-run check: the exact oracle judges the state the run left;
   then [probes] walk it, a closing batch a traced replay records. *)
let settled d probes =
  let ok = Deployment.counterexample d = None in
  List.iter (fun h -> ignore (Deployment.inject d ~now:0. ~ingress:0 h)) probes;
  ok

(* Supplementary: the chaos sweep, frame loss rate vs recovery.  Each
   loss point replays one seeded scenario: two of three authority
   switches crash mid-run and later restart, probes run before, during
   and after, over control channels that drop, duplicate, corrupt and
   reorder frames.  Probes walk the untimed [Deployment.inject], so
   there is no queueing to configure: buffers are E_incast's subject. *)
module E_chaos = struct
  type row = {
    loss : float;
    dropped : int;
    corrupted : int;
    decode_errors : int;
    retransmissions : int;
    giveups : int;
    detect_time : float;
    converge_time : float;
    degraded : int;
    recovered : bool;
  }

  (* One chaos scenario: two of the three authority switches crash half a
     second apart (so some partitions lose every replica), the control
     channels drop/duplicate/corrupt/reorder frames at the given rate
     throughout, and both switches restart and get resynced.  Everything
     below is a pure function of [seed]. *)
  let crash_a = 2.0
  let crash_b = 2.5
  let restart_a = 6.0
  let restart_b = 7.0
  let horizon = 14.0

  let scenario ~cp_config ~seed ~quick ~loss =
    let rng = Prng.create seed in
    let policy = acl rng ~rules:(if quick then 100 else 500) ~chains:20 in
    let d =
      Deployment.build ~install:false ~config:fault_dconfig ~policy
        ~topology:(Topology.line 6 ()) ~authority_ids:[ 1; 3; 4 ] ()
    in
    let a, b = (1, 3) in
    let faults =
      Fault.plan ~seed
        ~link:(if loss > 0. then Fault.lossy_link ~jitter:2e-3 loss else Fault.ideal_link)
        ~events:
          [
            Fault.Crash { switch = a; at = crash_a };
            Fault.Crash { switch = b; at = crash_b };
            Fault.Restart { switch = a; at = restart_a };
            Fault.Restart { switch = b; at = restart_b };
          ]
        ()
    in
    let cp = Control_plane.create ~config:cp_config ~faults d in
    let probes = probes rng policy (if quick then 100 else 400) in
    let batch now = inject_batch (Control_plane.deployment cp) probes ~now in
    let detect = ref nan and converge = ref nan in
    let degraded_before = ref 0 in
    let step = 0.02 in
    Control_plane.push_deployment cp ~now:0.;
    (* traffic batches: a warm-up, one in the double-crash window (some
       partitions have no live replica -> degraded path), one after
       recovery *)
    drive ~step ~from:step ~until:horizon
      ~timed:
        [
          (1.0, batch);
          ( 3.0,
            fun now ->
              degraded_before := Deployment.degraded_misses (Control_plane.deployment cp);
              batch now );
          (12.0, batch);
        ]
      (fun now ->
        Control_plane.tick cp ~now;
        if Float.is_nan !detect && List.mem a (Control_plane.failed_switches cp) then
          detect := now -. crash_a;
        if now > restart_b && Float.is_nan !converge
           && Control_plane.pending_requests cp = 0
        then converge := now -. restart_b);
    let d = Control_plane.deployment cp in
    let stats = Control_plane.stats cp in
    let recovered =
      Control_plane.pending_requests cp = 0
      && Control_plane.failed_switches cp = []
      && settled d probes
    in
    ( {
        loss;
        dropped = stats.Control_plane.dropped + stats.Control_plane.link_dropped;
        corrupted = stats.Control_plane.corrupted;
        decode_errors = stats.Control_plane.decode_errors;
        retransmissions = Control_plane.retransmissions cp;
        giveups = Control_plane.giveups cp;
        detect_time = !detect;
        converge_time = !converge;
        degraded =
          Deployment.degraded_misses (Control_plane.deployment cp) - !degraded_before;
        recovered;
      },
      Control_plane.timeline cp )

  let run ?(seed = 42) ?(quick = false) ?(cp_config = fault_cp_config) () =
    loss_sweep ~quick (scenario ~cp_config ~seed ~quick)

  let check rows =
    List.concat_map
      (fun r ->
        fault_check ~loss:r.loss ~zero:[ (r.giveups, "give-ups") ] ~recovered:r.recovered)
      rows

  let render rows =
    Table.section
      ~title:
        "Supplementary: chaos sweep (frame loss vs recovery; 2 authority crashes + resync)"
      ~header:
        [ "loss"; "frames lost"; "corrupt"; "decode err"; "retx"; "giveups";
          "detect (s)"; "converge (s)"; "degraded misses"; "recovered" ]
      (List.map
         (fun r ->
           [
             Table.fmt_pct r.loss;
             string_of_int r.dropped;
             string_of_int r.corrupted;
             string_of_int r.decode_errors;
             string_of_int r.retransmissions;
             string_of_int r.giveups;
             Printf.sprintf "%.2f" r.detect_time;
             Printf.sprintf "%.2f" r.converge_time;
             string_of_int r.degraded;
             (if r.recovered then "yes" else "NO");
           ])
         rows)
end

(* ------------------------------------------------------------------ *)

(* Supplementary: controller high availability.  Per loss rate, a
   3-replica cluster deploys, two authority switches crash, and the
   leader dies mid-way through a policy push: a standby rebuilds the
   deployment from the shared journal and takes over at epoch 2.  Later
   the new leader is partitioned away; epoch 3 is elected while the
   isolated leader keeps mastering until the switches' epoch fencing
   deposes it (split brain). *)
module E_ha = struct
  type row = {
    loss : float;
    dropped : int;
    retransmissions : int;
    giveups : int;
    takeover1 : float;
    takeover2 : float;
    replayed : int;
    snapshots : int;
    dup_installs : int;
    stale_rejected : int;
    stale_accepted : int;
    fenced_appends : int;
    degraded : int;
    recovered : bool;
  }

  (* The high-availability gauntlet, all from one seed.  Two of the three
     authority switches crash early; in the middle of deploying a policy
     update the leader process dies, so a standby rebuilds the exact
     deployment from the journal and takes over at epoch 2; the switches
     restart and get resynced; the crashed controller returns as a
     standby; then the *new* leader is partitioned away (not crashed) —
     the returned controller wins the next election at epoch 3 while the
     isolated one keeps mastering until the switches fence it (the
     split-brain case).  Probes run before, between and after. *)
  let crash_a = 1.5
  let crash_b = 1.8
  let update_at = 2.8
  let leader_crash = 3.0
  let restart_a = 8.5
  let restart_b = 8.8
  let leader_restart = 9.5
  let isolate_at = 10.5
  let horizon = 16.0

  let scenario ~cp_config ~seed ~quick ~loss =
    let rng = Prng.create seed in
    let policy = acl rng ~rules:(if quick then 80 else 400) ~chains:20 in
    let policy' = F_dyn.flipped ~select:(fun id -> id mod 4 = 0) policy in
    let faults =
      Fault.plan ~seed ~controllers:3
        ~link:(if loss > 0. then Fault.lossy_link ~jitter:2e-3 loss else Fault.ideal_link)
        ~events:
          [
            Fault.Crash { switch = 3; at = crash_a };
            Fault.Crash { switch = 4; at = crash_b };
            Fault.Controller_crash { controller = 0; at = leader_crash };
            Fault.Restart { switch = 3; at = restart_a };
            Fault.Restart { switch = 4; at = restart_b };
            Fault.Controller_restart { controller = 0; at = leader_restart };
          ]
        ()
    in
    let config = { Cluster.default_config with snapshot_every = 8; cp = cp_config } in
    let cl =
      Cluster.create ~config ~faults ~dconfig:fault_dconfig ~policy
        ~topology:(Topology.line 6 ()) ~authority_ids:[ 1; 3; 4 ] ()
    in
    let probes = probes rng policy (if quick then 100 else 300) in
    let batch now = inject_batch (Cluster.deployment cl) probes ~now in
    let step = 0.02 in
    Cluster.push_deployment cl ~now:0.;
    drive ~step ~from:step ~until:horizon
      ~timed:
        ((update_at, fun now -> Cluster.update_policy cl ~now policy')
        :: (isolate_at, fun now -> Cluster.isolate cl ~now 1 true)
        :: List.map (fun at -> (at, batch)) [ 1.0; 2.5; 5.5; 13.5 ])
      (fun now -> Cluster.tick cl ~now);
    let d = Cluster.deployment cl in
    let stats = Cluster.stats cl in
    let latencies = Cluster.takeover_latencies cl in
    let nth_latency n = match List.nth_opt latencies n with Some l -> l | None -> nan in
    let recovered =
      Cluster.takeovers cl = 2
      && Cluster.leader cl = 0
      && Cluster.pending_requests cl = 0
      && Control_plane.failed_switches (Cluster.leader_cp cl) = []
      && settled d probes
    in
    ( {
        loss;
        dropped = stats.Control_plane.dropped + stats.Control_plane.link_dropped;
        retransmissions = Cluster.retransmissions cl;
        giveups = Cluster.giveups cl;
        takeover1 = nth_latency 0;
        takeover2 = nth_latency 1;
        replayed = Cluster.entries_replayed cl;
        snapshots = Cluster.snapshots cl;
        dup_installs = Cluster.duplicate_installs cl;
        stale_rejected = Cluster.stale_rejected cl;
        stale_accepted = Cluster.stale_accepted cl;
        fenced_appends = Cluster.fenced_appends cl;
        degraded = Deployment.degraded_misses d;
        recovered;
      },
      (Cluster.timeline cl, Bytes.to_string (Journal.encode (Cluster.journal cl))) )

  let run ?(seed = 42) ?(quick = false) ?(cp_config = fault_cp_config) () =
    loss_sweep ~quick (scenario ~cp_config ~seed ~quick)

  let check rows =
    List.concat_map
      (fun r ->
        fault_check ~loss:r.loss
          ~zero:
            [
              (r.giveups, "give-ups");
              (r.dup_installs, "duplicate installs");
              (r.stale_accepted, "stale-epoch frames accepted");
            ]
          ~recovered:r.recovered)
      rows

  let render rows =
    Table.section
      ~title:
        "Supplementary: controller HA sweep (leader crash + split brain vs frame loss)"
      ~header:
        [ "loss"; "frames lost"; "retx"; "giveups"; "takeover1 (s)"; "takeover2 (s)";
          "replayed"; "snaps"; "dup installs"; "stale rej"; "stale acc"; "fenced";
          "degraded"; "recovered" ]
      (List.map
         (fun r ->
           [
             Table.fmt_pct r.loss;
             string_of_int r.dropped;
             string_of_int r.retransmissions;
             string_of_int r.giveups;
             Printf.sprintf "%.2f" r.takeover1;
             Printf.sprintf "%.2f" r.takeover2;
             string_of_int r.replayed;
             string_of_int r.snapshots;
             string_of_int r.dup_installs;
             string_of_int r.stale_rejected;
             string_of_int r.stale_accepted;
             string_of_int r.fenced_appends;
             string_of_int r.degraded;
             (if r.recovered then "yes" else "NO");
           ])
         rows)

  let journal ~seed ~quick ~loss =
    let _, (_, journal) =
      scenario ~cp_config:fault_cp_config ~seed ~quick ~loss
    in
    journal
end

(* E-INCAST: every link serializes a default packet in 100 µs (10k
   packets/s per port), matched to the authority's 100 µs setup service,
   so past ~10k flows/s the authority's inbound port and setup queue
   congest together. *)
module E_incast = struct
  type row = { offered_rate : float; mode : string; result : Flowsim.result }

  (* Hub 0, authority 1, ingresses 2..9.  The hub->authority port is the
     incast bottleneck: all eight ingresses' misses serialize onto it. *)
  let topology =
    Topology.create ~nodes:10
      (List.init 9 (fun i ->
           { Topology.src = 0; dst = i + 1; latency = 100e-6; bandwidth = 1.2e8 }))

  (* Authority at 10k setups/s; controller twice as fast per request but
     10 ms of RTT away — credit mode buys its loss-freedom with latency. *)
  let timing =
    { Flowsim.default_timing with authority_service = 100e-6; controller_service = 50e-6 }

  let congestion mode =
    {
      Congestion.default with
      model_bandwidth = true;
      buffer_capacity = Some 64;
      ecn_threshold = Some 16;
      mode;
      credit_pool = 32;
      credit_low_water = 8;
    }

  let deployment ~seed ~mode =
    let config = { setup_config with cache_capacity = 0; congestion = congestion mode } in
    Deployment.build ~config ~policy:(timing_policy ~seed) ~topology ~authority_ids:[ 1 ]
      ()

  let rates ~quick = if quick then [ 5e3; 20e3 ] else [ 5e3; 10e3; 20e3; 40e3 ]
  let duration ~quick = if quick then 0.05 else 0.2
  let modes = [ ("drop-tail", Congestion.Drop_tail); ("credit", Congestion.Credit) ]

  let run ?(seed = 42) ?(quick = false) () =
    let duration = duration ~quick in
    List.concat_map
      (fun rate ->
        List.map
          (fun (name, mode) ->
            (* same seeded workload for both modes: the curves differ only
               in what the network does under pressure *)
            let flows =
              distinct_flows ~rng:(Prng.create (seed + int_of_float rate)) ~rate
                ~duration ~ingresses:[ 2; 3; 4; 5; 6; 7; 8; 9 ] ~offset:0 ~count:max_int
            in
            { offered_rate = rate; mode = name;
              result =
                Flowsim.run
                  { Flowsim.Config.default with timing }
                  (deployment ~seed ~mode) flows })
          modes)
      (rates ~quick)

  (* The graceful-degradation claims the incast gate enforces, at the
     saturating (top) rate of the sweep. *)
  let check rows =
    let top = List.fold_left (fun acc r -> Float.max acc r.offered_rate) 0. rows in
    let at mode =
      (List.find (fun r -> Float.equal r.offered_rate top && r.mode = mode) rows).result
    in
    let dt = at "drop-tail" and cr = at "credit" in
    unmet
      [
        (dt.Flowsim.queue_drops > 0,
         "drop-tail never filled a port buffer at the top rate");
        (cr.Flowsim.backpressured > 0, "credit mode never backpressured at the top rate");
        (drop_rate cr < drop_rate dt,
         "credit mode dropped at least as large a fraction as drop-tail at the top rate");
        (cr.Flowsim.completed_flows > dt.Flowsim.completed_flows,
         "credit mode completed no more flows than drop-tail at the top rate");
      ]

  let render rows =
    Table.section
      ~title:"E-INCAST: incast on one authority — drop-tail vs credit flow control"
      ~header:
        [ "offered (flows/s)"; "mode"; "completed"; "drop%"; "queue drops"; "ECN marks";
          "backpressured"; "p50 (us)"; "p99 (us)" ]
      (List.map
         (fun r ->
           let res = r.result in
           let pctl f =
             match res.Flowsim.first_packet_delay with
             | None -> "-"
             | Some s -> Printf.sprintf "%.0f" (f s *. 1e6)
           in
           [
             Table.fmt_si r.offered_rate;
             r.mode;
             string_of_int res.Flowsim.completed_flows;
             Table.fmt_pct (drop_rate res);
             string_of_int res.Flowsim.queue_drops;
             string_of_int res.Flowsim.ecn_marks;
             string_of_int res.Flowsim.backpressured;
             pctl (fun (s : Summary.t) -> s.Summary.p50);
             pctl (fun (s : Summary.t) -> s.Summary.p99);
           ])
         rows)
end

module E_mon = struct
  let run_monitored ?(seed = 42) ?(quick = false) ~alpha ?(sample_rate = 1)
      ?interval ?(threshold = 1.5) ?(top_k = 10) () =
    let rng = Prng.create seed in
    let policy = acl rng ~rules:(if quick then 150 else 600) ~chains:40 in
    let topology = Topology.star 8 () in
    let config =
      { Deployment.default_config with k = 8; cache_capacity = 64; balance = `Volume }
    in
    let d = Deployment.build ~config ~policy ~topology ~authority_ids:[ 1; 2; 3 ] () in
    let profile =
      {
        Traffic.default with
        flows = (if quick then 4_000 else 20_000);
        rate = 20_000.;
        alpha;
        distinct_headers = (if quick then 600 else 2_500);
        packets_per_flow_mean = 3.0;
        ingresses = [ 4; 5; 6; 7 ];
      }
    in
    let flows = Traffic.generate (Prng.create (seed + 1)) policy profile in
    let span = float_of_int profile.Traffic.flows /. profile.Traffic.rate in
    (* flash crowd: halfway through, a burst of single-packet flows
       confined to one flowspace region.  Steady-state Zipf misses spread
       evenly over the authorities; this is the transient imbalance the
       hotspot detector exists to catch. *)
    let burst_profile =
      {
        Traffic.default with
        flows = profile.Traffic.flows / 4;
        rate = 2. *. profile.Traffic.rate;
        alpha = 0.3;
        distinct_headers = max 300 (profile.Traffic.flows / 8);
        packets_per_flow_mean = 1.0;
        ingresses = profile.Traffic.ingresses;
      }
    in
    let flows = flash_crowd d ~seed ~at:(span /. 2.) burst_profile flows in
    let interval = Option.value ~default:(span /. 20.) interval in
    let mon_config =
      {
        Monitor.default_config with
        flow =
          {
            Flow_records.default_config with
            sample_rate;
            idle_timeout = 4. *. interval;
            active_timeout = 10. *. interval;
          };
        interval;
        threshold;
        top_k;
      }
    in
    let m = Monitor.create ~config:mon_config d in
    let r = Flowsim.run { Flowsim.Config.default with monitor = Some m } d flows in
    (m, r)

  (* the delivered traffic [Monitor.pp]'s report does not show, that
     report, and the persistent hotspots; a blank line first, as every
     experiment's table *)
  let render ?(hotspot_window = 3) ((m, r) : Monitor.t * Flowsim.result) =
    Format.asprintf "@\n== traffic == %d packets delivered, cache hit rate %s@.%a%a"
      r.Flowsim.delivered_packets
      (Table.fmt_pct
         (float_of_int r.Flowsim.cache_hit_packets
         /. float_of_int (max 1 r.Flowsim.delivered_packets)))
      Monitor.pp m
      (Monitor.pp_persistent ~windows:hotspot_window)
      m
end

(* E-REBALANCE: the live cluster ticks against the same deployment the
   packets walk (the flowsim [?controller] hook).  With the adaptive
   config the hotspot detector flags the hot authority for
   [hotspot_window] consecutive windows, and the hot region is re-cut
   and its split-off half migrated (staged: install -> flip -> retire)
   to the least-loaded authority. *)
module E_rebalance = struct
  type row = {
    label : string;  (** ["static"], ["adaptive"] or ["adaptive+crash"] *)
    offered : int;
    completed : int;
    dropped : int;
    baseline_p99 : float;  (** pre-crowd window *)
    crowd_p99 : float;  (** during the crowd, before recovery *)
    final_p99 : float;  (** last window of the run *)
    recovered : bool;  (** [final_p99 < 2 * baseline_p99] *)
    migrations_started : int;
    migrations_committed : int;
    migrations_aborted : int;
    rules_moved : int;
    takeovers : int;
    violations : string list;  (** per-run invariant failures; [] = green *)
  }

  let crowd_start = 3.0
  let crash_at = 4.2

  let p99_between (res : Flowsim.result) ~lo ~hi =
    let ds =
      Array.to_list res.Flowsim.flow_delays
      |> List.filter_map (fun (s, d) -> if lo <= s && s < hi then Some d else None)
    in
    match ds with [] -> nan | l -> (Summary.of_list l).Summary.p99

  let scenario ~seed ~quick ~hotspot_threshold ~hotspot_window ~mode =
    let rng = Prng.create seed in
    let policy = acl rng ~rules:(if quick then 120 else 300) ~chains:20 in
    let topology = Topology.star 8 () in
    (* ingress caches far smaller than the working set: the traffic mix
       churns them, so the crowd's spliced pieces keep getting evicted
       and its misses keep landing on the authority — the sustained
       flow-setup overload the detector exists to catch *)
    let dconfig =
      { Deployment.default_config with k = 8; replication = 2; cache_capacity = 8;
        balance = `Volume }
    in
    (* quick scales time, not dynamics: service x4, rates /4, so the
       crowd still offers 1.5x the hot authority's setup capacity *)
    let service = if quick then 1e-3 else 250e-6 in
    let horizon = if quick then 7.5 else 10.0 in
    let baseline_rate = if quick then 200. else 800. in
    let crowd_rate = if quick then 1200. else 4800. in
    let cp_config =
      {
        Control_plane.default_config with
        rebalance_interval = (if mode = `Static then None else Some 0.25);
        hotspot_threshold;
        hotspot_window;
        (* the crash run stretches the stages so the master dies with the
           migration flipped but not yet committed *)
        migration_step = (if mode = `Crash then 0.3 else 0.05);
      }
    in
    let config = { Cluster.default_config with snapshot_every = 64; cp = cp_config } in
    let faults =
      if mode = `Crash then
        Some
          (Fault.plan ~seed ~controllers:3 ~link:Fault.ideal_link
             ~events:[ Fault.Controller_crash { controller = 0; at = crash_at } ]
             ())
      else None
    in
    let cl =
      Cluster.create ~config ?faults ~dconfig ~policy ~topology ~authority_ids:[ 1; 2; 3 ]
        ()
    in
    Cluster.push_deployment cl ~now:0.;
    let d = Cluster.deployment cl in
    let span = horizon -. 1.0 in
    let base_profile =
      {
        Traffic.default with
        flows = int_of_float (baseline_rate *. span);
        rate = baseline_rate;
        alpha = 1.0;
        distinct_headers = (if quick then 400 else 1500);
        packets_per_flow_mean = 2.0;
        ingresses = [ 4; 5; 6; 7 ];
      }
    in
    let base =
      Traffic.generate (Prng.create (seed + 1)) policy base_profile
      |> List.map (fun (f : Traffic.flow) -> { f with Traffic.start = f.Traffic.start +. 1.0 })
    in
    (* the flash crowd: single-packet flows from one region, sustained
       until the end of the run *)
    let crowd_span = horizon -. crowd_start in
    let crowd_flows = int_of_float (crowd_rate *. crowd_span) in
    let crowd_profile =
      {
        Traffic.default with
        flows = crowd_flows;
        rate = crowd_rate;
        alpha = 0.3;
        distinct_headers = max 500 (crowd_flows / 2);
        packets_per_flow_mean = 1.0;
        ingresses = [ 4; 5; 6; 7 ];
      }
    in
    let flows = flash_crowd d ~seed ~at:crowd_start crowd_profile base in
    let timing =
      { Flowsim.default_timing with authority_service = service; queue_capacity = 4000 }
    in
    (* each counter's growth over this run *)
    let growth name =
      let ctr () = Telemetry.value (Telemetry.counter ("rebalance_" ^ name)) in
      let before = ctr () in
      fun () -> ctr () - before
    in
    let started = growth "migrations_started" and committed = growth "migrations_committed"
    and aborted = growth "migrations_aborted" and moved = growth "rules_moved" in
    let last_tick = ref 0. in
    let tick ~now =
      last_tick := now;
      Cluster.tick cl ~now;
      Cluster.deployment cl
    in
    let res = Flowsim.run { Flowsim.Config.default with timing; controller = Some tick } d flows in
    (* let retransmissions and any tail migration stage settle, on the
       clock the run left: its tail can tick past the horizon *)
    drive ~step:0.01 ~from:(!last_tick +. 0.01) ~until:(horizon +. 1.0) ~timed:[] (fun now ->
        ignore (tick ~now));
    let baseline_p99 = p99_between res ~lo:1.5 ~hi:crowd_start in
    let crowd_p99 = p99_between res ~lo:(crowd_start +. 0.25) ~hi:(crowd_start +. 1.25) in
    let final_lo = horizon -. (if quick then 1.25 else 1.5) in
    let final_p99 = p99_between res ~lo:final_lo ~hi:horizon in
    let recovered =
      Float.is_finite baseline_p99 && Float.is_finite final_p99
      && final_p99 < 2. *. baseline_p99
    in
    let probes = probes rng policy (if quick then 100 else 300) in
    let journal = Journal.encode (Cluster.journal cl) in
    let started = started () and committed = committed () and aborted = aborted () in
    let violations =
      unmet
        [
          (res.Flowsim.outage_drops = 0, "packets dropped in a controller outage");
          (Cluster.duplicate_installs cl = 0, "duplicate installs in a switch bank");
          (Cluster.stale_accepted cl = 0, "a switch accepted a stale-epoch frame");
          (Cluster.pending_requests cl = 0, "control requests still pending after the drain");
          (not (Control_plane.migration_active (Cluster.leader_cp cl)),
           "a migration was left in flight");
          (Result.is_ok (Journal.decode (Classifier.schema policy) journal),
           "journal failed to decode");
          (settled (Cluster.deployment cl) probes, "deployment disagrees with the policy");
        ]
      @
      match mode with
      | `Static -> unmet [ (started = 0, "static run started a migration") ]
      | `Adaptive | `Crash ->
          unmet
            [
              (started >= 1, "no migration was triggered");
              (committed >= 1, "no migration committed");
              (res.Flowsim.dropped_flows = 0, "the adaptive run dropped flows");
              (recovered, "tail delay did not recover under 2x the pre-crowd baseline");
              ((mode <> `Crash) || Cluster.takeovers cl = 1,
               "the crash run did not fail over exactly once");
            ]
    in
    ( {
        label =
          (match mode with
          | `Static -> "static"
          | `Adaptive -> "adaptive"
          | `Crash -> "adaptive+crash");
        offered = res.Flowsim.offered_flows;
        completed = res.Flowsim.completed_flows;
        dropped = res.Flowsim.dropped_flows;
        baseline_p99;
        crowd_p99;
        final_p99;
        recovered;
        migrations_started = started;
        migrations_committed = committed;
        migrations_aborted = aborted;
        rules_moved = moved ();
        takeovers = Cluster.takeovers cl;
        violations;
      },
      (Cluster.timeline cl, Bytes.to_string journal, res.Flowsim.flow_delays) )

  let run ?(seed = 42) ?(quick = false) ?(hotspot_threshold = 2.0) ?(hotspot_window = 3)
      () =
    List.map
      (fun mode -> scenario ~seed ~quick ~hotspot_threshold ~hotspot_window ~mode)
      [ `Static; `Adaptive; `Crash ]

  (* The claims the rebalance gate enforces. *)
  let check rows =
    List.concat_map
      (fun r -> List.map (Printf.sprintf "%s: %s" r.label) r.violations)
      rows
    @ unmet
        [
          (List.exists (fun r -> r.label = "static" && not r.recovered) rows,
           "the static baseline recovered by itself (scenario not stressful enough)");
        ]

  let render rows =
    Table.section
      ~title:
        "E-REBALANCE: flash crowd — static vs closed-loop adaptive repartitioning"
      ~header:
        [ "run"; "flows"; "done"; "drop"; "p99 pre (ms)"; "p99 crowd (ms)";
          "p99 final (ms)"; "recovered"; "migr"; "commit"; "abort"; "rules moved";
          "takeovers"; "ok" ]
      (List.map
         (fun r ->
           let ms v = if Float.is_finite v then Printf.sprintf "%.2f" (v *. 1e3) else "-" in
           [
             r.label;
             string_of_int r.offered;
             string_of_int r.completed;
             string_of_int r.dropped;
             ms r.baseline_p99;
             ms r.crowd_p99;
             ms r.final_p99;
             (if r.recovered then "yes" else "no");
             string_of_int r.migrations_started;
             string_of_int r.migrations_committed;
             string_of_int r.migrations_aborted;
             string_of_int r.rules_moved;
             string_of_int r.takeovers;
             (if r.violations = [] then "green" else String.concat "; " r.violations);
           ])
         rows)
end

(* E-SCALE: one authority star (hub, authority, ingress spokes) per
   shard, no cross-shard links. *)
module E_scale = struct
  type spec = {
    shards : int;
    spokes : int;  (** per-shard star spokes; switches = shards * (spokes + 1) *)
    flows_per_shard : int;
    domains : int;
  }

  (* 32 shards x 8 switches = 256 switches, 32 x 32768 = 1,048,576 flows *)
  let default_spec = { shards = 32; spokes = 7; flows_per_shard = 32_768; domains = 1 }

  (* small enough for unit tests; same decomposition shape *)
  let quick_spec = { shards = 8; spokes = 3; flows_per_shard = 512; domains = 1 }

  let switches spec = spec.shards * (spec.spokes + 1)

  let sized ~quick ~domains = { (if quick then quick_spec else default_spec) with domains }

  let shard_policy ~seed s = timing_policy ~seed:(seed + (7919 * (s + 1)))

  let shard_deployment ~seed spec s =
    Deployment.build ~config:setup_config ~policy:(shard_policy ~seed s)
      ~topology:(Topology.star (spec.spokes + 1) ~latency:100e-6 ())
      ~authority_ids:[ 1 ] ()

  (* Exactly [flows_per_shard] distinct flows, shard [s] owning ids
     [s * flows_per_shard] onwards. *)
  let shard_flows ~seed spec s =
    distinct_flows ~rng:(Prng.create (seed + (104729 * (s + 1))))
      ~rate:50_000. ~duration:infinity
      ~ingresses:(List.init (spec.spokes - 1) (fun i -> i + 2))
      ~offset:(s * spec.flows_per_shard) ~count:spec.flows_per_shard

  let run ?(seed = 42) spec =
    if spec.spokes < 3 then invalid_arg "E_scale.run: spokes < 3";
    Flowsim.run_sharded
      { Flowsim.Config.default with domains = spec.domains }
      ~shards:spec.shards
      ~deployment:(shard_deployment ~seed spec)
      ~flows:(shard_flows ~seed spec)

  (* Canonical fingerprint of a result — every field, including the raw
     per-flow sample arrays, so two runs agree iff they are
     byte-identical.  Results are pure data (no closures), so Marshal is
     a stable canonical form. *)
  let digest (r : Flowsim.result) =
    Digest.to_hex (Digest.string (Marshal.to_string r []))

  (* The scale-experiment claims the scale gate enforces.  The
     magnitude floors only make sense for the full spec; a quick run
     ([floors:false]) still checks the conservation invariants. *)
  let check ?(floors = true) spec (r : Flowsim.result) =
    unmet
      ([
         (r.Flowsim.offered_flows = spec.shards * spec.flows_per_shard,
          "offered flow count does not match the spec");
         (r.Flowsim.completed_flows + r.Flowsim.dropped_flows
          = r.Flowsim.offered_flows,
          "flows leaked: completed + dropped <> offered");
         (r.Flowsim.setup_throughput > 0., "zero setup throughput");
         (r.Flowsim.first_packet_delay <> None, "no first-packet delays recorded");
       ]
      @
      if floors then
        [
          (r.Flowsim.offered_flows >= 1_000_000,
           "fewer than one million flows offered");
          (switches spec >= 200, "fewer than 200 switches deployed");
        ]
      else [])

  let render spec (r : Flowsim.result) =
    Table.section ~title:"E-SCALE: sharded ingress simulation"
      ~header:[ "metric"; "value" ]
      [
        [ "shards"; string_of_int spec.shards ];
        [ "switches"; string_of_int (switches spec) ];
        [ "domains"; string_of_int spec.domains ];
        [ "offered flows"; string_of_int r.Flowsim.offered_flows ];
        [ "completed flows"; string_of_int r.Flowsim.completed_flows ];
        [ "dropped flows"; string_of_int r.Flowsim.dropped_flows ];
        [ "delivered packets"; string_of_int r.Flowsim.delivered_packets ];
        [ "cache-hit packets"; string_of_int r.Flowsim.cache_hit_packets ];
        [ "setup throughput"; Table.fmt_si r.Flowsim.setup_throughput ^ " flows/s" ];
        (match r.Flowsim.first_packet_delay with
        | None -> [ "first-packet delay"; "-" ]
        | Some s ->
            [ "first-packet delay";
              Printf.sprintf "p50 %.0f us, p99 %.0f us" (1e6 *. s.Summary.p50)
                (1e6 *. s.Summary.p99) ]);
        [ "digest"; digest r ];
      ]
end

(* ------------------------------------------------------------------ *)

(* The scenario table: every experiment subcommand, [difane all], every
   CI gate and every replay target [difane paths] can record, in one
   place. *)

type outcome = { report : string; failures : string list; fingerprint : string }

type replay_args = {
  seed : int;
  quick : bool;
  domains : int;
  loss : float;
  reliability : Control_plane.config;
}

type replay = {
  describe : (origin:int -> pid:int -> string option) option;
  timeline : (float * string * string) list;
}

type render =
  | Plain of (seed:int -> quick:bool -> string)
  | Faults of (seed:int -> quick:bool -> cp_config:Control_plane.config -> string)
  | Sharded of (seed:int -> quick:bool -> domains:int -> string)
  | Hotspot of
      (seed:int -> quick:bool -> hotspot_threshold:float -> hotspot_window:int -> string)

type scenario = {
  name : string;
  doc : string;
  render : render option;
  all : (seed:int -> quick:bool -> string) option;
  gate : seed:int -> quick:bool -> domains:int -> outcome;
  replay : (replay_args -> replay) option;
}

let replay_args ~seed ~quick =
  { seed; quick; domains = 1; loss = 0.10; reliability = fault_cp_config }

let fingerprint s = Digest.to_hex (Digest.string s)

(* A sweep of seeded runs, each a row and the trace it left (timeline,
   journal bytes, per-flow delays): its fingerprint is the rendered table
   and every trace, so the harness's second run must reproduce them all. *)
let sweep_gate run render check ~seed ~quick ~domains:_ =
  let runs = run ~seed ~quick in
  let rows = List.map fst runs in
  let report = render rows in
  {
    report;
    failures = check rows;
    fingerprint = fingerprint (report ^ Marshal.to_string (List.map snd runs) []);
  }

(* The incast sweep plus the registry snapshot its run leaves behind
   (the harness resets the registry first): the congestion counters must
   be present and show the sweep actually congested. *)
let incast_gate ~seed ~quick ~domains:_ =
  let rows = E_incast.run ~seed ~quick () in
  let snap = Telemetry.snapshot () in
  let metric name =
    match Telemetry.find snap name with
    | Some (Telemetry.Counter n) -> Some (float_of_int n)
    | Some (Telemetry.Gauge g) -> Some g
    | Some (Telemetry.Histogram _) | None -> None
  in
  let telemetry =
    List.concat_map
      (fun (name, must_be_positive) ->
        match (metric name, must_be_positive) with
        | None, _ -> [ "missing metric " ^ name ]
        | Some v, Some msg when v <= 0. -> [ msg ]
        | Some _, _ -> [])
      [
        ("congestion_port_transits", Some "no port transits");
        ("congestion_queue_drops", Some "drop-tail never shed");
        ("congestion_ecn_marks", None);
        ("congestion_queue_peak", Some "no queue depth observed");
        ("sim_backpressured_misses", Some "never backpressured");
      ]
  in
  {
    report = E_incast.render rows;
    failures = E_incast.check rows @ telemetry;
    fingerprint = fingerprint (Marshal.to_string rows [] ^ Telemetry.to_json snap);
  }

let scale_gate ~seed ~quick ~domains =
  let spec = E_scale.sized ~quick ~domains in
  let r = E_scale.run ~seed spec in
  {
    report = E_scale.render spec r;
    failures = E_scale.check ~floors:(not quick) spec r;
    fingerprint = E_scale.digest r;
  }

(* Each case's policy (ACL or prefix table), Zipf stream, cache capacity
   (4 to 256) and management (expiry, invalidation, flushes), replayed
   once per aggregation setting: every packet gets the policy's action,
   and the exact oracle finds nothing after every management op, every
   50th packet and at the case's end.  [quick]: 4 cases of 200 packets. *)
let aggregate_gate ~seed ~quick ~domains:_ =
  let cases, packets = if quick then (4, 200) else (8, 400) in
  let b = Buffer.create 1024 and failures = ref [] in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let replay (name, aggregation) =
    let checks = ref 0 and bad = ref [] and stats = ref [] in
    for case = 0 to cases - 1 do
      let rng = Prng.split (Prng.create (seed + (31 * case))) and c = case mod 4 in
      let policy =
        if case mod 3 = 2 then
          Policy_gen.prefix_table rng
            { Policy_gen.default_prefixes with prefixes = 60 + (20 * c); egresses = 4 }
        else
          Policy_gen.acl rng
            { Policy_gen.default_acl with rules = 60 + (30 * c); chain_depth = 3 + c; chains = 6 }
      in
      let config =
        { Deployment.default_config with
          k = 8; cache_idle_timeout = Some 0.05; aggregation;
          cache_capacity = [| 4; 16; 64; 256 |].(c) }
      in
      let d =
        Deployment.build ~config ~policy ~topology:(Topology.line 4 ())
          ~authority_ids:[ 1; 2 ] ()
      in
      let stream =
        Traffic.packet_stream
          (Traffic.generate (Prng.create (seed + (7 * case) + 1)) policy
             { Traffic.default with
               flows = packets; rate = 10_000.; distinct_headers = 40 + (20 * case);
               packets_per_flow_mean = 2.0; ingresses = [ 0 ] })
      in
      let expected h = Option.value ~default:Action.Drop (Classifier.action policy h) in
      let report step sw got h =
        bad := Format.asprintf "case %d step %d: switch %d gives %a %s, the policy %s" case
                 step sw Header.pp h got (Action.to_string (expected h)) :: !bad
      in
      let oracle step =
        incr checks;
        Option.iter (fun (sw, h) -> report step sw "another action" h)
          (Deployment.counterexample d)
      in
      for step = 0 to packets - 1 do
        let h = stream.(step) and now = float_of_int step /. 2_000. in
        if step mod 97 = 96 then (ignore (Deployment.expire_caches d ~now); oracle step);
        if step mod 149 = 148 then begin
          ignore (Deployment.invalidate_origins ~now d ~origins:(fun o -> o mod 5 = case mod 5));
          oracle step
        end;
        if step mod 233 = 232 then (Deployment.flush_caches d; oracle step);
        let got = (Deployment.inject d ~now ~ingress:0 h).Deployment.action in
        if not (Action.equal got (expected h)) then
          report step 0 (Action.to_string got) h;
        if step mod 50 = 49 then oracle step
      done;
      oracle packets;
      stats := Deployment.aggregate_stats d :: !stats
    done;
    let sum f = List.fold_left (fun n s -> n + f s) 0 !stats in
    line "  %s: %d oracle checks; %d installs, %d merges, %d suppressed, %d cover installs"
      name !checks (sum (fun s -> s.Aggregate.installs)) (sum (fun s -> s.Aggregate.merges))
      (sum (fun s -> s.Aggregate.suppressed)) (sum (fun s -> s.Aggregate.cover_installs));
    List.iteri (fun n l -> if n < 5 then line "    FAIL %s" l) (List.rev !bad);
    if !bad <> [] then
      failures := Printf.sprintf "%s: %d disagreements" name (List.length !bad) :: !failures
  in
  line "aggregation gate: %d cases of %d packets, each setting checked against the policy"
    cases packets;
  List.iter replay [ ("plain", Aggregate.default); ("aggregated", Aggregate.enabled_default) ];
  let report = Buffer.contents b in
  { report; failures = List.rev !failures; fingerprint = fingerprint report }

(* The monitored run [difane monitor] drives by default (alpha 1.0), its
   report, and the shape its difane-monitor-v1 and difane-flows-v1
   documents must have. *)
let monitored ~seed ~quick = E_mon.run_monitored ~seed ~quick ~alpha:1.0 ()

let monitor_gate ~seed ~quick ~domains:_ =
  let ((m, _) as run) = monitored ~seed ~quick in
  let fr = Monitor.flow_records m in
  let records = Flow_records.exports fr in
  let heavy = Monitor.heavy_hitters m in
  let all p l = List.for_all p l in
  let failures =
    unmet
      [
        ((Flow_records.config fr).Flow_records.sample_rate >= 1,
         "flow sample rate below 1");
        (records <> [], "no flow records exported");
        (Flow_records.sampled_packets fr <= Flow_records.observed_packets fr,
         "more packets sampled than observed");
        (List.for_all2 (fun i (r : Flow_records.record) -> r.seq = i)
           (List.init (List.length records) Fun.id) records,
         "export sequence not dense");
        (all (fun (r : Flow_records.record) -> Array.length (Header.values r.header) > 0)
           records,
         "a flow record has an empty key");
        (all (fun (r : Flow_records.record) -> r.packets >= 1 && r.bytes >= 1) records,
         "a flow record has no packets or bytes");
        (all (fun (r : Flow_records.record) -> r.first_seen <= r.last_seen) records,
         "a flow record was last seen before it was first seen");
        (heavy <> [], "no heavy hitters reported");
        (all (fun (h : Monitor.rule_report) ->
             Int64.add h.Monitor.cache_hits h.Monitor.authority_hits > 0L) heavy,
         "a heavy hitter has no hits");
        (all (fun (h : Monitor.rule_report) -> h.Monitor.partitions <> []) heavy,
         "heavy hitter without a provenance chain");
        (Monitor.authority_series m <> [], "no authority load timeline");
        (Monitor.hotspots m <> [], "no hotspot flagged on the skewed workload");
      ]
  in
  {
    report = E_mon.render run;
    failures;
    fingerprint = fingerprint (Monitor.to_json m ^ "\n" ^ Flow_records.to_json fr);
  }

let chaos_replay a =
  let _, timeline =
    E_chaos.scenario ~cp_config:a.reliability ~seed:a.seed ~quick:a.quick ~loss:a.loss
  in
  { describe = None; timeline }

let ha_replay a =
  let _, (timeline, _) =
    E_ha.scenario ~cp_config:a.reliability ~seed:a.seed ~quick:a.quick ~loss:a.loss
  in
  { describe = None; timeline }

let rebalance_replay a =
  let _, (timeline, _, _) =
    E_rebalance.scenario ~seed:a.seed ~quick:a.quick ~hotspot_threshold:2.0
      ~hotspot_window:3 ~mode:`Adaptive
  in
  { describe = None; timeline }

let scale_replay a =
  ignore (E_scale.run ~seed:a.seed (E_scale.sized ~quick:a.quick ~domains:a.domains));
  { describe = None; timeline = [] }

let monitor_replay a =
  let m, _ = monitored ~seed:a.seed ~quick:a.quick in
  { describe = Some (fun ~origin ~pid -> Monitor.describe_provenance m ~origin ~pid);
    timeline = [] }

(* Replay [name]'s scenario with postcard tracing on, then hold the
   reconstructed paths to every causal invariant; the difane-paths-v1
   document is the fingerprint. *)
let paths_gate name replay =
  let gate ~seed ~quick ~domains =
    Ptrace.enable ();
    let { describe; timeline = _ } = replay { (replay_args ~seed ~quick) with domains } in
    Ptrace.disable ();
    let t = Paths.reconstruct () in
    let delivered =
      List.exists
        (fun p -> match Paths.outcome p with Paths.Delivered -> true | _ -> false)
        t.Paths.paths
    in
    {
      report =
        Format.asprintf "%a%a@?" (Paths.pp ?describe ~limit:20) t.Paths.paths
          Paths.pp_summary t;
      failures =
        Paths.check t
        @ unmet
            [
              (t.Paths.emitted > 0 && t.Paths.paths <> [], "the run emitted no paths");
              (delivered, "no path was delivered");
            ];
      fingerprint = fingerprint (Paths.to_json t);
    }
  in
  {
    name = "paths-" ^ name;
    doc = "Causal packet-path invariants over the " ^ name ^ " replay.";
    render = None;
    all = None;
    gate;
    replay = None;
  }

(* A fault sweep: a member of [difane all] whose subcommand also takes
   the reliability flags; gated at their defaults. *)
let fault_sweep name doc
    (run :
      ?seed:int -> ?quick:bool -> ?cp_config:Control_plane.config -> unit -> ('a * 'b) list)
    render check replay =
  let report ~seed ~quick ~cp_config =
    render (List.map fst (run ~seed ~quick ~cp_config ()))
  in
  {
    name;
    doc;
    render = Some (Faults report);
    all = Some (fun ~seed ~quick -> report ~seed ~quick ~cp_config:fault_cp_config);
    gate = sweep_gate (fun ~seed ~quick -> run ~seed ~quick ()) render check;
    replay = Some replay;
  }

(* A paper experiment: a plain subcommand, a member of [difane all] and a
   gate holding its shape claims, whose fingerprint is its report. *)
let experiment name doc (run : ?seed:int -> ?quick:bool -> unit -> 'a) render check =
  let report ~seed ~quick = render (run ~seed ~quick ()) in
  let gate ~seed ~quick ~domains:_ =
    let rows = run ~seed ~quick () in
    let report = render rows in
    { report; failures = check rows; fingerprint = fingerprint report }
  in
  { name; doc; render = Some (Plain report); all = Some report; gate;
    replay = None }

let scenarios =
  [
    experiment "table1"
      "Rule-set characteristics (Table 1); gated: five rule sets, each with rules and \
       depth >= 1, acl-deep deeper than acl-small."
      T1.run T1.render T1.check;
    experiment "throughput"
      "Flow-setup throughput, DIFANE vs NOX; gated: at the top rate DIFANE >= 3x NOX, NOX \
       under 1.2x its controller's capacity."
      F_tput.run F_tput.render F_tput.check;
    experiment "scaling"
      "Throughput vs number of authority switches; gated: k switches within 20% of k \
       times one."
      F_scale.run F_scale.render F_scale.check;
    experiment "delay"
      "First-packet delay CDFs; gated: NOX/DIFANE median ratio over 10, DIFANE median \
       under 1 ms."
      F_delay.run F_delay.render F_delay.check;
    experiment "partition-sweep"
      "TCAM entries vs number of partitions; gated: per-switch max does not grow with k, \
       duplication under 2.5x (acl-small, prefix-5k)."
      F_part.run F_part.render F_part.check;
    experiment "missrate"
      "Cache miss rate vs cache size, spliced vs microflow ingress caches; gated: \
       wildcard misses at most microflow and OPT at most wildcard LRU, microflow over \
       1.5x wildcard at the largest cache."
      F_miss.run F_miss.render F_miss.check;
    experiment "stretch"
      "Stretch CDF by authority placement; gated: centroid <= random, \
       k-median+nearest <= centroid in mean, stretch >= 1."
      F_stretch.run F_stretch.render F_stretch.check;
    experiment "dynamics"
      "Policy-update consistency vs cache timeout; gated: strict and targeted updates \
       serve no stale packet, lazy staleness within 1.25x the timeout."
      F_dyn.run F_dyn.render F_dyn.check;
    experiment "ablation-cut"
      "Best-cut vs fixed-dimension partitioning; gated: best-cut <= proto-only in max \
       and total entries at every k."
      A_cut.run A_cut.render A_cut.check;
    experiment "ablation-splice"
      "Splice vs dependent-set cache cost; gated: one spliced entry per flow, \
       dependent sets over 1.5."
      A_splice.run A_splice.render A_splice.check;
    experiment "control-overhead"
      "Control-plane frames and bytes; gated: three scenarios, each with frames and \
       more bytes than frames."
      E_ctrl.run E_ctrl.render E_ctrl.check;
    experiment "cache-sweep"
      "Ingress cache size vs authority load; gated: hit rate never falls over 2 points \
       as the cache grows, hits + authority load = 1."
      E_cache.run E_cache.render E_cache.check;
    fault_sweep "chaos"
      "Fault-injection sweep: frame loss vs recovery through two authority crashes; \
       gated: zero give-ups, full recovery."
      E_chaos.run E_chaos.render E_chaos.check chaos_replay;
    fault_sweep "ha"
      "Controller high-availability sweep: leader crash, journal-replay takeover, \
       split-brain fencing in a 3-replica cluster; gated: as chaos, plus zero \
       duplicate installs and stale-epoch acceptances."
      E_ha.run E_ha.render E_ha.check ha_replay;
    { name = "incast";
      doc = "Incast/overload sweep: eight ingresses fan misses into one authority switch, \
             loss vs latency under drop-tail buffers vs credit-based flow control; gated: \
             graceful degradation of credit vs drop-tail, congestion telemetry.";
      render =
        Some (Plain (fun ~seed ~quick -> E_incast.render (E_incast.run ~seed ~quick ())));
      all = None;
      gate = incast_gate;
      replay = None };
    { name = "rebalance";
      doc = "Flash-crowd adaptive repartitioning: static baseline vs the closed-loop \
             hotspot detector driving staged, journaled sub-region migrations, plus a \
             master-crash run resolved by journal replay at takeover (replayed: the \
             adaptive run alone); gated: the adaptive runs recover and commit a \
             migration, the static baseline does not.";
      render =
        Some (Hotspot (fun ~seed ~quick ~hotspot_threshold ~hotspot_window ->
                  E_rebalance.render
                    (List.map fst
                       (E_rebalance.run ~seed ~quick ~hotspot_threshold ~hotspot_window ()))));
      all = None;
      gate =
        sweep_gate (fun ~seed ~quick -> E_rebalance.run ~seed ~quick ())
          E_rebalance.render E_rebalance.check;
      replay = Some rebalance_replay };
    { name = "scale";
      doc = "Sharded ingress simulation at scale: a million-flow workload over 256 \
             switches, split into independent shards spread across OCaml domains; gated: \
             flow conservation and scale floors, digest identical at any domain count.";
      render =
        Some (Sharded (fun ~seed ~quick ~domains ->
                  let spec = E_scale.sized ~quick ~domains in
                  E_scale.render spec (E_scale.run ~seed spec)));
      all = None;
      gate = scale_gate;
      replay = Some scale_replay };
    paths_gate "chaos" chaos_replay;
    paths_gate "rebalance" rebalance_replay;
    paths_gate "scale" scale_replay;
    { name = "aggregate";
      doc = "Aggregation off and on, each replayed under cache churn; gated: every \
             packet and every cache entry decides as the policy does.";
      render = None; all = None; gate = aggregate_gate; replay = None };
    { name = "monitor";
      doc = "The monitored run at Zipf alpha 1.0, as $(b,difane monitor) prints it; path \
             provenance joins through the monitor; gated: well-formed difane-monitor-v1 and \
             difane-flows-v1 documents.";
      render = None;
      all = Some (fun ~seed ~quick -> E_mon.render (monitored ~seed ~quick));
      gate = monitor_gate;
      replay = Some monitor_replay };
  ]

let run_all ?(seed = 42) ?(quick = false) print =
  List.iter (fun s -> Option.iter (fun report -> print (report ~seed ~quick)) s.all) scenarios

let run_gate ?(print = print_string) s ~seed ~quick ~domains =
  (* each run starts from a fresh registry, so its snapshot is its own *)
  let run domains =
    Telemetry.reset ();
    s.gate ~seed ~quick ~domains
  in
  let first = run 1 in
  print first.report;
  let second = run domains in
  let failures =
    first.failures
    @ List.filter
        (fun f -> not (List.exists (String.equal f) first.failures))
        second.failures
    @
    if String.equal first.fingerprint second.fingerprint then []
    else
      [ Printf.sprintf "fingerprint diverged: %s at domains 1, %s at domains %d"
          first.fingerprint second.fingerprint domains ]
  in
  (match failures with
  | [] ->
      print
        (Printf.sprintf "gate %s: ok (fingerprint %s at domains 1 and %d)\n" s.name
           first.fingerprint domains)
  | fs -> print (Printf.sprintf "gate %s: FAILED (%d)\n" s.name (List.length fs)));
  failures
