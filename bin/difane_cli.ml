(* difane — run the paper's experiments and operate on policy files.

   Each experiment subcommand regenerates one table/figure of the SIGCOMM
   2010 evaluation on the simulated substrate; `all` runs the full suite
   in DESIGN.md order.  `check` and `deploy` work on difane-policy files
   (see Policy_io). *)

open Cmdliner

let seed_arg =
  let doc = "PRNG seed; every experiment is deterministic given the seed." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc = "Shrink workload sizes for a fast smoke run." in
  Arg.(value & flag & info [ "q"; "quick" ] ~doc)

(* Numbers checked where they are parsed: one out of range is a usage
   error (exit 124), like a malformed one. *)
let checked parse pp what ok =
  Arg.conv'
    ( (fun s ->
        match parse s with
        | Some v when ok v -> Ok v
        | _ -> Error (Printf.sprintf "expected %s, got %S" what s)),
      pp )

let int_at_least n =
  checked int_of_string_opt Format.pp_print_int
    (Printf.sprintf "an integer >= %d" n)
    (fun v -> v >= n)

let float_above x =
  checked float_of_string_opt Format.pp_print_float
    (Printf.sprintf "a number > %g" x)
    (fun v -> v > x)

(* A simulated time: any number but NaN, which no event time compares to. *)
let time =
  checked float_of_string_opt Format.pp_print_float "a number" (fun v ->
      not (Float.is_nan v))

let rate =
  checked float_of_string_opt Format.pp_print_float "a rate in [0, 1]" (fun v ->
      v >= 0. && v <= 1.)

let domains_arg =
  let doc =
    "Worker domains for sharded runs.  Any count yields byte-identical results (the \
     digests and fingerprints match)."
  in
  Arg.(value & opt (int_at_least 1) 1 & info [ "domains" ] ~docv:"N" ~doc)

let metrics_arg =
  let doc =
    "After the run, dump the full telemetry snapshot (every registered counter,      gauge and histogram, deterministic order) in this format: $(b,text) or $(b,json)."
  in
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT" ~doc)

(* Reset first so the snapshot reports this run alone, not process history. *)
let with_metrics metrics run =
  Telemetry.reset ();
  run ();
  match metrics with
  | None -> ()
  | Some `Text -> Format.printf "%a%!" Telemetry.pp_text (Telemetry.snapshot ())
  | Some `Json -> print_endline (Telemetry.to_json (Telemetry.snapshot ()))

(* An experiment subcommand: --seed, --quick and --metrics around [run],
   a term for whatever options the experiment takes beyond them. *)
let experiment name doc run =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun run seed quick metrics -> with_metrics metrics (fun () -> run ~seed ~quick))
      $ run $ seed_arg $ quick_arg $ metrics_arg)

(* ---- operator commands over policy files ---- *)

let policy_arg =
  let doc = "Policy file (difane-policy v1 format; see Policy_io)." in
  Arg.(required & opt (some non_dir_file) None & info [ "p"; "policy" ] ~docv:"FILE" ~doc)

(* Topology generators by name: the fewest nodes each accepts, and how
   it builds one of N from the seed. *)
let topologies =
  let seeded f ~seed n =
    let rng = Prng.create seed in
    f ~rand:(fun () -> Prng.float rng) n
  in
  [
    ("line", (1, fun ~seed:_ n -> Topology.line n ()));
    ("star", (1, fun ~seed:_ n -> Topology.star n ()));
    ("mesh", (1, fun ~seed:_ n -> Topology.full_mesh n ()));
    ("waxman", (2, seeded (fun ~rand n -> Topology.waxman ~rand ~nodes:n ())));
    ("campus", (1, seeded (fun ~rand n -> Topology.campus ~rand ~edge_switches:n ())));
  ]

let topology_arg =
  let doc =
    "Topology: line:N, star:N, mesh:N, waxman:N or campus:EDGES (seeded by --seed)."
  in
  let spec =
    checked
      (fun s ->
        match String.split_on_char ':' s with
        | [ kind; n ] -> Option.map (fun n -> (kind, n)) (int_of_string_opt n)
        | _ -> None)
      (fun ppf (kind, n) -> Format.fprintf ppf "%s:%d" kind n)
      "line:N, star:N, mesh:N or campus:N with N >= 1, or waxman:N with N >= 2"
      (fun (kind, n) ->
        match List.assoc_opt kind topologies with
        | Some (least, _) -> n >= least
        | None -> false)
  in
  Arg.(value & opt spec ("line", 8) & info [ "t"; "topology" ] ~docv:"KIND:N" ~doc)

let authorities_arg =
  let doc = "Comma-separated authority switch ids." in
  let ids =
    checked
      (fun s ->
        let ids =
          List.map (fun x -> int_of_string_opt (String.trim x)) (String.split_on_char ',' s)
        in
        if List.mem None ids then None else Some (List.filter_map Fun.id ids))
      Format.(pp_print_list ~pp_sep:(fun ppf () -> pp_print_char ppf ',') pp_print_int)
      "comma-separated switch ids >= 0"
      (List.for_all (fun id -> id >= 0))
  in
  Arg.(value & opt ids [ 1 ] & info [ "a"; "authorities" ] ~docv:"IDS" ~doc)

let k_arg =
  let doc = "Number of flowspace partitions." in
  Arg.(value & opt (int_at_least 1) 8 & info [ "k" ] ~docv:"K" ~doc)

let cache_arg =
  let doc = "Per-switch cache capacity (TCAM entries)." in
  Arg.(value & opt (int_at_least 0) 1000 & info [ "cache" ] ~docv:"N" ~doc)

let flows_arg =
  let doc = "Flows to simulate." in
  Arg.(value & opt (int_at_least 0) 20_000 & info [ "flows" ] ~docv:"N" ~doc)

let alpha_arg =
  let doc = "Zipf skew of flow popularity." in
  let skew =
    checked float_of_string_opt Format.pp_print_float "a number >= 0" (fun v -> v >= 0.)
  in
  Arg.(value & opt skew 1.0 & info [ "alpha" ] ~docv:"A" ~doc)

let load_policy_or_die policy_file =
  match Policy_io.load policy_file with
  | Ok policy -> policy
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1

let check_cmd =
  let run policy_file =
    let policy = load_policy_or_die policy_file in
    let shadowed = Classifier.shadowed policy in
    let dead = Classifier.dead_rules policy in
    Printf.printf "rules            : %d\n" (Classifier.length policy);
    Printf.printf "schema           : %s\n"
      (Format.asprintf "%a" Schema.pp (Classifier.schema policy));
    Printf.printf "total (no gaps)  : %b\n" (Classifier.is_total policy);
    Printf.printf "dependency depth : %d\n" (Classifier.dependency_depth policy);
    Printf.printf "overlapping pairs: %d\n" (Classifier.overlap_count policy);
    Printf.printf "shadowed rules   : %d\n" (List.length shadowed);
    List.iter
      (fun r -> Printf.printf "  shadowed: %s\n" (Format.asprintf "%a" Rule.pp r))
      shadowed;
    Printf.printf "dead rules       : %d\n" (List.length dead);
    List.iter
      (fun (r : Rule.t) ->
        if not (List.exists (fun (s : Rule.t) -> s.id = r.id) shadowed) then
          Printf.printf "  dead (combination): %s\n" (Format.asprintf "%a" Rule.pp r))
      dead
  in
  let doc = "Analyse a policy file: totality, dependency depth, shadowed/dead rules." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ policy_arg)

let faults_arg =
  let doc =
    "Run the simulation under a seeded fault plan with this control-frame loss rate \
     (0..1): the deployment is first pushed over lossy control channels (reliably, \
     with retransmission), then during the traffic run cache-install messages are \
     dropped at the rate, the first authority switch crashes a quarter of the way \
     into the run and restarts at the half-way mark, and misses with no live \
     replica degrade to the controller path."
  in
  Arg.(value & opt (some rate) None & info [ "faults" ] ~docv:"LOSS" ~doc)

(* The reliable-channel timers: --echo-interval and the --retx flags,
   each overriding its field of [base]. *)
let reliability_term (base : Control_plane.config) =
  let flag kind name docv doc = Arg.(value & opt (some kind) None & info [ name ] ~docv ~doc) in
  let mk echo_interval retx_timeout retx_backoff retx_limit =
    let ( |? ) flag default = Option.value ~default flag in
    {
      base with
      Control_plane.echo_interval = echo_interval |? base.echo_interval;
      retx_timeout = retx_timeout |? base.retx_timeout;
      retx_backoff = retx_backoff |? base.retx_backoff;
      retx_limit = retx_limit |? base.retx_limit;
    }
  in
  Term.(
    const mk
    $ flag (float_above 0.) "echo-interval" "S"
        "Controller echo-probe interval in seconds (liveness detection)."
    $ flag (float_above 0.) "retx-timeout" "S"
        "Seconds before the first retransmission of an unacked request."
    $ flag
        (checked float_of_string_opt Format.pp_print_float "a number >= 1" (fun v -> v >= 1.))
        "retx-backoff" "X" "Retransmission interval multiplier (exponential backoff factor)."
    $ flag (int_at_least 0) "retx-limit" "N" "Retransmissions before a request is given up.")

(* ---- congestion-model flags (finite buffers / backpressure) for deploy,
   whose timed replay runs Flowsim.  All off by default: the default
   Congestion.config is the infinite-buffer plane and published numbers
   assume it. ---- *)

let buffers_arg =
  let doc =
    "Per-port packet buffer capacity; arriving packets past it are shed drop-tail. \
     Omitted means infinite (legacy) buffers."
  in
  Arg.(value & opt (some (int_at_least 0)) None & info [ "buffers" ] ~docv:"N" ~doc)

let ecn_arg =
  let doc =
    "Mark packets congestion-experienced when their outgoing port queue is at least \
     this deep (telemetry only; no marking when omitted)."
  in
  Arg.(value & opt (some (int_at_least 0)) None & info [ "ecn" ] ~docv:"N" ~doc)

let model_bandwidth_arg =
  let doc =
    "Charge per-hop serialization delay (packet bits / link bandwidth) so link \
     bandwidth becomes a modelled resource."
  in
  Arg.(value & flag & info [ "model-bandwidth" ] ~doc)

let fc_arg =
  let doc =
    "Flow control for misses tunnelled to authority switches: $(b,drop-tail) sheds at \
     full port buffers, $(b,credit) backpressures the ingresses at a saturated \
     authority (they defer re-splicing and fall back to the controller path)."
  in
  Arg.(
    value
    & opt
        (enum [ ("drop-tail", Congestion.Drop_tail); ("credit", Congestion.Credit) ])
        Congestion.Drop_tail
    & info [ "fc" ] ~docv:"MODE" ~doc)

let credit_pool_arg =
  let doc = "Credit-mode: misses in flight allowed per authority switch." in
  Arg.(value & opt (some (int_at_least 1)) None & info [ "credit-pool" ] ~docv:"N" ~doc)

let credit_low_water_arg =
  let doc = "Credit-mode: backpressure when the pool drains to this many credits." in
  Arg.(
    value & opt (some (int_at_least 0)) None & info [ "credit-low-water" ] ~docv:"N" ~doc)

let packet_bits_arg =
  let doc = "Modelled packet size in bits (default 12000 — a 1500-byte MTU frame)." in
  Arg.(value & opt (some (int_at_least 1)) None & info [ "packet-bits" ] ~docv:"BITS" ~doc)

let congestion_term =
  let mk buffers ecn model_bw fc pool low bits =
    let d = Congestion.default in
    {
      Congestion.buffer_capacity = buffers;
      ecn_threshold = ecn;
      model_bandwidth = model_bw;
      mode = fc;
      credit_pool = Option.value ~default:d.Congestion.credit_pool pool;
      credit_low_water = Option.value ~default:d.Congestion.credit_low_water low;
      packet_bits = Option.value ~default:d.Congestion.packet_bits bits;
    }
  in
  Term.(
    const mk $ buffers_arg $ ecn_arg $ model_bandwidth_arg $ fc_arg $ credit_pool_arg
    $ credit_low_water_arg $ packet_bits_arg)

let deploy_cmd =
  let run policy_file (kind, n) authority_ids k cache flows alpha faults congestion seed
      cp_config metrics =
    with_metrics metrics @@ fun () ->
    let policy = load_policy_or_die policy_file in
    try
      let topology = (snd (List.assoc kind topologies)) ~seed n in
      (* checked here, not in [Deployment.build]: a rule forwarding off
         the topology would only fail mid-replay *)
      List.iter
        (fun (r : Rule.t) ->
          match Action.egress r.action with
          | Some e when e >= Topology.nodes topology ->
              invalid_arg
                (Printf.sprintf "rule %d forwards to switch %d, outside the %d-node topology"
                   r.id e (Topology.nodes topology))
          | _ -> ())
        (Classifier.rules policy);
      let config =
        { Deployment.default_config with k; cache_capacity = cache; balance = `Volume;
          congestion }
      in
      (* with faults the switches start blank and the configuration is
         pushed over the lossy control channels below — the realistic path *)
      let d =
        Deployment.build ~config ~install:(faults = None) ~policy ~topology
          ~authority_ids ()
      in
      let part = Deployment.partitioner d in
      Printf.printf "deployed %d rules as %d partitions over authorities %s\n"
        part.Partitioner.source_rules
        (List.length part.Partitioner.partitions)
        (String.concat "," (List.map string_of_int authority_ids));
      Printf.printf "TCAM: %d total entries (%.2fx), max %d per authority\n"
        part.Partitioner.total_entries part.Partitioner.duplication
        part.Partitioner.max_entries;
      let rng = Prng.create seed in
      let profile =
        {
          Traffic.default with
          flows;
          rate = 20_000.;
          alpha;
          distinct_headers = max 100 (flows / 10);
          packets_per_flow_mean = 3.0;
          ingresses = [ 0 ];
        }
      in
      let workload = Traffic.generate rng policy profile in
      let fault_plan =
        Option.map
          (fun loss ->
            let span = float_of_int flows /. profile.Traffic.rate in
            let victim = List.hd authority_ids in
            Fault.plan ~seed
              ~link:(Fault.lossy_link loss)
              ~events:
                [
                  Fault.Crash { switch = victim; at = span /. 4. };
                  Fault.Restart { switch = victim; at = span /. 2. };
                ]
              ())
          faults
      in
      (* control-plane phase: push the configuration reliably over the
         lossy channels before traffic starts, and report that work *)
      Option.iter
        (fun plan ->
          let cp =
            Control_plane.create ~config:cp_config
              ~faults:{ plan with Fault.events = [] }
              d
          in
          Control_plane.push_deployment cp ~now:0.;
          let step = 0.01 and horizon = 60.0 in
          let t = ref 0. in
          while
            !t < horizon
            && not
                 (Control_plane.pending_requests cp = 0
                 && Control_plane.in_flight cp = 0)
          do
            t := !t +. step;
            Control_plane.tick cp ~now:!t
          done;
          let s = Control_plane.stats cp in
          Printf.printf "control push   : converged in %.2f s simulated\n" !t;
          Printf.printf
            "  frames lost %d, corrupt %d, decode errors %d, duplicated %d, reordered %d\n"
            (s.Control_plane.dropped + s.Control_plane.link_dropped)
            s.Control_plane.corrupted s.Control_plane.decode_errors
            s.Control_plane.duplicated s.Control_plane.reordered;
          Printf.printf "  retransmissions %d, give-ups %d, still pending %d\n"
            (Control_plane.retransmissions cp)
            (Control_plane.giveups cp)
            (Control_plane.pending_requests cp))
        fault_plan;
      let r = Flowsim.run { Flowsim.Config.default with faults = fault_plan } d workload in
      Printf.printf "simulated %d flows (%d packets) over %.2f s\n" r.Flowsim.offered_flows
        r.Flowsim.delivered_packets r.Flowsim.duration;
      if Congestion.enabled congestion then
        Printf.printf
          "congestion     : %d queue drops, %d ECN marks, %d backpressured misses\n"
          r.Flowsim.queue_drops r.Flowsim.ecn_marks r.Flowsim.backpressured;
      Printf.printf "cache hit rate : %s\n"
        (Table.fmt_pct
           (float_of_int r.Flowsim.cache_hit_packets
           /. float_of_int (max 1 r.Flowsim.delivered_packets)));
      (match r.Flowsim.first_packet_delay with
      | Some s ->
          Printf.printf "first-packet delay: p50 %.0f us, p99 %.0f us\n"
            (1e6 *. s.Summary.p50) (1e6 *. s.Summary.p99)
      | None -> ());
      if Array.length r.Flowsim.stretches > 0 then begin
        let s = Summary.of_array r.Flowsim.stretches in
        Printf.printf "miss stretch   : mean %.2f, p95 %.2f\n" s.Summary.mean s.Summary.p95
      end;
      Option.iter
        (fun loss ->
          Printf.printf
            "faults (%s loss): %d installs lost, %d packets served degraded, %d flows \
             dropped\n"
            (Table.fmt_pct loss) r.Flowsim.install_drops r.Flowsim.degraded_packets
            r.Flowsim.dropped_flows;
          Printf.printf "  degraded misses %d (controller-served), outage drops %d\n"
            (Deployment.degraded_misses d)
            r.Flowsim.outage_drops)
        faults
    with Invalid_argument e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
  in
  let doc = "Deploy a policy file over a topology and simulate Zipf traffic." in
  Cmd.v (Cmd.info "deploy" ~doc)
    Term.(
      const run $ policy_arg $ topology_arg $ authorities_arg $ k_arg $ cache_arg
      $ flows_arg $ alpha_arg $ faults_arg $ congestion_term $ seed_arg
      $ reliability_term Control_plane.default_config $ metrics_arg)

let partition_cmd =
  let run policy_file k max_entries =
    let policy = load_policy_or_die policy_file in
    let part =
      match max_entries with
      | Some budget -> Partitioner.compute_bounded policy ~max_entries:budget
      | None -> Partitioner.compute policy ~k
    in
    Printf.printf "%d rules -> %d partitions, %d total entries (%.2fx), max %d
"
      part.Partitioner.source_rules
      (List.length part.Partitioner.partitions)
      part.Partitioner.total_entries part.Partitioner.duplication
      part.Partitioner.max_entries;
    Table.print ~title:"partitions"
      ~header:[ "pid"; "entries"; "region" ]
      (part.Partitioner.partitions
      |> List.sort (fun (a : Partitioner.partition) b ->
             Int.compare (Classifier.length b.table) (Classifier.length a.table))
      |> List.filteri (fun i _ -> i < 32)
      |> List.map (fun (p : Partitioner.partition) ->
             [
               string_of_int p.pid;
               string_of_int (Classifier.length p.table);
               Pred.to_string p.region;
             ]))
  in
  let max_entries_arg =
    let doc = "Split until every partition fits this TCAM budget (overrides --k)." in
    Arg.(value & opt (some (int_at_least 1)) None & info [ "max-entries" ] ~docv:"N" ~doc)
  in
  let doc = "Partition a policy file and print the per-authority TCAM cost." in
  Cmd.v (Cmd.info "partition" ~doc) Term.(const run $ policy_arg $ k_arg $ max_entries_arg)

let optimize_cmd =
  let run policy_file output =
    let policy = load_policy_or_die policy_file in
    let minimised, report = Optimize.minimise policy in
    Printf.printf "%s\n" (Format.asprintf "%a" Optimize.pp_report report);
    match output with
    | None -> print_string (Policy_io.to_string minimised)
    | Some path ->
        Policy_io.save path minimised;
        Printf.printf "written to %s\n" path
  in
  let output_arg =
    let doc = "Write the minimised policy here instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Minimise a policy file (redundancy removal + sibling merging), exactly."
  in
  Cmd.v (Cmd.info "optimize" ~doc) Term.(const run $ policy_arg $ output_arg)

(* adaptive-rebalancing detection knobs, shared by rebalance | monitor *)
let hotspot_threshold_arg =
  let doc =
    "An authority is hot in a window when its miss load exceeds this multiple of the \
     fair per-authority share (> 1.0)."
  in
  Arg.(value & opt (float_above 1.) 2.0 & info [ "hotspot-threshold" ] ~docv:"X" ~doc)

let hotspot_window_arg =
  let doc = "Consecutive hot windows before a hotspot counts as persistent." in
  Arg.(value & opt (int_at_least 1) 3 & info [ "hotspot-window" ] ~docv:"N" ~doc)

(* An experiment of the scenario table as a subcommand, with the options
   its report takes. *)
let report_cmd (s : Experiments.scenario) =
  let print f ~seed ~quick = print_string (f ~seed ~quick) in
  Option.map
    (fun (render : Experiments.render) ->
      experiment s.name s.doc
        (match render with
        | Plain f -> Term.const (print f)
        | Faults f ->
            Term.(
              const (fun cp_config -> print (f ~cp_config))
              $ reliability_term Experiments.fault_cp_config)
        | Sharded f ->
            Term.(const (fun domains -> print (f ~domains)) $ domains_arg)
        | Hotspot f ->
            Term.(
              const (fun hotspot_threshold hotspot_window ->
                  print (f ~hotspot_threshold ~hotspot_window))
              $ hotspot_threshold_arg $ hotspot_window_arg)))
    s.render

(* The scenario-table entries [keep] selects, and a doc listing them. *)
let entries keep =
  let es = List.filter keep Experiments.scenarios in
  let doc (s : Experiments.scenario) = Printf.sprintf "$(b,%s): %s" s.name s.doc in
  (es, String.concat " " (List.map doc es))

(* Scenario-table entries picked by name.  The enum maps names to names,
   not to entries: cmdliner prints a default by comparing enum values,
   and entries hold closures. *)
let scenario_enum entries =
  Arg.enum (List.map (fun (s : Experiments.scenario) -> (s.name, s.name)) entries)

let scenario_named entries name =
  List.find (fun (s : Experiments.scenario) -> String.equal s.name name) entries

let paths_cmd =
  let scenario_arg =
    let replays, listed = entries (fun s -> Option.is_some s.replay) in
    let doc = "Scenario to replay with postcard tracing enabled. " ^ listed in
    Term.(
      const (fun name -> Option.get (scenario_named replays name).replay)
      $ Arg.(
          value
          & opt (scenario_enum replays) "rebalance"
          & info [ "scenario" ] ~docv:"NAME" ~doc))
  in
  let capacity_arg =
    let doc = "Postcard ring capacity per shard: the newest N postcards survive." in
    Arg.(value & opt (int_at_least 1) 65536 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let flow_arg =
    let doc =
      "Keep only the path(s) of this packed 5-tuple key, written $(b,HI:LO) in hex \
       (as printed in the text output) or a single hex value (high lane 0)."
    in
    Arg.(value & opt (some string) None & info [ "flow" ] ~docv:"KEY" ~doc)
  in
  let switch_arg =
    let doc = "Keep only paths with at least one hop at this switch." in
    Arg.(value & opt (some (int_at_least 0)) None & info [ "switch" ] ~docv:"ID" ~doc)
  in
  let outcome_arg =
    let doc = "Keep only paths with this outcome: $(b,delivered), $(b,dropped) or $(b,incomplete)." in
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("delivered", `Delivered); ("dropped", `Dropped);
                  ("incomplete", `Incomplete) ]))
          None
      & info [ "outcome" ] ~docv:"O" ~doc)
  in
  let since_arg =
    let doc =
      "Keep only timeline events and paths starting at or after this simulated time \
       (seconds)."
    in
    Arg.(value & opt (some time) None & info [ "since" ] ~docv:"T" ~doc)
  in
  let until_arg =
    let doc =
      "Keep only timeline events and paths starting at or before this simulated time \
       (seconds)."
    in
    Arg.(value & opt (some time) None & info [ "until" ] ~docv:"T" ~doc)
  in
  let loss_arg =
    let doc = "Control-frame loss rate for the fault scenarios' replay (0..1)." in
    Arg.(value & opt rate 0.10 & info [ "loss" ] ~docv:"LOSS" ~doc)
  in
  let json_arg =
    let doc = "Print the selected paths as a difane-paths-v1 JSON document." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let limit_arg =
    let doc = "Paths spelled out in the text rendering." in
    Arg.(value & opt (int_at_least 0) 20 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let run seed quick replay domains capacity flow switch outcome since until json limit
      loss reliability =
    Telemetry.reset ();
    Ptrace.enable ~capacity ();
    let { Experiments.describe; timeline } =
      replay { (Experiments.replay_args ~seed ~quick) with domains; loss; reliability }
    in
    Ptrace.disable ();
    let t = Paths.reconstruct () in
    let q_key =
      match flow with
      | None -> None
      | Some s -> (
          let hex v = int_of_string ("0x" ^ v) in
          try
            match String.index_opt s ':' with
            | Some i ->
                Some
                  ( hex (String.sub s (i + 1) (String.length s - i - 1)),
                    hex (String.sub s 0 i) )
            | None -> Some (hex s, 0)
          with _ ->
            Printf.eprintf "error: --flow expects HI:LO (hex) or a hex key\n";
            exit 2)
    in
    let q =
      { Paths.q_key; q_switch = switch; q_outcome = outcome; q_since = since;
        q_until = until }
    in
    let sel = Paths.select q t in
    if json then (print_string (Paths.to_json ~paths:sel t); print_newline ())
    else begin
      let within at =
        Option.fold ~none:true ~some:(fun t -> at >= t) since
        && Option.fold ~none:true ~some:(fun t -> at <= t) until
      in
      List.iter
        (fun (at, source, detail) ->
          if within at then Format.printf "%10.3f  %-10s %s@\n" at source detail)
        timeline;
      Paths.pp ?describe ~limit Format.std_formatter sel;
      Paths.pp_summary Format.std_formatter t;
      Format.print_flush ()
    end
  in
  let doc =
    "Replay one scenario with causal packet-path tracing enabled, reconstruct \
     per-packet paths from the postcard rings and query them (by 5-tuple key, switch, \
     outcome, time window).  The text rendering opens with the replay's control-plane \
     timeline (simulated time, source, event).  $(b,difane gate paths-NAME) checks \
     the paths' causal invariants."
  in
  Cmd.v (Cmd.info "paths" ~doc)
    Term.(
      const run $ seed_arg $ quick_arg
      $ scenario_arg $ domains_arg $ capacity_arg $ flow_arg $ switch_arg $ outcome_arg
      $ since_arg $ until_arg $ json_arg $ limit_arg $ loss_arg
      $ reliability_term Experiments.fault_cp_config)

let monitor_cmd =
  let sample_rate_arg =
    let doc = "Flow sampling rate: account every Nth packet (NetFlow-style 1-in-N)." in
    Arg.(value & opt (int_at_least 1) 1 & info [ "sample-rate" ] ~docv:"N" ~doc)
  in
  let interval_arg =
    let doc =
      "Time-series sampling interval in simulated seconds (default: 1/20 of the run)."
    in
    Arg.(value & opt (some (float_above 0.)) None & info [ "interval" ] ~docv:"S" ~doc)
  in
  let threshold_arg =
    let doc = "Hotspot threshold as a multiple of the fair per-authority share (> 1.0)." in
    Arg.(value & opt (float_above 1.) 1.5 & info [ "threshold" ] ~docv:"X" ~doc)
  in
  let top_k_arg =
    let doc = "Heavy-hitter rules to report." in
    Arg.(value & opt (int_at_least 0) 10 & info [ "top" ] ~docv:"K" ~doc)
  in
  let json_arg =
    let doc = "Print the monitor report as a difane-monitor-v1 JSON document." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let flows_out_arg =
    let doc = "Write the sampled flow records (difane-flows-v1 JSON) to this file." in
    Arg.(value & opt (some string) None & info [ "flows-out" ] ~docv:"FILE" ~doc)
  in
  let run seed quick alpha sample_rate interval threshold hotspot_window top_k json
      flows_out =
    let ((m, _) as run) =
      Experiments.E_mon.run_monitored ~seed ~quick ~alpha ~sample_rate ?interval
        ~threshold ~top_k ()
    in
    if json then print_endline (Monitor.to_json m)
    else print_string (Experiments.E_mon.render ~hotspot_window run);
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Flow_records.to_json (Monitor.flow_records m));
        output_char oc '\n';
        close_out oc;
        Format.eprintf "flow records written to %s@." path)
      flows_out
  in
  let doc =
    "Run the monitored skewed-Zipf scenario and report heavy-hitter rules with      provenance chains, per-region cache efficacy, the per-authority load timeline      and any authority hotspots.  Deterministic for a fixed seed."
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    Term.(
      const run $ seed_arg $ quick_arg $ alpha_arg $ sample_rate_arg $ interval_arg
      $ threshold_arg $ hotspot_window_arg $ top_k_arg
      $ json_arg $ flows_out_arg)

let gate_cmd =
  let gates, listed = entries (fun _ -> true) in
  let names_arg =
    let doc = "Gates to run. " ^ listed in
    Arg.(non_empty & pos_all (scenario_enum gates) [] & info [] ~docv:"NAME" ~doc)
  in
  let run seed quick domains names =
    let failed =
      List.filter
        (fun name ->
          let fs = Experiments.run_gate (scenario_named gates name) ~seed ~quick ~domains in
          flush stdout;
          List.iter (fun f -> Printf.eprintf "gate %s FAILED: %s\n%!" name f) fs;
          fs <> [])
        names
    in
    if failed <> [] then exit 1
  in
  let doc =
    "Run CI gates: each scenario runs at one domain and again at $(b,--domains), \
     prints its report, and must report no violated invariant and a byte-identical \
     fingerprint both times.  Exits 1 otherwise."
  in
  Cmd.v (Cmd.info "gate" ~doc)
    Term.(const run $ seed_arg $ quick_arg $ domains_arg $ names_arg)

let all_cmd =
  experiment "all" "Run every experiment in DESIGN.md order"
    (Term.const (fun ~seed ~quick -> Experiments.run_all ~seed ~quick print_string))

let commands =
  List.filter_map report_cmd Experiments.scenarios
  @ [ all_cmd; paths_cmd; monitor_cmd; gate_cmd; check_cmd; deploy_cmd;
      partition_cmd; optimize_cmd ]

let main =
  let doc = "reproduce the DIFANE (SIGCOMM 2010) evaluation" in
  Cmd.group (Cmd.info "difane" ~version:"1.0.0" ~doc) commands

let () = exit (Cmd.eval main)
