type config = {
  flow : Flow_records.config;
  interval : float;
  capacity : int;
  threshold : float;
  top_k : int;
}

let default_config =
  {
    flow = Flow_records.default_config;
    interval = 0.05;
    capacity = 1024;
    threshold = 1.5;
    top_k = 10;
  }

type t = {
  cfg : config;
  d : Deployment.t;
  flows : Flow_records.t;
  sampler : Sampler.t;
  authorities : int list;  (* ascending; one sampler series each, in order *)
  mutable last_sweep : float;
}

let served sw = (Switch.stats sw).Switch.authority_hits

(* Authority load is what the hotspot detector reads: each authority's
   misses served since [create], from the same switch counter the
   adaptive rebalancer reads. *)
let create ?(config = default_config) d =
  let sampler = Sampler.create ~capacity:config.capacity ~interval:config.interval () in
  let authorities = List.sort Int.compare (Deployment.authority_ids d) in
  List.iter
    (fun id ->
      let sw = Deployment.switch d id in
      let base = served sw in
      Sampler.track sampler (fun () -> Int64.to_float (Int64.sub (served sw) base)))
    authorities;
  {
    cfg = config;
    d;
    flows = Flow_records.create ~config:config.flow ();
    sampler;
    authorities;
    last_sweep = 0.;
  }

let flow_records t = t.flows

let observe_packet t ~now ~ingress header =
  Flow_records.observe t.flows ~now ~ingress header;
  Sampler.tick t.sampler ~now;
  (* piggyback flow-cache aging on the sampler cadence so idle flows
     export near their deadline instead of all at the end *)
  if now -. t.last_sweep >= t.cfg.interval then begin
    Flow_records.sweep t.flows ~now;
    t.last_sweep <- now
  end

let finish t ~now =
  Sampler.finish t.sampler ~now;
  Flow_records.flush t.flows ~now

(* {2 Rule attribution} *)

type rule_report = {
  rule_id : int;
  priority : int;
  partitions : (int * int) list;
  cache_hits : int64;
  authority_hits : int64;
}

let rule_total r = Int64.add r.cache_hits r.authority_hits

(* pid -> authority switch, and rule id -> the partitions holding a clip
   of it: the static half of the provenance chain *)
let chain_of t rule_id =
  let asg = Deployment.assignment t.d in
  (Deployment.partitioner t.d).Partitioner.partitions
  |> List.filter_map (fun (p : Partitioner.partition) ->
         match Classifier.find p.Partitioner.table rule_id with
         | Some _ -> Some (p.Partitioner.pid, Assignment.switch_for asg p.Partitioner.pid)
         | None -> None)

(* The trace-side provenance join: decode the (origin, pid) pair a
   Cache_hit/Install postcard carries into the human chain
   policy rule -> partition -> authority switch.  Components the
   deployment no longer knows (retired pids, deleted rules) degrade to
   a marker instead of hiding the rest of the chain. *)
let describe_provenance t ~origin ~pid =
  if origin < 0 && pid < 0 then None
  else begin
    let rule_part =
      if origin < 0 then "rule ?"
      else
        match Classifier.find (Deployment.policy t.d) origin with
        | Some (r : Rule.t) -> Printf.sprintf "rule %d prio %d" origin r.Rule.priority
        | None -> Printf.sprintf "rule %d (retired)" origin
    in
    let part_part =
      if pid < 0 then ""
      else
        match Assignment.switch_for (Deployment.assignment t.d) pid with
        | auth -> Printf.sprintf " -> pid %d @ authority %d" pid auth
        | exception Not_found -> Printf.sprintf " -> pid %d (retired)" pid
    in
    Some (rule_part ^ part_part)
  end

let rule_reports t =
  let cache = Hashtbl.create 64 and auth = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (Int64.add v (Option.value ~default:0L (Hashtbl.find_opt tbl k)))
  in
  Array.iter
    (fun sw ->
      List.iter
        (fun (id, c, a) ->
          bump cache id c;
          bump auth id a)
        (Switch.origin_breakdown sw))
    (Deployment.switches t.d);
  Classifier.rules (Deployment.policy t.d)
  |> List.map (fun (r : Rule.t) ->
         {
           rule_id = r.Rule.id;
           priority = r.Rule.priority;
           partitions = chain_of t r.Rule.id;
           cache_hits = Option.value ~default:0L (Hashtbl.find_opt cache r.Rule.id);
           authority_hits = Option.value ~default:0L (Hashtbl.find_opt auth r.Rule.id);
         })
  |> List.sort (fun a b -> Int.compare a.rule_id b.rule_id)

let heavy_hitters ?k t =
  let k = Option.value ~default:t.cfg.top_k k in
  rule_reports t
  |> List.filter (fun r -> rule_total r > 0L)
  |> List.stable_sort (fun a b -> Int64.compare (rule_total b) (rule_total a))
  |> List.filteri (fun i _ -> i < k)

(* Policy rules no packet ever hit, ascending id. *)
let dead_rules t = List.filter (fun r -> rule_total r = 0L) (rule_reports t)

type region_report = {
  pid : int;
  authority : int;
  region_cache_hits : int64;
  misses_served : int64;
  efficacy : float;
}

(* Per-partition cache hits / (hits + misses served), ascending pid. *)
let region_efficacy t =
  let cache = Hashtbl.create 16 and miss = Hashtbl.create 16 in
  let bump tbl k v =
    Hashtbl.replace tbl k (Int64.add v (Option.value ~default:0L (Hashtbl.find_opt tbl k)))
  in
  Array.iter
    (fun sw ->
      List.iter (fun (pid, n) -> bump cache pid n) (Switch.cache_load sw);
      List.iter (fun (pid, n) -> bump miss pid n) (Switch.partition_load sw))
    (Deployment.switches t.d);
  let asg = Deployment.assignment t.d in
  (Deployment.partitioner t.d).Partitioner.partitions
  |> List.map (fun (p : Partitioner.partition) ->
         let pid = p.Partitioner.pid in
         let c = Option.value ~default:0L (Hashtbl.find_opt cache pid) in
         let m = Option.value ~default:0L (Hashtbl.find_opt miss pid) in
         let total = Int64.add c m in
         {
           pid;
           authority = Assignment.switch_for asg pid;
           region_cache_hits = c;
           misses_served = m;
           efficacy =
             (if total = 0L then 0.
              else Int64.to_float c /. Int64.to_float total);
         })
  |> List.sort (fun a b -> Int.compare a.pid b.pid)

(* {2 Timelines and hotspots} *)

let authority_series t =
  List.map2
    (fun id (s : Sampler.series) -> (id, s.Sampler.points))
    t.authorities (Sampler.series t.sampler)

let persistent_hotspots ?(windows = 3) t =
  Hotspot.detect ~threshold:t.cfg.threshold ~windows
    (List.map
       (fun (id, pts) -> (id, Array.map (fun (p : Sampler.point) -> (p.at, p.v)) pts))
       (authority_series t))

let hotspots t = persistent_hotspots ~windows:1 t

(* {2 Reports} *)

let fl = Printf.sprintf "%.9g"

(* JSON contexts must never print nan/inf raw (unparseable document);
   finite values keep the compact %.9g spelling. *)
let jf f = if Float.is_finite f then fl f else Telemetry.json_float f

let points_json pts =
  let b = Buffer.create 128 in
  Buffer.add_char b '[';
  Array.iteri
    (fun i (p : Sampler.point) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"t\":%s,\"v\":%s}" (jf p.Sampler.at) (jf p.Sampler.v)))
    pts;
  Buffer.add_char b ']';
  Buffer.contents b

let to_json t =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"schema\":\"difane-monitor-v1\"";
  Buffer.add_string b (Printf.sprintf ",\"interval\":%s" (jf t.cfg.interval));
  Buffer.add_string b ",\"heavy_hitters\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      let chain =
        r.partitions
        |> List.map (fun (pid, auth) ->
               Printf.sprintf "{\"pid\":%d,\"authority\":%d}" pid auth)
        |> String.concat ","
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"rule\":%d,\"priority\":%d,\"cache_hits\":%Ld,\"authority_hits\":%Ld,\
            \"partitions\":[%s]}"
           r.rule_id r.priority r.cache_hits r.authority_hits chain))
    (heavy_hitters t);
  Buffer.add_string b "],\"dead_rules\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int r.rule_id))
    (dead_rules t);
  Buffer.add_string b "],\"regions\":[";
  List.iteri
    (fun i (r : region_report) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"pid\":%d,\"authority\":%d,\"cache_hits\":%Ld,\"misses_served\":%Ld,\
            \"efficacy\":%s}"
           r.pid r.authority r.region_cache_hits r.misses_served (jf r.efficacy)))
    (region_efficacy t);
  Buffer.add_string b "],\"authority_load\":[";
  List.iteri
    (fun i (id, pts) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"switch\":%d,\"points\":%s}" id (points_json pts)))
    (authority_series t);
  Buffer.add_string b "],\"hotspots\":[";
  List.iteri
    (fun i (e : Hotspot.event) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"window_start\":%s,\"window_end\":%s,\"switch\":%d,\"load\":%s,\
            \"total\":%s,\"share\":%s,\"ratio\":%s}"
           (jf e.Hotspot.window_start) (jf e.Hotspot.window_end) e.Hotspot.switch_id
           (jf e.Hotspot.load) (jf e.Hotspot.total) (jf e.Hotspot.share)
           (jf e.Hotspot.ratio)))
    (hotspots t);
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_chain ppf partitions =
  match partitions with
  | [] -> Format.fprintf ppf "(no partition holds it)"
  | ps ->
      Format.fprintf ppf "via %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf (pid, auth) -> Format.fprintf ppf "pid %d@@sw%d" pid auth))
        ps

let pp ppf t =
  let hh = heavy_hitters t in
  Format.fprintf ppf "== heavy hitters (top %d of %d live rules) ==@."
    (List.length hh)
    (List.length (List.filter (fun r -> rule_total r > 0L) (rule_reports t)));
  List.iter
    (fun r ->
      Format.fprintf ppf "  rule %d (prio %d): %Ld hits (%Ld cache + %Ld authority) %a@."
        r.rule_id r.priority (rule_total r) r.cache_hits r.authority_hits pp_chain
        r.partitions)
    hh;
  (match dead_rules t with
  | [] -> Format.fprintf ppf "== dead rules == (none)@."
  | dead ->
      Format.fprintf ppf "== dead rules (%d, never hit) ==@.  %a@." (List.length dead)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf r -> Format.fprintf ppf "%d" r.rule_id))
        dead);
  Format.fprintf ppf "== region cache efficacy ==@.";
  List.iter
    (fun (r : region_report) ->
      Format.fprintf ppf
        "  pid %d @@ sw%d: %Ld cache hits, %Ld misses served (efficacy %.1f%%)@." r.pid
        r.authority r.region_cache_hits r.misses_served (100. *. r.efficacy))
    (region_efficacy t);
  Format.fprintf ppf "== authority load timeline (cumulative misses served) ==@.";
  let series = authority_series t in
  let windows = List.fold_left (fun m (_, p) -> max m (Array.length p)) 0 series in
  for w = 0 to windows - 1 do
    let at =
      List.fold_left
        (fun acc (_, pts) ->
          if w < Array.length pts then pts.(w).Sampler.at else acc)
        0. series
    in
    Format.fprintf ppf "  t=%-8s" (fl at);
    List.iter
      (fun (id, pts) ->
        let v = if w < Array.length pts then pts.(w).Sampler.v else 0. in
        Format.fprintf ppf " sw%d=%-6s" id (fl v))
      series;
    Format.fprintf ppf "@."
  done;
  (match hotspots t with
  | [] -> Format.fprintf ppf "== hotspots == (none)@."
  | events ->
      Format.fprintf ppf "== hotspots (%d windows over %.2fx fair share) ==@."
        (List.length events) t.cfg.threshold;
      List.iter (fun e -> Format.fprintf ppf "  %a@." Hotspot.pp_event e) events);
  let fr = t.flows in
  Format.fprintf ppf
    "== flow records == %d exported (%d packets observed, %d sampled, 1-in-%d)@."
    (List.length (Flow_records.exports fr))
    (Flow_records.observed_packets fr)
    (Flow_records.sampled_packets fr)
    (Flow_records.config fr).Flow_records.sample_rate

let pp_persistent ~windows ppf t =
  let title = Printf.sprintf "== persistent hotspots (>= %d consecutive windows) ==" windows in
  match persistent_hotspots ~windows t with
  | [] -> Format.fprintf ppf "%s (none)@." title
  | events ->
      Format.fprintf ppf "%s@." title;
      List.iter (fun e -> Format.fprintf ppf "  %a@." Hotspot.pp_event e) events
