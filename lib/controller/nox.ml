type config = {
  cache_capacity : int;
  idle_timeout : float option;
  rtt : float;
  service_time : float;
}

let default_config =
  { cache_capacity = 10_000; idle_timeout = Some 10.; rtt = 10e-3; service_time = 50e-6 }

type t = {
  policy : Classifier.t;
  topology : Topology.t;
  switches : Switch.t array;
  config : config;
  mutable packet_ins : int64;
  mutable next_rule_id : int;
}

let build ?(config = default_config) ~policy ~topology () =
  {
    policy;
    topology;
    switches =
      Array.init (Topology.nodes topology) (fun id ->
          Switch.create ~id ~cache_capacity:config.cache_capacity);
    config;
    packet_ins = 0L;
    next_rule_id = 3_000_000;
  }

let policy t = t.policy
let topology t = t.topology
let config t = t.config
let switch t i = t.switches.(i)

type outcome = {
  action : Action.t;
  punted : bool;
  path : int list;
  latency : float;
  installed : Rule.t option;
}

let microflow_rule t ~id h action =
  let schema = Classifier.schema t.policy in
  let pred =
    Pred.make schema
      (List.init (Schema.arity schema) (fun i ->
           Ternary.exact ~width:(Schema.field_bits schema i) (Header.field h i)))
  in
  Rule.make ~id ~priority:1 pred action

let inject t ~now ~ingress h =
  let sw = t.switches.(ingress) in
  match Tcam.lookup (Switch.cache sw) ~now h with
  | Some r ->
      let path, latency = Deployment.deliver t.topology ~from:ingress r.Rule.action in
      { action = r.Rule.action; punted = false; path; latency; installed = None }
  | None ->
      t.packet_ins <- Int64.add t.packet_ins 1L;
      let action = Option.value ~default:Action.Drop (Classifier.action t.policy h) in
      let id = t.next_rule_id in
      t.next_rule_id <- id + 1;
      let rule = microflow_rule t ~id h action in
      ignore
        (Tcam.insert_or_evict ?idle_timeout:t.config.idle_timeout (Switch.cache sw) ~now rule);
      let path, dlat = Deployment.deliver t.topology ~from:ingress action in
      {
        action;
        punted = true;
        path;
        latency = t.config.rtt +. t.config.service_time +. dlat;
        installed = Some rule;
      }

let packet_ins t = t.packet_ins
