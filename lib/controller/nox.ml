type config = { cache_capacity : int; idle_timeout : float option }

let default_config = { cache_capacity = 10_000; idle_timeout = Some 10. }

type t = {
  policy : Classifier.t;
  topology : Topology.t;
  switches : Switch.t array;
  config : config;
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
    next_rule_id = 3_000_000;
  }

let topology t = t.topology
let switch t i = t.switches.(i)

type outcome = { action : Action.t; punted : bool; installed : Rule.t option }

let inject t ~now ~ingress h =
  let sw = t.switches.(ingress) in
  match Tcam.lookup (Switch.cache sw) ~now h with
  | Some r -> { action = r.Rule.action; punted = false; installed = None }
  | None ->
      let action = Option.value ~default:Action.Drop (Classifier.action t.policy h) in
      let id = t.next_rule_id in
      t.next_rule_id <- id + 1;
      let rule = Rule.make ~id ~priority:1 (Pred.exact (Classifier.schema t.policy) h) action in
      ignore
        (Tcam.insert_or_evict ?idle_timeout:t.config.idle_timeout (Switch.cache sw) ~now rule);
      { action; punted = true; installed = Some rule }

