type config = {
  cache_idle_timeout : float option;
  cache_hard_timeout : float option;
  cache_mode : [ `Spliced | `Microflow ];
  max_ttl : int;
}

let default_config =
  { cache_idle_timeout = Some 10.; cache_hard_timeout = None; cache_mode = `Spliced;
    max_ttl = 64 }

type drop_reason =
  | Ttl
  | Unmatched
  | Misconfigured
  | Unreachable
  | No_authority
  | Queue_full

type result = {
  action : Action.t;
  delivered : bool;
  drop_reason : drop_reason option;
  trace : int list;
  encapsulations : int;
  latency : float;
  marked : bool;
}

(* Mutable walk state: the packet's position, hop trace (reversed),
   remaining TTL, accumulated latency (propagation + queueing when the
   congestion model is on) and ECN mark. *)
type walk = {
  topology : Topology.t;
  congestion : Congestion.t option;
  mutable at : int;
  mutable rev_trace : int list;
  mutable ttl : int;
  mutable latency : float;
  mutable encaps : int;
  mutable marked : bool;
}

(* One hop: queue at the egress port of the current switch (finite
   buffers can shed the packet here), then pay propagation. *)
let hop w ~now next =
  match Topology.link_between w.topology w.at next with
  | None -> invalid_arg "Dataplane: next hop is not adjacent"
  | Some l -> (
      let queueing =
        match w.congestion with
        | None -> `Forward (0., false)
        | Some c -> Congestion.transit c ~now:(now +. w.latency) ~from:w.at l
      in
      match queueing with
      | `Drop -> `Dropped
      | `Forward (wait, marked) ->
          if marked then w.marked <- true;
          w.latency <- w.latency +. wait +. l.Topology.latency;
          w.at <- next;
          w.rev_trace <- next :: w.rev_trace;
          w.ttl <- w.ttl - 1;
          Ptrace.emit ~at:(now +. w.latency) Ptrace.Transit ~switch:next ~rule:(-1)
            ~aux:(if marked then 1 else 0);
          `Forwarded)

(* Carry an encapsulated packet to its tunnel endpoint along the
   underlay's shortest path.  Transit switches forward on it only — no
   flow-table lookups. *)
let tunnel_to w ~now dst =
  w.encaps <- w.encaps + 1;
  let rec go = function
    | [] -> `Arrived
    | next :: rest ->
        if w.ttl <= 0 then `Ttl_exceeded
        else (match hop w ~now next with `Dropped -> `Queue_full | `Forwarded -> go rest)
  in
  match Topology.shortest_path w.topology w.at dst with
  | None -> `Unreachable
  | Some path -> go (List.tl path)

let finish w ~action ~delivered ~drop_reason =
  {
    action;
    delivered;
    drop_reason;
    trace = List.rev w.rev_trace;
    encapsulations = w.encaps;
    latency = w.latency;
    marked = w.marked;
  }

let reason_code = function
  | Ttl -> 2 (* Ptrace's "ttl" code: only this walk can exhaust a TTL *)
  | Unmatched -> Ptrace.drop_unmatched
  | Misconfigured -> Ptrace.drop_misconfigured
  | Unreachable -> Ptrace.drop_unreachable
  | No_authority -> Ptrace.drop_no_authority
  | Queue_full -> Ptrace.drop_queue_full

let dropped w ~now reason =
  Ptrace.emit ~at:(now +. w.latency) Ptrace.Drop ~switch:w.at ~rule:(-1)
    ~aux:(reason_code reason);
  finish w ~action:Action.Drop ~delivered:false ~drop_reason:(Some reason)

let delivered_at w ~now action =
  Ptrace.emit ~at:(now +. w.latency) Ptrace.Deliver ~switch:w.at ~rule:(-1) ~aux:0;
  finish w ~action ~delivered:true ~drop_reason:None

let deliver_action w ~now action =
  (* a forwarding action tunnels to the egress switch; anything else
     terminates where we stand — a matched [Drop] is a policy verdict,
     not a network drop, so [drop_reason] stays [None] *)
  match Action.egress action with
  | None -> delivered_at w ~now action
  | Some egress -> (
      if egress = w.at then delivered_at w ~now action
      else
        match tunnel_to w ~now egress with
        | `Arrived -> delivered_at w ~now action
        | `Ttl_exceeded -> dropped w ~now Ttl
        | `Unreachable -> dropped w ~now Unreachable
        | `Queue_full -> dropped w ~now Queue_full)

let packet ?(config = default_config) ?congestion ~topology ~switch ~now ~ingress header =
  let w =
    { topology; congestion; at = ingress; rev_trace = [ ingress ]; ttl = config.max_ttl;
      latency = 0.; encaps = 0; marked = false }
  in
  ignore (Ptrace.begin_packet header);
  let ingress_sw = switch ingress in
  match Switch.process ingress_sw ~now header with
  | Switch.Local (action, _) -> deliver_action w ~now action
  | Switch.Unmatched -> dropped w ~now Unmatched
  | Switch.Misconfigured -> dropped w ~now Misconfigured
  | Switch.Tunnel authority -> (
      if authority = w.at then
        (* the ingress is the authority's neighbourless corner case: a
           partition rule pointing at self would be a controller bug *)
        dropped w ~now No_authority
      else
        match tunnel_to w ~now authority with
        | `Ttl_exceeded -> dropped w ~now Ttl
        | `Unreachable -> dropped w ~now Unreachable
        | `Queue_full -> dropped w ~now Queue_full
        | `Arrived -> (
            match Switch.serve_miss ~mode:config.cache_mode (switch authority) ~now header with
            | None -> dropped w ~now No_authority
            | Some { Switch.action; installs; _ } ->
                List.iter
                  (fun (r, meta) ->
                    ignore
                      (Switch.install_cache_meta
                         ?idle_timeout:config.cache_idle_timeout
                         ?hard_timeout:config.cache_hard_timeout ingress_sw ~now r
                         (Some meta)))
                  installs;
                (* batch boundary: see Aggregate.install — an eviction
                   during the batch may have broken a cover group *)
                ignore (Switch.drop_cover_orphans ingress_sw ~now);
                deliver_action w ~now action))
