(* Differential equivalence gate for cache-rule aggregation.

   Aggregation (Aggregate) may only change *which entries* sit in the
   ingress TCAMs — never what happens to a packet.  This module is the
   executable form of that claim: build two deployments identical in
   every respect except [config.aggregation], drive both with the same
   randomized policies, packet streams and cache-management operations
   (expiry, flush, targeted invalidation), and demand bit-identical
   forwarding actions packet by packet.  `difane gate aggregate` exits
   nonzero on any divergence. *)

type mismatch = {
  case : int;
  step : int;
  header : Header.t;
  plain : Action.t;
  aggregated : Action.t;
}

type report = {
  cases : int;
  packets : int;
  mismatch_count : int;
  mismatches : mismatch list;  (* first few, for diagnosis *)
  semantic_failures : int;
  merges : int;
  suppressed : int;
  cover_installs : int;
  agg_installs : int;
}

let passed r = r.mismatch_count = 0 && r.semantic_failures = 0

(* Vary the policy shape across cases so the gate covers both generators
   and a range of dependency-chain depths. *)
let policy_for rng case =
  if case mod 3 = 2 then
    Policy_gen.prefix_table rng
      { Policy_gen.default_prefixes with
        prefixes = 60 + (20 * (case mod 4));
        egresses = 4 (* the 4-node line topology below *) }
  else
    Policy_gen.acl rng
      {
        Policy_gen.default_acl with
        rules = 60 + (30 * (case mod 4));
        chain_depth = 3 + (case mod 4);
        chains = 6;
      }

(* Small capacities force evictions (and cover-set thrash), large ones a
   mostly-resident cache; both must stay equivalent. *)
let capacities = [| 4; 16; 64; 256 |]

let run ?(seed = 42) ?(cases = 8) ?(packets_per_case = 400) () =
  let mismatch_count = ref 0 in
  let mismatches = ref [] in
  let semantic_failures = ref 0 in
  let total_packets = ref 0 in
  let merges = ref 0 in
  let suppressed = ref 0 in
  let cover_installs = ref 0 in
  let agg_installs = ref 0 in
  for case = 0 to cases - 1 do
    let rng = Prng.create (seed + (31 * case)) in
    let policy = policy_for (Prng.split rng) case in
    let topology = Topology.line 4 () in
    let arm aggregation =
      let config =
        {
          Deployment.default_config with
          k = 8;
          cache_capacity = capacities.(case mod Array.length capacities);
          cache_idle_timeout = Some 0.05;
          aggregation;
        }
      in
      Deployment.build ~config ~policy ~topology ~authority_ids:[ 1; 2 ] ()
    in
    let plain = arm Aggregate.default in
    let agg = arm Aggregate.enabled_default in
    let flows =
      Traffic.generate
        (Prng.create (seed + (7 * case) + 1))
        policy
        {
          Traffic.default with
          flows = packets_per_case;
          rate = 10_000.;
          distinct_headers = 40 + (20 * case);
          packets_per_flow_mean = 2.0;
          ingresses = [ 0 ];
        }
    in
    let stream = Cachesim.packet_stream flows in
    let steps = min (Array.length stream) packets_per_case in
    for step = 0 to steps - 1 do
      let h = stream.(step) in
      let now = float_of_int step /. 2_000. in
      (* Interleave the cache-management operations a live deployment
         performs, identically on both arms, so equivalence holds across
         expiry/flush/invalidation races, not just a cold-to-warm run. *)
      if step mod 97 = 96 then begin
        ignore (Deployment.expire_caches plain ~now);
        ignore (Deployment.expire_caches agg ~now)
      end;
      if step mod 149 = 148 then begin
        let pred o = o mod 5 = case mod 5 in
        ignore (Deployment.invalidate_origins ~now plain ~origins:pred);
        ignore (Deployment.invalidate_origins ~now agg ~origins:pred)
      end;
      if step mod 233 = 232 then begin
        Deployment.flush_caches plain;
        Deployment.flush_caches agg
      end;
      let o0 = Deployment.inject plain ~now ~ingress:0 h in
      let o1 = Deployment.inject agg ~now ~ingress:0 h in
      incr total_packets;
      if not (Action.equal o0.Deployment.action o1.Deployment.action) then begin
        incr mismatch_count;
        if List.length !mismatches < 5 then
          mismatches :=
            {
              case;
              step;
              header = h;
              plain = o0.Deployment.action;
              aggregated = o1.Deployment.action;
            }
            :: !mismatches
      end
    done;
    (* End-of-case probe: with the caches warm (merged entries resident),
       every header must still get exactly the policy's action. *)
    let probes =
      Array.to_list (Traffic.headers_for (Prng.split rng) policy 64)
    in
    if not (Deployment.semantically_equal agg probes) then incr semantic_failures;
    if not (Deployment.semantically_equal plain probes) then incr semantic_failures;
    let s = Deployment.aggregate_stats agg in
    merges := !merges + s.Aggregate.merges;
    suppressed := !suppressed + s.Aggregate.suppressed;
    cover_installs := !cover_installs + s.Aggregate.cover_installs;
    agg_installs := !agg_installs + s.Aggregate.installs
  done;
  {
    cases;
    packets = !total_packets;
    mismatch_count = !mismatch_count;
    mismatches = List.rev !mismatches;
    semantic_failures = !semantic_failures;
    merges = !merges;
    suppressed = !suppressed;
    cover_installs = !cover_installs;
    agg_installs = !agg_installs;
  }

let render r =
  let b = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt
  in
  line "aggregation differential gate: %d cases, %d packets" r.cases r.packets;
  line "  aggregated arm: %d installs, %d merges, %d suppressed, %d cover installs"
    r.agg_installs r.merges r.suppressed r.cover_installs;
  List.iter
    (fun m ->
      line "  MISMATCH case %d step %d: %s  plain=%s aggregated=%s" m.case m.step
        (Format.asprintf "%a" Header.pp m.header)
        (Action.to_string m.plain)
        (Action.to_string m.aggregated))
    r.mismatches;
  if r.mismatch_count > List.length r.mismatches then
    line "  ... and %d more mismatches" (r.mismatch_count - List.length r.mismatches);
  if r.semantic_failures > 0 then
    line "  %d semantic-equivalence probe failures" r.semantic_failures;
  if passed r then line "  PASS: forwarding is bit-identical with aggregation on"
  else
    line "  FAIL: %d mismatches, %d semantic failures" r.mismatch_count
      r.semantic_failures;
  Buffer.contents b

let print r = print_string (render r)
