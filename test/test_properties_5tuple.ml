(* Property coverage on the realistic 5-tuple schema: the tiny2 properties
   re-checked where it matters, plus whole-system invariants on generated
   ACL policies.  Catches width/arity assumptions that an 8-bit two-field
   schema would never exercise. *)

open Test_util

let schema = Schema.acl_5tuple

let gen_acl =
  let open QCheck2.Gen in
  let* seed = int_bound 10_000 in
  let* rules = int_range 20 80 in
  return
    (Policy_gen.acl (Prng.create seed)
       { Policy_gen.default_acl with rules; chains = 6; chain_depth = 4 })

let gen_header_for policy =
  let open QCheck2.Gen in
  let* salt = int_bound 1_000_000 in
  let rng = Prng.create salt in
  return (Traffic.headers_for rng policy 1).(0)

let gen_acl_and_header =
  let open QCheck2.Gen in
  let* policy = gen_acl in
  let* h = gen_header_for policy in
  return (policy, h)

let prop_policy_total =
  qt ~count:30 "generated ACLs are total" gen_acl_and_header (fun (policy, h) ->
      Option.is_some (Classifier.action policy h))

let prop_splice_correct_5tuple =
  qt ~count:60 "splice on 5-tuple: piece holds header, independent, same action"
    gen_acl_and_header
    (fun (policy, h) ->
      match
        ( Splice.for_header (Splice.plan (Indexed.of_classifier policy)) h,
          Splice_scan.for_header policy h )
      with
      | None, _ | _, None -> false
      | Some piece, Some scratch ->
          Pred.equal piece.Splice.pred scratch.Splice.pred
          && Rule.equal piece.Splice.origin scratch.Splice.origin
          && Pred.matches piece.Splice.pred h
          && List.for_all
               (fun (r : Rule.t) ->
                 (not (Rule.beats r piece.Splice.origin))
                 || not (Pred.overlaps r.pred piece.Splice.pred))
               (Classifier.rules policy)
          && Classifier.action policy h = Some piece.Splice.origin.Rule.action)

let prop_partition_semantics_5tuple =
  qt ~count:30 "partitioned lookup = direct lookup on 5-tuple"
    QCheck2.Gen.(triple gen_acl (int_range 1 32) (int_bound 1_000_000))
    (fun (policy, k, salt) ->
      let part = Partitioner.compute policy ~k in
      let rng = Prng.create salt in
      let headers = Traffic.headers_for rng policy 20 in
      Array.for_all
        (fun h ->
          let p = Partitioner.find part h in
          Classifier.action p.Partitioner.table h = Classifier.action policy h)
        headers)

let prop_indexed_5tuple =
  qt ~count:30 "indexed lookup = linear on 5-tuple ACLs" gen_acl_and_header
    (fun (policy, h) ->
      let idx = Indexed.of_classifier policy in
      Option.map (fun (r : Rule.t) -> r.id) (Indexed.first_match idx h)
      = Option.map (fun (r : Rule.t) -> r.id) (Classifier.first_match policy h))

let prop_deployment_5tuple =
  qt ~count:15 "deployed network = policy on 5-tuple workloads"
    QCheck2.Gen.(pair gen_acl (int_bound 1_000_000))
    (fun (policy, salt) ->
      let d =
        Deployment.build
          ~config:{ Deployment.default_config with k = 8; cache_capacity = 32 }
          ~policy ~topology:(Topology.line 4 ()) ~authority_ids:[ 1; 2 ] ()
      in
      let rng = Prng.create salt in
      let headers = Traffic.headers_for rng policy 30 in
      Array.for_all
        (fun h ->
          (* inject the same header twice: the second pass exercises the
             spliced cache entry *)
          let o1 = Deployment.inject d ~now:0. ~ingress:0 h in
          let o2 = Deployment.inject d ~now:0.1 ~ingress:0 h in
          let expected = Option.get (Classifier.action policy h) in
          Action.equal o1.Deployment.action expected
          && Action.equal o2.Deployment.action expected)
        headers)

let prop_policy_io_5tuple =
  qt ~count:20 "policy files roundtrip on 5-tuple ACLs" gen_acl (fun policy ->
      match Policy_io.of_string (Policy_io.to_string policy) with
      | Error _ -> false
      | Ok c ->
          (* structural: same rule count and per-rule equality up to ids *)
          Classifier.length c = Classifier.length policy
          && List.for_all2
               (fun (a : Rule.t) (b : Rule.t) ->
                 a.priority = b.priority && Pred.equal a.pred b.pred
                 && Action.equal a.action b.action)
               (Classifier.rules policy) (Classifier.rules c))

let prop_wire_roundtrip_5tuple =
  qt ~count:40 "flow-mods with 5-tuple predicates survive the codec"
    gen_acl_and_header
    (fun (policy, _) ->
      List.for_all
        (fun rule ->
          let msg =
            Message.Flow_mod
              { Message.command = Message.Add; bank = Message.Authority; rule;
                idle_timeout = None; hard_timeout = Some 2.5 }
          in
          match Message.decode schema (Message.encode ~xid:7 msg) with
          | Ok (7, _, msg') -> Message.equal msg msg'
          | _ -> false)
        (List.filteri (fun i _ -> i < 10) (Classifier.rules policy)))

let prop_minimise_5tuple =
  qt ~count:5 "minimise preserves 5-tuple ACL semantics exactly"
    QCheck2.Gen.(int_bound 1000)
    (fun salt ->
      let policy =
        Policy_gen.acl (Prng.create salt)
          { Policy_gen.default_acl with rules = 30; chains = 4; chain_depth = 3 }
      in
      let policy', _ = Optimize.minimise policy in
      Equiv.equivalent policy policy')

let suite =
  [
    ( "properties (5-tuple)",
      [
        prop_policy_total;
        prop_splice_correct_5tuple;
        prop_partition_semantics_5tuple;
        prop_indexed_5tuple;
        prop_deployment_5tuple;
        prop_policy_io_5tuple;
        prop_wire_roundtrip_5tuple;
        prop_minimise_5tuple;
      ] );
  ]
