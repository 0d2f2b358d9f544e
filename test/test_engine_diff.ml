open Test_util

(* Differential tests: the packed structure-of-arrays Engine against the
   legacy closure-heap Engine_legacy, which is kept as the reference
   semantics.  Both replay the same randomized schedule and must dispatch
   the identical (time, id) trace — including FIFO order among
   equal-timestamp ties and events posted from inside handlers.  Event
   ids are allocated at dispatch time, so any divergence in order shows
   up as diverging ids, not just diverging times. *)

let exec ~schedule ~run ~now evs =
  let log = ref [] in
  let id = ref 0 in
  List.iter
    (fun (ti, nested, di) ->
      let t = float_of_int ti *. 0.5 in
      incr id;
      let myid = !id in
      schedule ~at:t (fun () ->
          log := (now (), myid) :: !log;
          (* nested posts share one delay, so they tie with each other —
             and with a sibling's nested posts when delays collide *)
          for _ = 1 to nested do
            incr id;
            let nid = !id in
            schedule
              ~at:(now () +. (float_of_int di *. 0.25))
              (fun () -> log := (now (), nid) :: !log)
          done))
    evs;
  run ();
  List.rev !log

let packed_trace ?until evs =
  let e = Engine.create () in
  exec
    ~schedule:(fun ~at f -> Engine.schedule e ~at f)
    ~run:(fun () -> Engine.run ?until e)
    ~now:(fun () -> Engine.now e)
    evs

let legacy_trace ?until evs =
  let e = Engine_legacy.create () in
  exec
    ~schedule:(fun ~at f -> Engine_legacy.schedule e ~at f)
    ~run:(fun () -> Engine_legacy.run ?until e)
    ~now:(fun () -> Engine_legacy.now e)
    evs

(* times drawn from ten half-second slots so equal-timestamp collisions
   are common, not corner cases *)
let gen_schedule =
  QCheck2.Gen.(
    list_size (int_range 1 80) (triple (int_bound 9) (int_bound 3) (int_bound 4)))

let prop_differential =
  qt ~count:120 "packed engine replays the legacy trace event-for-event"
    gen_schedule
    (fun evs -> packed_trace evs = legacy_trace evs)

let prop_differential_until =
  qt ~count:60 "identical traces under a run horizon" gen_schedule (fun evs ->
      packed_trace ~until:2.25 evs = legacy_trace ~until:2.25 evs)

let test_all_ties () =
  (* worst case for FIFO ties: every event (and every nested post) lands
     on the same timestamp *)
  let evs = List.init 50 (fun _ -> (4, 2, 0)) in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.) Alcotest.int))
    "all-equal timestamps dispatch in posting order" (legacy_trace evs)
    (packed_trace evs)

let test_resume_after_until () =
  (* splitting one run at a horizon must not reorder the tail *)
  let evs = [ (1, 2, 3); (3, 1, 1); (3, 0, 0); (7, 2, 2); (2, 3, 0) ] in
  let split =
    let e = Engine.create () in
    let log = ref [] in
    let id = ref 0 in
    let rec sched ~at (nested, di) =
      incr id;
      let myid = !id in
      Engine.schedule e ~at (fun () ->
          log := (Engine.now e, myid) :: !log;
          for _ = 1 to nested do
            sched ~at:(Engine.now e +. (float_of_int di *. 0.25)) (0, 0)
          done)
    in
    List.iter (fun (ti, n, di) -> sched ~at:(float_of_int ti *. 0.5) (n, di)) evs;
    Engine.run ~until:1.6 e;
    Engine.run e;
    List.rev !log
  in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.) Alcotest.int))
    "split run equals unbroken legacy run" (legacy_trace evs) split

(* --- Config API: [run] is the single-domain entry point --- *)

let equiv_policy =
  Classifier.of_specs Schema.tiny2
    [ (10, [ ("f1", "0xxxxxxx") ], Action.Forward 2); (0, [], Action.Drop) ]

let equiv_flows n =
  List.init n (fun i ->
      {
        Traffic.flow_id = i;
        header =
          Header.make Schema.tiny2
            [| Int64.of_int (i mod 256); Int64.of_int (i / 256) |];
        ingress = 0;
        start = float_of_int i *. 0.001;
        packets = 2;
        interval = 0.0001;
      })

let test_run_rejects_multi_domain () =
  let d =
    Deployment.build ~policy:equiv_policy ~topology:(Topology.line 3 ())
      ~authority_ids:[ 1 ] ()
  in
  match
    Flowsim.run { Flowsim.Config.default with domains = 2 } d (equiv_flows 1)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run accepted domains > 1"

(* --- E-SCALE determinism: the sharded merge is byte-identical at any
   domain count --- *)

let test_scale_domain_identity () =
  let spec = Experiments.E_scale.quick_spec in
  let base = Experiments.E_scale.run ~seed:7 spec in
  check Alcotest.string "domains=4 equals domains=1"
    (Experiments.E_scale.digest base)
    (Experiments.E_scale.digest
       (Experiments.E_scale.run ~seed:7 { spec with Experiments.E_scale.domains = 4 }));
  check Alcotest.string "domains=3 equals domains=1"
    (Experiments.E_scale.digest base)
    (Experiments.E_scale.digest
       (Experiments.E_scale.run ~seed:7 { spec with Experiments.E_scale.domains = 3 }));
  check (Alcotest.list Alcotest.string) "quick-spec invariants hold" []
    (Experiments.E_scale.check ~floors:false spec base)

let test_scale_seed_sensitivity () =
  (* different seeds must actually change the workload — guards against a
     digest that ignores the samples *)
  let spec = Experiments.E_scale.quick_spec in
  let d7 = Experiments.E_scale.digest (Experiments.E_scale.run ~seed:7 spec) in
  let d8 = Experiments.E_scale.digest (Experiments.E_scale.run ~seed:8 spec) in
  check Alcotest.bool "distinct seeds give distinct digests" true (d7 <> d8)

let suite =
  [
    ( "engine-differential",
      [
        prop_differential;
        prop_differential_until;
        tc "all-equal timestamps" test_all_ties;
        tc "resume after until" test_resume_after_until;
      ] );
    ( "config-api",
      [
        tc "run rejects domains > 1" test_run_rejects_multi_domain;
      ] );
    ( "scale-determinism",
      [
        tc "byte-identical across domain counts" test_scale_domain_identity;
        tc "seed changes the digest" test_scale_seed_sensitivity;
      ] );
  ]
