open Test_util

let s2 = Schema.tiny2

let sample_rules =
  [
    Rule.make ~id:1 ~priority:5
      (Pred.of_strings s2 [ ("f1", "0xxxxxxx") ])
      (Action.Forward 2);
    Rule.make ~id:2 ~priority:0 (Pred.any s2) Action.Drop;
  ]

let p_lo = Pred.of_strings s2 [ ("f1", "0xxxxxxx") ]
let p_hi = Pred.of_strings s2 [ ("f1", "1xxxxxxx") ]

let sample_migration =
  {
    Journal.mid = 4;
    src_pid = 2;
    src_region = Pred.any s2;
    src_replicas = [ 1; 3 ];
    lo_pid = 8;
    lo_region = p_lo;
    lo_replicas = [ 1; 3 ];
    hi_pid = 9;
    hi_region = p_hi;
    hi_replicas = [ 4; 1 ];
  }

(* one of each entry kind, including empty-list edge cases *)
let every_kind =
  [
    Journal.Build { policy = sample_rules; authority_ids = [ 1; 3; 4 ] };
    Journal.Policy_update { rules = sample_rules; strict = true };
    Journal.Policy_update { rules = []; strict = false };
    Journal.Fail_authority 3;
    Journal.Restore_authority 3;
    Journal.Declared_dead 2;
    Journal.Recovered 2;
    Journal.Rebalance [ (0, 1.5); (1, 0.25); (7, 0.) ];
    Journal.Rebalance [];
    Journal.Epoch { epoch = 2; leader = 1 };
    Journal.Migration_begin sample_migration;
    Journal.Migration_begin { sample_migration with mid = 5; src_replicas = [] };
    Journal.Migration_flip 4;
    Journal.Migration_commit 4;
    Journal.Migration_abort 5;
    Journal.Partition_layout
      { regions = [ (8, p_lo); (9, p_hi) ]; replicas = [ (8, [ 1; 3 ]); (9, [ 4 ]) ] };
    Journal.Partition_layout { regions = []; replicas = [] };
  ]

let filled () =
  let j = Journal.create () in
  List.iteri
    (fun i e ->
      check Alcotest.int "seq allocated in order" i
        (Journal.append j ~at:(0.1 *. float_of_int i) e))
    every_kind;
  j

let test_roundtrip_every_kind () =
  let j = filled () in
  match Journal.decode s2 (Journal.encode j) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok j' ->
      check Alcotest.bool "journals equal" true (Journal.equal j j');
      let entries = Journal.entries j' in
      check Alcotest.int "all entries survive" (List.length every_kind)
        (List.length entries);
      List.iteri
        (fun i (want, (_, _, got)) ->
          check Alcotest.bool (Printf.sprintf "entry %d survives" i) true (want = got))
        (List.combine every_kind entries)

let test_empty_roundtrip () =
  let j = Journal.create () in
  match Journal.decode s2 (Journal.encode j) with
  | Ok j' -> check Alcotest.int "empty" 0 (Journal.length j')
  | Error e -> Alcotest.failf "empty journal failed to decode: %s" e

let test_snapshot_compacts_and_replays () =
  let j = filled () in
  let base =
    [
      Journal.Build { policy = sample_rules; authority_ids = [ 1; 4 ] };
      Journal.Epoch { epoch = 3; leader = 0 };
    ]
  in
  Journal.snapshot j ~at:2. base;
  check Alcotest.int "tail cleared" 0 (Journal.tail_length j);
  check Alcotest.int "history compacted" 2 (Journal.length j);
  ignore (Journal.append j ~at:3. (Journal.Fail_authority 1));
  check Alcotest.int "tail grows past the snapshot" 1 (Journal.tail_length j);
  match Journal.decode s2 (Journal.encode j) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok j' ->
      let seen = ref [] in
      Journal.replay j' (fun e -> seen := e :: !seen);
      (match List.rev !seen with
      | [ Journal.Build _; Journal.Epoch { epoch = 3; _ }; Journal.Fail_authority 1 ] -> ()
      | es -> Alcotest.failf "replay order wrong (%d entries)" (List.length es));
      (* seqs stay monotonic across the decode: new appends don't collide *)
      let s = Journal.append j' ~at:4. (Journal.Recovered 1) in
      check Alcotest.bool "next seq above every decoded seq" true
        (List.for_all (fun (q, _, _) -> q < s) (Journal.entries j))

(* random journals over every entry kind round-trip through the codec *)
let gen_entry =
  let open QCheck2.Gen in
  let preds = [| Pred.any s2; p_lo; p_hi |] in
  let small = int_range 0 9 in
  let ids = list_size (int_range 0 4) small in
  let migration =
    map3
      (fun mid (sp, lp, hp) (r1, r2) ->
        {
          Journal.mid;
          src_pid = sp;
          src_region = preds.(r1);
          src_replicas = [ sp; sp + 1 ];
          lo_pid = lp;
          lo_region = preds.(r2);
          lo_replicas = [ lp ];
          hi_pid = hp;
          hi_region = preds.(r1);
          hi_replicas = [ hp; hp + 2 ];
        })
      small
      (triple small small small)
      (pair (int_range 0 2) (int_range 0 2))
  in
  oneof
    [
      map (fun ids -> Journal.Build { policy = sample_rules; authority_ids = ids }) ids;
      map
        (fun strict ->
          Journal.Policy_update
            { rules = (if strict then sample_rules else []); strict })
        bool;
      map (fun i -> Journal.Fail_authority i) small;
      map (fun i -> Journal.Restore_authority i) small;
      map (fun i -> Journal.Declared_dead i) small;
      map (fun i -> Journal.Recovered i) small;
      map
        (fun loads ->
          Journal.Rebalance (List.map (fun (p, l) -> (p, float_of_int l)) loads))
        (list_size (int_range 0 4) (pair small small));
      map2 (fun epoch leader -> Journal.Epoch { epoch; leader }) small small;
      map (fun m -> Journal.Migration_begin m) migration;
      map (fun i -> Journal.Migration_flip i) small;
      map (fun i -> Journal.Migration_commit i) small;
      map (fun i -> Journal.Migration_abort i) small;
      map2
        (fun rs reps ->
          Journal.Partition_layout
            {
              regions = List.map (fun (p, r) -> (p, preds.(r))) rs;
              replicas = List.map (fun (p, s) -> (p, [ s; s + 1 ])) reps;
            })
        (list_size (int_range 0 3) (pair small (int_range 0 2)))
        (list_size (int_range 0 3) (pair small small));
    ]

let prop_random_journal_roundtrips =
  qt ~count:50 "random journals round-trip"
    QCheck2.Gen.(list_size (int_range 0 12) gen_entry)
    (fun entries ->
      let j = Journal.create () in
      List.iteri
        (fun i e -> ignore (Journal.append j ~at:(0.25 *. float_of_int i) e))
        entries;
      match Journal.decode s2 (Journal.encode j) with
      | Error _ -> false
      | Ok j' -> Journal.equal j j')

let test_any_corruption_detected () =
  let j = Journal.create () in
  ignore (Journal.append j ~at:0.5 (Journal.Epoch { epoch = 1; leader = 0 }));
  ignore
    (Journal.append j ~at:1.
       (Journal.Build { policy = sample_rules; authority_ids = [ 1 ] }));
  let b = Journal.encode j in
  for pos = 0 to Bytes.length b - 1 do
    let c = Bytes.copy b in
    Bytes.set_uint8 c pos (Bytes.get_uint8 c pos lxor 0x01);
    match Journal.decode s2 c with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "bit flip at byte %d went undetected" pos
  done

(* the body-shape guard behind the checksum: a record whose count field
   disagrees with its body length must be rejected even when the checksum
   is recomputed to match — a buggy writer, not wire corruption *)
let test_rebalance_bad_count_rejected () =
  let j = Journal.create () in
  ignore (Journal.append j ~at:1. (Journal.Rebalance [ (0, 1.); (1, 2.) ]));
  let b = Journal.encode j in
  (* the header is 27 bytes; the body's first u32 (big-endian) is the
     load count — bump its low byte (byte 30) and re-checksum so only
     the body-length check can catch the lie *)
  Bytes.set_uint8 b 30 (Bytes.get_uint8 b 30 + 1);
  Bytes.set_int64_be b 19 (Message.fnv1a ~hole:(19, 8) b);
  match Journal.decode s2 b with
  | Error e ->
      check Alcotest.string "length check names the record" "bad rebalance length" e
  | Ok _ -> Alcotest.fail "inflated rebalance count decoded"

let test_truncation_detected () =
  let j = filled () in
  let b = Journal.encode j in
  for cut = 1 to 40 do
    let n = Bytes.length b - cut in
    if n > 0 then
      match Journal.decode s2 (Bytes.sub b 0 n) with
      | Error _ -> ()
      | Ok j' ->
          (* a clean cut at a record boundary is indistinguishable from a
             shorter journal; anything else must fail *)
          if Journal.length j' >= Journal.length j then
            Alcotest.failf "truncation by %d bytes went undetected" cut
  done

(* The codec's bytes are part of the format: a journal written by one
   build must decode in the next.  Pinned for one record of every kind
   and for the journal the seeded quick E-HA run leaves behind. *)
let test_encoding_pinned () =
  let md5 b = Digest.to_hex (Digest.bytes b) in
  check Alcotest.string "every entry kind" "c738a698c48b39494d8f3d50bdd642bf"
    (md5 (Journal.encode (filled ())));
  check Alcotest.string "E-HA quick journal, seed 42, 10% loss"
    "4683ed399a96f6d2c9f2af0e5dee6645"
    (md5 (Bytes.of_string (Experiments.E_ha.journal ~seed:42 ~quick:true ~loss:0.10)))

let suite =
  [
    ( "journal",
      [
        tc "every entry kind round-trips" test_roundtrip_every_kind;
        tc "empty journal round-trips" test_empty_roundtrip;
        tc "snapshot compacts; replay = base then tail" test_snapshot_compacts_and_replays;
        prop_random_journal_roundtrips;
        tc "any single-bit corruption detected" test_any_corruption_detected;
        tc "inflated rebalance count rejected" test_rebalance_bad_count_rejected;
        tc "truncation detected" test_truncation_detected;
        tc "encoding pinned" test_encoding_pinned;
      ] );
  ]
