(* Differential testing of the TCAM's packed lookup kernel: every
   operation sequence is executed against an indexed table and a
   linear-scan table ([Tcam.create_linear], which matches with
   [Rule.matches]); both must agree on every observable — the rule each
   lookup chooses (including priority ties and replace/evict/expire
   interleavings), the displaced sets, occupancy, stats, and the
   per-entry counters.  The linear table IS the reference semantics, so
   any divergence is a packing or index-maintenance bug.

   The properties run on three schemas: [tiny2] (16 bits, low lane
   only), [acl_5tuple] (104 bits; [dst_ip] straddles bit 63, so its
   prefix bits spill into the high lane) and [openflow_basic] (136 bits,
   too wide to pack: the per-field fallback). *)

open Test_util

let s2 = Schema.tiny2

(* One case's vocabulary: per field, three values every predicate and
   header is built from, and one to three prefix-length shapes.  Few
   shapes keep groups shared, so a table of 24 entries spends part of
   each case probing and part scanning (a table of 8 always scans);
   shared values make predicates collide and headers land inside them.  Length 1 specifies only a
   field's top bit — for [dst_ip], the bit that spills. *)
type vocab = { values : int64 array array; shapes : int array list }

let widths schema = Array.init (Schema.arity schema) (Schema.field_bits schema)

let gen_vocab schema =
  let open QCheck2.Gen in
  let ws = widths schema in
  let* values =
    flatten_a
      (Array.map
         (fun w -> array_repeat 3 (map Int64.of_int (int_bound ((1 lsl w) - 1))))
         ws)
  in
  let* shapes =
    list_size (int_range 1 3) (flatten_a (Array.map (fun w -> oneofl [ 0; 1; w / 2; w ]) ws))
  in
  return { values; shapes }

let gen_pred schema v =
  let open QCheck2.Gen in
  let ws = widths schema in
  let* shape = oneofl v.shapes in
  let* picks = flatten_a (Array.map (fun vs -> oneofa vs) v.values) in
  return
    (Pred.make schema
       (List.init (Array.length ws) (fun i ->
            Ternary.prefix ~width:ws.(i) picks.(i) shape.(i))))

(* A pooled value, its low half sometimes perturbed: still inside every
   prefix of at most half the width. *)
let gen_header schema v =
  let open QCheck2.Gen in
  let ws = widths schema in
  let* fields =
    flatten_a
      (Array.mapi
         (fun i w ->
           let* b = oneofa v.values.(i) in
           let* noise = oneof [ return 0; int_bound ((1 lsl (w / 2)) - 1) ] in
           return (Int64.logxor b (Int64.of_int noise)))
         ws)
  in
  return (Header.make schema fields)

type op =
  | Insert of int * int * Pred.t * bool * bool  (* id, prio, pred, idle?, hard? *)
  | Insert_or_evict of int * int * Pred.t
  | Lookup of Header.t
  | Expire
  | Remove of int
  | Advance of float

(* Rule ids are drawn from [0..ids]: about three times the capacity, so
   tables fill and evict rather than replace in place. *)
let gen_op ~ids schema v =
  let open QCheck2.Gen in
  frequency
    [
      ( 2,
        let* id = int_bound ids in
        let* pr = int_bound 3 in
        (* small range => frequent priority ties, broken by rule id *)
        let* pd = gen_pred schema v in
        let* idle = bool in
        let* hard = bool in
        return (Insert (id, pr, pd, idle, hard)) );
      ( 2,
        let* id = int_bound ids in
        let* pr = int_bound 3 in
        let* pd = gen_pred schema v in
        return (Insert_or_evict (id, pr, pd)) );
      (3, gen_header schema v >|= fun h -> Lookup h);
      (1, return Expire);
      (1, int_bound ids >|= fun id -> Remove id);
      (1, float_bound_inclusive 2. >|= fun dt -> Advance dt);
    ]

(* Two table sizes.  Capacity 8 is always past the probe/scan crossover,
   so it scans, and it fills within a few inserts: its cases compare
   [`Full] and LRU eviction — whose order depends on which rule each
   lookup touched — on most sequences.  Capacity 24 reaches the
   probe path; its longer sequences let idle-free entries pile up until
   it fills and evicts too.  [test_op_coverage] pins both. *)
type size = { capacity : int; ids : int; ops : int * int }

let small = { capacity = 8; ids = 20; ops = (1, 100) }
let large = { capacity = 24; ids = 72; ops = (200, 400) }

let gen_ops size schema =
  let open QCheck2.Gen in
  let* v = gen_vocab schema in
  list_size (int_range (fst size.ops) (snd size.ops)) (gen_op ~ids:size.ids schema v)

let entry_sig (e : Tcam.entry) = (e.Tcam.rule.Rule.id, e.Tcam.packets, e.Tcam.bytes)
let displ_sig (d : Tcam.displaced) =
  ( List.map entry_sig d.Tcam.evicted,
    Option.map entry_sig d.Tcam.replaced,
    d.Tcam.bounced )

let insert_sig = function
  | `Ok -> `Ok
  | `Full -> `Full
  | `Replaced e -> `Replaced (entry_sig e)

let stats_sig (s : Tcam.stats) =
  (s.Tcam.hits, s.Tcam.misses, s.Tcam.inserts, s.Tcam.evictions, s.Tcam.expirations)

let table_sig t = List.map entry_sig (Tcam.entries t)

(* What one case exercised: a lookup answered by probing, and an insert
   that met a full table ([`Full], or LRU victims). *)
type coverage = { mutable probed : bool; mutable evicted : bool }

let run_ops ?(cov = { probed = false; evicted = false }) size schema ops =
  let a = Tcam.create ~capacity:size.capacity in
  let b = Tcam.create_linear ~capacity:size.capacity in
  let clock = ref 0. in
  List.for_all
    (fun op ->
      let step_agrees =
        match op with
        | Advance dt ->
            clock := !clock +. dt;
            true
        | Insert (id, priority, pd, idle, hard) ->
            let rule = Rule.make ~id ~priority pd Action.Drop in
            let idle = if idle then Some 1.0 else None in
            let hard = if hard then Some 3.0 else None in
            let ins t =
              insert_sig
                (Tcam.insert ?idle_timeout:idle ?hard_timeout:hard t ~now:!clock rule)
            in
            let ia = ins a in
            if ia = `Full then cov.evicted <- true;
            ia = ins b
        | Insert_or_evict (id, priority, pd) ->
            let rule = Rule.make ~id ~priority pd Action.Drop in
            let ins t =
              displ_sig (Tcam.insert_or_evict_entries ~idle_timeout:1.0 t ~now:!clock rule)
            in
            let ((evicted, _, bounced) as da) = ins a in
            if evicted <> [] || bounced then cov.evicted <- true;
            da = ins b
        | Lookup h ->
            let id = Option.map (fun (r : Rule.t) -> r.id) in
            if Tcam.occupancy a > 0 && not (Tcam.index_degenerate a) then cov.probed <- true;
            let peeked = id (Tcam.peek a h) in
            let look t = id (Tcam.lookup t ~now:!clock h) in
            let la = look a in
            la = look b && peeked = la
        | Expire ->
            let exp t =
              List.map (fun (r : Rule.t) -> r.id) (Tcam.expire t ~now:!clock)
            in
            exp a = exp b
        | Remove id -> Tcam.remove a id = Tcam.remove b id
      in
      step_agrees
      && Tcam.occupancy a = Tcam.occupancy b
      && stats_sig (Tcam.stats a) = stats_sig (Tcam.stats b)
      && table_sig a = table_sig b
      (* a schema too wide to pack must never reach the kernel *)
      && (Header.lanes_exact schema || Tcam.occupancy a = 0 || Tcam.index_degenerate a))
    ops

let prop_tcam_equals_linear ?(size = small) schema name =
  qt ~count:400 name (gen_ops size schema) (run_ops size schema)

let prop_index_equals_linear =
  prop_tcam_equals_linear s2 "indexed TCAM = linear TCAM on random op sequences"

(* The share of 400 generated cases (fixed seed) that evict or bounce,
   and that probe, must stay high enough for the differential properties
   above to compare those paths: a generator change that starves them
   fails here rather than silently thinning the properties. *)
let test_op_coverage () =
  let share size schema =
    let cases =
      QCheck2.Gen.generate ~rand:(Random.State.make [| 14 |]) ~n:400 (gen_ops size schema)
    in
    let evicted = ref 0 and probed = ref 0 in
    List.iter
      (fun ops ->
        let cov = { probed = false; evicted = false } in
        check Alcotest.bool "agrees" true (run_ops ~cov size schema ops);
        if cov.evicted then incr evicted;
        if cov.probed then incr probed)
      cases;
    (!evicted * 100 / 400, !probed * 100 / 400)
  in
  List.iter
    (fun (schema, name) ->
      let ev8, pr8 = share small schema and ev24, pr24 = share large schema in
      let at what = Printf.sprintf "%s, %s" name what in
      check Alcotest.bool (at "capacity 8 evicts in half the cases") true (ev8 >= 50);
      check Alcotest.int (at "capacity 8 never probes") 0 pr8;
      check Alcotest.bool (at "capacity 24 evicts") true (ev24 >= 40);
      check Alcotest.bool (at "capacity 24 probes") (Header.lanes_exact schema) (pr24 >= 50))
    [ (s2, "tiny2"); (Schema.acl_5tuple, "acl_5tuple"); (Schema.openflow_basic, "openflow_basic") ]

(* The classifier index against [Classifier.first_match], over the same
   vocabularies: up to 40 rules, so tables both probe and scan. *)
let prop_indexed_equals_first_match schema name =
  qt ~count:400 name
    QCheck2.Gen.(
      let* v = gen_vocab schema in
      let* specs = list_size (int_range 1 40) (pair (int_bound 5) (gen_pred schema v)) in
      let* headers = list_repeat 20 (gen_header schema v) in
      return (specs, headers))
    (fun (specs, headers) ->
      let rules =
        List.mapi (fun i (pr, pd) -> Rule.make ~id:i ~priority:pr pd Action.Drop) specs
      in
      let c = Classifier.create schema rules in
      let idx = Indexed.of_classifier c in
      let id = Option.map (fun (r : Rule.t) -> r.id) in
      (Header.lanes_exact schema || Indexed.degenerate idx)
      && List.for_all
           (fun h -> id (Indexed.first_match idx h) = id (Classifier.first_match c h))
           headers)

(* [Indexed.swap] patches actions in place: after each round of swaps the
   index must answer exactly as [Classifier.first_match] on the patched
   table, with the group count and the probe/scan choice unchanged. *)
let swap_rounds name c =
  let rng = Prng.create 11 in
  let idx = Indexed.of_classifier c in
  let groups = Indexed.groups idx and degenerate = Indexed.degenerate idx in
  let headers = Array.to_list (Traffic.headers_for (Prng.create 5) c 300) in
  let table = ref c in
  for round = 1 to 8 do
    let swapped = ref [] in
    let next =
      Classifier.create (Classifier.schema !table)
        (List.map
           (fun (r : Rule.t) ->
             if Prng.int rng 8 <> 0 then r
             else begin
               let r' = Rule.with_action r (Action.Forward (round + Prng.int rng 4)) in
               swapped := r' :: !swapped;
               r'
             end)
           (Classifier.rules !table))
    in
    Indexed.swap idx next !swapped;
    table := next;
    List.iter
      (fun h ->
        let same =
          match (Indexed.first_match idx h, Classifier.first_match next h) with
          | Some a, Some b -> Rule.equal a b
          | None, None -> true
          | _ -> false
        in
        if not same then Alcotest.failf "%s: round %d, a header disagrees" name round)
      headers
  done;
  check Alcotest.int (name ^ ": groups kept") groups (Indexed.groups idx);
  check Alcotest.bool (name ^ ": scan/probe choice kept") degenerate (Indexed.degenerate idx);
  degenerate

(* A swap whose id, predicate or priority does not match a slot is
   refused. *)
let swap_mismatches name c =
  let ts = Tuple_space.create () in
  List.iter (fun r -> ignore (Tuple_space.add ts r r)) (Classifier.rules c);
  let r = List.nth (Classifier.rules c) (Classifier.length c / 2) in
  let other = List.find (fun (o : Rule.t) -> not (Pred.equal o.pred r.pred)) (Classifier.rules c) in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: a swap with a different %s was accepted" name what
    | exception Invalid_argument _ -> ()
  in
  let swap r' () = Tuple_space.swap ts r' r' in
  raises "id" (swap (Rule.with_id r 1_000_000));
  raises "predicate" (swap (Rule.with_pred r other.pred));
  (* the same lanes under a schema of other field names *)
  let schema = Pred.schema r.pred in
  let renamed =
    Schema.fields schema |> Array.to_list
    |> List.map (fun (f : Schema.field) -> { f with name = f.name ^ "'" })
    |> Schema.create
  in
  let fields = List.init (Schema.arity schema) (Pred.field r.pred) in
  raises "schema" (swap (Rule.with_pred r (Pred.make renamed fields)));
  raises "priority"
    (swap (Rule.make ~id:r.id ~priority:(r.priority + 1) r.pred r.action));
  (* and the matching swap goes through *)
  swap (Rule.with_action r (Action.Forward 9)) ()

let test_swap () =
  let prefixes =
    Policy_gen.prefix_table (Prng.create 3) { Policy_gen.default_prefixes with prefixes = 500 }
  in
  let acl = Policy_gen.acl (Prng.create 3) { Policy_gen.default_acl with rules = 200 } in
  check Alcotest.bool "prefix table probes" false (swap_rounds "prefixes" prefixes);
  check Alcotest.bool "acl scans" true (swap_rounds "acl" acl);
  swap_mismatches "prefixes" prefixes;
  swap_mismatches "acl" acl

(* Every rule of a group shares one lane mask, and a group keeps at most
   two members per hash chain: 64 exact rules on [f1] sit in at most 32
   chains, so some chains hold rules with different masked values.  Each
   header must still get the rule whose own values it matches. *)
let test_colliding_chains () =
  let ts = Tuple_space.create () in
  let exact v = Ternary.exact ~width:8 (Int64.of_int v) in
  for i = 0 to 63 do
    ignore
      (Tuple_space.add ts
         (Rule.make ~id:i ~priority:(i mod 5) (Pred.make s2 [ exact i; Ternary.any 8 ])
            Action.Drop)
         i)
  done;
  check Alcotest.int "one group" 1 (Tuple_space.groups ts);
  check Alcotest.bool "probing" false (Tuple_space.degenerate ts);
  for v = 0 to 255 do
    let h = Header.make s2 [| Int64.of_int v; 7L |] in
    let i = Tuple_space.find ts ~lo:(Header.key_lo h) ~hi:(Header.key_hi h) in
    let got = if i < 0 then None else Some (Tuple_space.get ts i) in
    check (Alcotest.option Alcotest.int) (Printf.sprintf "f1=%d" v)
      (if v < 64 then Some v else None)
      got
  done

(* [dst_ip] occupies bits 32..63 of the 5-tuple key: its top bit — the
   first bit of every prefix — is bit 0 of the high lane. *)
let test_high_lane_spill () =
  let schema = Schema.acl_5tuple in
  let top = Pred.of_fields schema [ ("dst_ip", Ternary.of_ipv4 "128.0.0.0/1") ] in
  check
    (Alcotest.list Alcotest.int)
    "dst_ip top bit: (mask_lo, value_lo, mask_hi, value_hi)" [ 0; 0; 1; 1 ]
    (let mlo, vlo, mhi, vhi = Pred.lanes top in
     [ mlo; vlo; mhi; vhi ]);
  let h = Header.of_fields schema [ ("dst_ip", 0x8000_0000L) ] in
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "dst_ip top bit in the key" (0, 1)
    (Header.key_lo h, Header.key_hi h);
  let rule id p =
    Rule.make ~id ~priority:1 (Pred.of_fields schema [ ("dst_ip", Ternary.of_ipv4 p) ]) Action.Drop
  in
  let c = Classifier.create schema [ rule 1 "128.0.0.0/1"; rule 2 "0.0.0.0/1" ] in
  let t = Tcam.create ~capacity:4 in
  List.iter (fun r -> ignore (Tcam.insert t ~now:0. r)) (Classifier.rules c);
  let idx = Indexed.of_classifier c in
  List.iter
    (fun (ip, want) ->
      let h = Header.of_fields schema [ ("dst_ip", ip) ] in
      let id = Option.map (fun (r : Rule.t) -> r.id) in
      check (Alcotest.option Alcotest.int) "tcam" (Some want) (id (Tcam.peek t h));
      check (Alcotest.option Alcotest.int) "indexed" (Some want) (id (Indexed.first_match idx h)))
    [ (0x8000_0001L, 1); (0x7fff_ffffL, 2); (0xffff_ffffL, 1); (0L, 2) ]

(* A same-shape rule pool keeps the group count tiny; the heuristic must
   keep the fast path on.  All-distinct exact predicates (one group per
   entry) must trip the fallback. *)
let test_degenerate_heuristic () =
  let t = Tcam.create ~capacity:64 in
  for i = 0 to 31 do
    let bits =
      String.init 8 (fun k -> if (i lsr (7 - k)) land 1 = 1 then '1' else 'x')
    in
    ignore
      (Tcam.insert t ~now:0.
         (Rule.make ~id:i ~priority:i
            (Pred.of_strings s2 [ ("f1", bits) ])
            Action.Drop))
  done;
  check Alcotest.bool "many groups on distinct shapes" true (Tcam.index_groups t > 8);
  check Alcotest.bool "degenerate" true (Tcam.index_degenerate t);
  let t2 = Tcam.create ~capacity:64 in
  for i = 0 to 31 do
    let bits =
      String.init 8 (fun k ->
          if k < 5 then if (i lsr (4 - k)) land 1 = 1 then '1' else '0' else 'x')
    in
    ignore
      (Tcam.insert t2 ~now:0.
         (Rule.make ~id:i ~priority:1
            (Pred.of_strings s2 [ ("f1", bits) ])
            Action.Drop))
  done;
  check Alcotest.int "one shared mask shape" 1 (Tcam.index_groups t2);
  check Alcotest.bool "fast path on" false (Tcam.index_degenerate t2);
  let t3 = Tcam.create_linear ~capacity:64 in
  check Alcotest.bool "linear table always degenerate" true (Tcam.index_degenerate t3)

(* Expiry and eviction are separate counters: timeout churn must land in
   [expirations], LRU victims in [evictions], and the registry mirrors
   (tcam_evictions / tcam_expirations) must move in step. *)
let test_expirations_split_from_evictions () =
  let snap0 = Telemetry.snapshot () in
  let tele name = Telemetry.counter_total snap0 name in
  let ev0 = tele "tcam_evictions" and ex0 = tele "tcam_expirations" in
  let t = Tcam.create ~capacity:2 in
  let rule id bits = Rule.make ~id ~priority:1 (Pred.of_strings s2 [ ("f1", bits) ]) Action.Drop in
  ignore (Tcam.insert ~idle_timeout:1. t ~now:0. (rule 1 "0000_0001"));
  ignore (Tcam.insert t ~now:0.5 (rule 2 "0000_0010"));
  (* rule 1 idles out: an expiration, not an eviction *)
  check Alcotest.int "one expired" 1 (List.length (Tcam.expire t ~now:2.));
  (* rule 3 squeezes rule 2 out: an eviction, not an expiration *)
  ignore (Tcam.insert t ~now:3. (rule 3 "0000_0011"));
  ignore (Tcam.insert_or_evict t ~now:4. (rule 4 "0000_0100"));
  let s = Tcam.stats t in
  check Alcotest.int64 "expirations" 1L s.Tcam.expirations;
  check Alcotest.int64 "evictions" 1L s.Tcam.evictions;
  let snap1 = Telemetry.snapshot () in
  let tele1 name = Telemetry.counter_total snap1 name in
  check Alcotest.int "registry evictions" (ev0 + 1) (tele1 "tcam_evictions");
  check Alcotest.int "registry expirations" (ex0 + 1) (tele1 "tcam_expirations")

(* The Replaced path must hand back the displaced entry with its final
   counters — OpenFlow flow-mod semantics; silently dropping them was the
   counter-loss bug. *)
let test_replace_returns_final_counters () =
  let t = Tcam.create ~capacity:4 in
  let r1 = Rule.make ~id:9 ~priority:1 (Pred.of_strings s2 [ ("f1", "0000_0001") ]) Action.Drop in
  ignore (Tcam.insert t ~now:0. r1);
  ignore (Tcam.lookup t ~now:1. ~bytes:100 (Header.make s2 [| 1L; 0L |]));
  ignore (Tcam.lookup t ~now:2. ~bytes:100 (Header.make s2 [| 1L; 0L |]));
  let r1' = Rule.make ~id:9 ~priority:5 (Pred.of_strings s2 [ ("f1", "0000_001x") ]) Action.Drop in
  (match Tcam.insert t ~now:3. r1' with
  | `Replaced e ->
      check Alcotest.int "final packets" 2 e.Tcam.packets;
      check Alcotest.int "final bytes" 200 e.Tcam.bytes
  | `Ok | `Full -> Alcotest.fail "expected `Replaced");
  check Alcotest.int "occupancy unchanged" 1 (Tcam.occupancy t);
  (* the replacement is also surfaced through insert_or_evict_entries *)
  let d = Tcam.insert_or_evict_entries t ~now:4. (Rule.make ~id:9 ~priority:1 (Pred.any s2) Action.Drop) in
  check Alcotest.bool "replaced entry surfaced" true (Option.is_some d.Tcam.replaced);
  check (Alcotest.list Alcotest.int) "no eviction on same-id reinstall" []
    (List.map (fun (e : Tcam.entry) -> e.Tcam.rule.Rule.id) d.Tcam.evicted)

(* The group index is open-addressed by lane masks and deletes by
   shifting later members of a probe run back, across the array's end
   too.  Tables of 8 to 300 rules over as many random mask pairs, 20
   seeds each, are emptied in a shuffled order; after every removal each
   remaining rule is still found through its group, and the group count
   is the number of distinct mask pairs left. *)
let group_index_removal ~seed n =
  let rng = Prng.create seed in
  let field () =
    Ternary.make ~width:8 ~value:(Int64.of_int (Prng.int rng 256))
      ~mask:(Int64.of_int (Prng.int rng 256))
  in
  let rules =
    Array.init n (fun i ->
        Rule.make ~id:i ~priority:(Prng.int rng 10) (Pred.make s2 [ field (); field () ])
          Action.Drop)
  in
  let ts = Tuple_space.create () in
  let slots = Array.map (fun r -> Tuple_space.add ts r r.Rule.id) rules in
  let live = Array.make n true in
  let masks () =
    List.length
      (List.sort_uniq compare
         (List.filter_map
            (fun (r : Rule.t) ->
              if live.(r.id) then Some (List.init 2 (fun i -> Ternary.mask (Pred.field r.pred i)))
              else None)
            (Array.to_list rules)))
  in
  let found (r : Rule.t) =
    Tuple_space.fold_equal ts r.pred (fun acc id -> acc || id = r.id) false
  in
  let at k = Printf.sprintf "%d rules, seed %d, after %d removals" n seed k in
  if Tuple_space.groups ts <> masks () then Alcotest.failf "%s: group count" (at 0);
  let order = Array.init n Fun.id in
  Prng.shuffle rng order;
  Array.iteri
    (fun k i ->
      Tuple_space.remove ts slots.(i);
      live.(i) <- false;
      Array.iter
        (fun (r : Rule.t) ->
          if found r <> live.(r.id) then
            Alcotest.failf "%s: rule %d %s" (at (k + 1)) r.id
              (if live.(r.id) then "is lost" else "is still found"))
        rules;
      if Tuple_space.groups ts <> masks () then
        Alcotest.failf "%s: %d groups for %d mask pairs" (at (k + 1)) (Tuple_space.groups ts)
          (masks ()))
    order;
  (* the emptied index takes rules again *)
  Array.iter (fun r -> ignore (Tuple_space.add ts r r.Rule.id)) rules;
  if not (Array.for_all found rules) then Alcotest.failf "%s: refill lost a rule" (at n)

let test_group_index_removal () =
  List.iter
    (fun n ->
      for seed = 0 to 19 do
        group_index_removal ~seed n
      done)
    [ 8; 16; 40; 300 ]

(* Indexing the 1,000-rule campus ACL's 16 partition tables (1,015
   rules) at k = 16.  Keying the groups by a boxed mask pair in a
   polymorphic [Hashtbl] cost about 50 words a rule; the open-addressed
   index and a dense bank sized from the table, about 38. *)
let test_indexed_words () =
  let policy = Policy_gen.acl (Prng.create 2010) { Policy_gen.default_acl with rules = 1000 } in
  let topo_rng = Prng.create 2010 in
  let topology = Topology.campus ~rand:(fun () -> Prng.float topo_rng) ~edge_switches:12 () in
  let d =
    Deployment.build
      ~config:{ Deployment.default_config with k = 16 }
      ~policy ~topology ~authority_ids:[ 2; 3; 4 ] ()
  in
  let tables =
    List.map (fun (p : Partitioner.partition) -> p.table) (Deployment.partitioner d).partitions
  in
  let rules = List.fold_left (fun n t -> n + Classifier.length t) 0 tables in
  let w0 = Gc.minor_words () in
  let indexes = List.map Indexed.of_classifier tables in
  let per_rule = (Gc.minor_words () -. w0) /. float_of_int rules in
  check Alcotest.int "every table indexed" (List.length tables) (List.length indexes);
  if per_rule > 44. then Alcotest.failf "%.1f minor words per indexed rule (bound 44)" per_rule

let suite =
  [
    ( "tcam index",
      [
        prop_index_equals_linear;
        prop_tcam_equals_linear ~size:large s2 "indexed TCAM = linear TCAM, capacity 24";
        prop_tcam_equals_linear Schema.acl_5tuple "5-tuple TCAM = linear TCAM (high lane)";
        prop_tcam_equals_linear ~size:large Schema.acl_5tuple
          "5-tuple TCAM = linear TCAM (high lane), capacity 24";
        prop_tcam_equals_linear Schema.openflow_basic "wide TCAM = linear TCAM (openflow_basic)";
        prop_tcam_equals_linear ~size:large Schema.openflow_basic
          "wide TCAM = linear TCAM (openflow_basic), capacity 24";
        tc "op sequences evict and probe" test_op_coverage;
        prop_indexed_equals_first_match s2 "indexed = first_match, tiny2";
        prop_indexed_equals_first_match Schema.acl_5tuple "indexed = first_match, acl_5tuple";
        prop_indexed_equals_first_match Schema.openflow_basic
          "indexed = first_match, openflow_basic";
        tc "colliding chains keep the right rule" test_colliding_chains;
        tc "swap patches actions in place" test_swap;
        tc "dst_ip spills into the high lane" test_high_lane_spill;
        tc "degenerate-case heuristic" test_degenerate_heuristic;
        tc "expirations split from evictions" test_expirations_split_from_evictions;
        tc "replace returns final counters" test_replace_returns_final_counters;
        tc "group index survives removal in any order" test_group_index_removal;
        tc "indexing words per rule" test_indexed_words;
      ] );
  ]
