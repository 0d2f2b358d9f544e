(* Shared helpers for the test suites. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let qt ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Brute-force views the library does not need: point enumeration, exact
   sizes, membership and set forms, built from each module's public
   readers.  They shadow the library modules so a test writes
   [Region.matches] and [Pred.enumerate] as before. *)

module Schema = struct
  include Schema

  (* A trimmed OpenFlow 1.0 tuple: 136 bits, too wide to pack into lanes. *)
  let openflow_basic =
    create
      [
        { name = "in_port"; bits = 16 };
        { name = "eth_type"; bits = 16 };
        { name = "src_ip"; bits = 32 };
        { name = "dst_ip"; bits = 32 };
        { name = "proto"; bits = 8 };
        { name = "src_port"; bits = 16 };
        { name = "dst_port"; bits = 16 };
      ]
end

module Header = struct
  include Header

  (* Named construction; unnamed fields are 0, unknown names raise
     [Not_found]. *)
  let of_fields schema assoc =
    List.iter (fun (name, _) -> ignore (Schema.index schema name)) assoc;
    make schema
      (Array.init (Schema.arity schema) (fun i ->
           Option.value ~default:0L (List.assoc_opt (Schema.field_name schema i) assoc)))

  let get t name = field t (Schema.index (schema t) name)
end

(* Journals are plain data: two are equal when they encode to the same
   bytes and hold the same records. *)
(* Registry readers by name, from a fresh snapshot. *)
let gauge_value name =
  match Telemetry.find (Telemetry.snapshot ()) name with
  | Some (Telemetry.Gauge v) -> v
  | _ -> Alcotest.failf "no gauge %s" name

let histogram_count_sum name =
  match Telemetry.find (Telemetry.snapshot ()) name with
  | Some (Telemetry.Histogram { count; sum; _ }) -> (count, sum)
  | _ -> Alcotest.failf "no histogram %s" name

module Paths = struct
  include Paths

  let any = { q_key = None; q_switch = None; q_outcome = None; q_since = None; q_until = None }
end

module Journal = struct
  include Journal

  let length j = List.length (entries j)
  let equal a b = Bytes.equal (encode a) (encode b) && entries a = entries b
end

(* Messages are plain data, so structural equality is exact. *)
module Message = struct
  include Message

  let equal (a : t) b = a = b
  let pp ppf m = Format.fprintf ppf "<%d-byte frame>" (Bytes.length (encode ~xid:0 m))
end

module Switch = struct
  include Switch

  let install_partition_rules t rules = install_partition_bank t (partition_bank rules)

  let origins_of_cache_rule = Invalidate_scan.origins

  (* [(primary origin, serving partition)] of a cache rule. *)
  let provenance_of_cache_rule t cid =
    Option.map
      (fun m -> ((match m.parts with p :: _ -> p.part_origin | [] -> -1), m.pid))
      (cache_meta_of_rule t cid)
end

module Tcam = struct
  include Tcam

  let select t f = List.filter f (entries t)

  let remove_where t f =
    List.length (List.filter (fun (e : entry) -> f e.rule && remove t e.rule.Rule.id) (entries t))
end

module Ternary = struct
  include Ternary

  let size t = Float.pow 2. (float_of_int (wildcard_bits t))

  (* The members of [t] in increasing order, up to [limit]. *)
  let enumerate ?(limit = 1024) t =
    let wilds = List.filter (fun j -> bit t j = `Any) (List.init (width t) Fun.id) in
    let count = if List.length wilds >= 30 then limit else min limit (1 lsl List.length wilds) in
    List.init count (fun k ->
        fst
          (List.fold_left
             (fun (v, i) j ->
               ((if (k lsr i) land 1 = 1 then Int64.logor v (Int64.shift_left 1L j) else v), i + 1))
             (value t, 0) wilds))
end

module Pred = struct
  include Pred

  (* Concrete headers of [t], up to [limit]. *)
  let enumerate ?(limit = 256) t =
    let rec go i acc =
      if i >= arity t then acc
      else
        let vals = Ternary.enumerate ~limit (field t i) in
        go (i + 1)
          (List.filteri (fun k _ -> k < limit)
             (List.concat_map (fun partial -> List.map (fun v -> v :: partial) vals) acc))
    in
    List.map (fun fs -> Header.make (schema t) (Array.of_list (List.rev fs))) (go 0 [ [] ])
end

module Region = struct
  include Region

  let of_pred p = of_preds (Pred.schema p) [ p ]
  let matches t h = List.exists (fun p -> Pred.matches p h) (preds t)
  let inter a b = diff a (diff a b)
  let equal_sets a b = subsumes a b && subsumes b a
  let size_upper t = List.fold_left (fun acc p -> acc +. Pred.size p) 0. (preds t)
  let with_preds t ps = match preds t with [] -> t | p :: _ -> of_preds (Pred.schema p) ps

  (* Peel predicates front to back, keeping what earlier ones left. *)
  let disjointify t =
    let rec go seen acc = function
      | [] -> List.rev acc
      | p :: rest -> go (p :: seen) (List.rev_append (Pred.subtract_all p seen) acc) rest
    in
    with_preds t (go [] [] (preds t))

  let size_exact t = size_upper (disjointify t)

  (* Drop duplicates and predicates another one subsumes. *)
  let compact t =
    let rec dedup = function
      | [] -> []
      | p :: rest -> if List.exists (Pred.equal p) rest then dedup rest else p :: dedup rest
    in
    let ps = dedup (preds t) in
    with_preds t
      (List.filter
         (fun p -> not (List.exists (fun q -> (not (Pred.equal p q)) && Pred.subsumes q p) ps))
         ps)
end

module Classifier = struct
  include Classifier

  (* Total by a lowest-priority drop-everything rule, unless already so. *)
  let default_deny t =
    if is_total t then t
    else
      let rs = rules t in
      add t
        (Rule.make
           ~id:(1 + List.fold_left (fun acc (r : Rule.t) -> max acc r.id) (-1) rs)
           ~priority:(List.fold_left (fun acc (r : Rule.t) -> min acc r.priority) 0 rs - 1)
           (Pred.any (schema t)) Action.Drop)

  let remove_shadowed t =
    List.fold_left (fun c (r : Rule.t) -> remove c r.id) t (shadowed t)
end

module Equiv = struct
  include Equiv

  (* Headers no rule matches. *)
  let unmatched_region c =
    Region.diff
      (Region.full (Classifier.schema c))
      (Region.of_preds (Classifier.schema c)
         (List.map (fun (r : Rule.t) -> r.pred) (Classifier.rules c)))
end

(* Deterministic PRNG for sampling-based checks. *)
let rng = ref 0x9E3779B97F4A7C15L

let rand_bits n =
  (* splitmix64 step, truncated *)
  rng := Int64.add !rng 0x9E3779B97F4A7C15L;
  let z = !rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z (Int64.sub (Int64.shift_left 1L n) 1L))

(* QCheck generators for ternary values and predicates. *)

let gen_ternary ?(width = 8) () =
  let open QCheck2.Gen in
  list_repeat width (oneofl [ '0'; '1'; 'x' ]) >|= fun cs ->
  Ternary.of_string (String.init width (List.nth cs))

let gen_point width =
  let open QCheck2.Gen in
  map Int64.of_int (int_bound ((1 lsl width) - 1))

let gen_pred_tiny2 =
  let open QCheck2.Gen in
  let* a = gen_ternary ~width:8 () in
  let* b = gen_ternary ~width:8 () in
  return (Pred.make Schema.tiny2 [ a; b ])

let gen_header_tiny2 =
  let open QCheck2.Gen in
  let* a = gen_point 8 in
  let* b = gen_point 8 in
  return (Header.make Schema.tiny2 [| a; b |])

(* Alcotest testables *)
let ternary = Alcotest.testable Ternary.pp Ternary.equal
let pred = Alcotest.testable Pred.pp Pred.equal
let header = Alcotest.testable Header.pp Header.equal
let action = Alcotest.testable Action.pp Action.equal

(* Partitions equal pid, region and table rule for rule. *)
let same_partition (a : Partitioner.partition) (b : Partitioner.partition) =
  a.pid = b.pid && Pred.equal a.region b.region
  && List.equal Rule.equal (Classifier.rules a.table) (Classifier.rules b.table)

(* A dead switch: the same node set with every link touching [v] removed,
   so node ids stay stable. *)
let without_node t v =
  Topology.create ~nodes:(Topology.nodes t)
    (List.filter (fun (l : Topology.link) -> l.src <> v && l.dst <> v) (Topology.links t))
