type piece = { origin : Rule.t; pred : Pred.t }

(* One authority table's splicing structure: the CacheFlow dependency
   graph, built a rule at a time on demand.  Rules sit at their
   table-order index; an earlier index beats a later one, so a rule's
   blockers and its dependency edges only ever point backwards.  The
   per-rule arrays start at [unset] and are filled on first use, so a
   table pays for the rules that miss and for their dependencies, never
   for the whole O(n^3) graph up front. *)
type plan = {
  index : Indexed.t;
  rules : Rule.t array; (* table order; actions refreshed by [swap] *)
  at : (int, int) Hashtbl.t; (* rule id -> table-order index *)
  blockers : int array array; (* earlier rules overlapping the rule *)
  edges : int array array; (* its direct dependencies, a blocker subset *)
  closures : int array array; (* the rule and every rule it reaches *)
}

(* a physically unique "not computed yet" marker: [[||]] is shared by
   every empty array, and a rule may have no blockers or edges *)
let unset = [| -1 |]

let plan index =
  let rules = Array.of_list (Classifier.rules (Indexed.table index)) in
  let n = Array.length rules in
  let at = Hashtbl.create n in
  Array.iteri (fun i (r : Rule.t) -> Hashtbl.replace at r.id i) rules;
  {
    index;
    rules;
    at;
    blockers = Array.make n unset;
    edges = Array.make n unset;
    closures = Array.make n unset;
  }

let swap p rules =
  List.iter
    (fun (r : Rule.t) ->
      match Hashtbl.find_opt p.at r.id with
      | Some i -> p.rules.(i) <- r
      | None -> invalid_arg "Splice.swap: no rule with this id")
    rules

let index_of p (r : Rule.t) = Hashtbl.find p.at r.id

let blockers p i =
  let memo = p.blockers.(i) in
  if memo != unset then memo
  else begin
    let pred = p.rules.(i).Rule.pred in
    let n = ref 0 in
    for k = 0 to i - 1 do
      if Pred.overlaps p.rules.(k).Rule.pred pred then incr n
    done;
    let out = Array.make !n 0 in
    let n = ref 0 in
    for k = 0 to i - 1 do
      if Pred.overlaps p.rules.(k).Rule.pred pred then begin
        out.(!n) <- k;
        incr n
      end
    done;
    p.blockers.(i) <- out;
    out
  end

(* [Classifier.direct_dependencies] over the memoised blockers: blocker
   [k] is an edge when some header of [r]'s overlap with it escapes
   every blocker that [k] beats — the ones after it in the array. *)
let edges p i =
  let memo = p.edges.(i) in
  if memo != unset then memo
  else begin
    let bl = blockers p i in
    let pred = p.rules.(i).Rule.pred in
    let keep = ref [] and after = ref [] in
    for k = Array.length bl - 1 downto 0 do
      let b = p.rules.(bl.(k)).Rule.pred in
      (match Pred.inter pred b with
      | Some ov when Pred.diff_nonempty ov !after -> keep := bl.(k) :: !keep
      | Some _ | None -> ());
      after := b :: !after
    done;
    let out = Array.of_list !keep in
    p.edges.(i) <- out;
    out
  end

(* Every index reachable from [i] along edges, [i] included, ascending:
   the cover set in table order. *)
let closure p i =
  let memo = p.closures.(i) in
  if memo != unset then memo
  else begin
    let seen = Bytes.make (i + 1) '\000' and count = ref 0 in
    let rec visit j =
      if Bytes.get seen j = '\000' then begin
        Bytes.set seen j '\001';
        incr count;
        Array.iter visit (edges p j)
      end
    in
    visit i;
    let out = Array.make !count 0 and n = ref 0 in
    for j = 0 to i do
      if Bytes.get seen j <> '\000' then begin
        out.(!n) <- j;
        incr n
      end
    done;
    p.closures.(i) <- out;
    out
  end

(* Clip the winner's predicate against each higher-priority overlap,
   keeping only the disjoint fragment containing the packet.  One
   hyper-rectangle survives each step, so the walk is linear in the
   blocker count — materialising the full disjoint cover (which can
   fragment combinatorially) is never needed.  Pieces spliced from
   different headers of the same rule may overlap each other, which is
   harmless: they carry the same action.  Pieces of different rules are
   always disjoint (each excludes the other's whole predicate). *)
let piece p (origin : Rule.t) h =
  let bl = blockers p (index_of p origin) in
  let pred = ref origin.pred in
  for k = 0 to Array.length bl - 1 do
    let b = p.rules.(bl.(k)).Rule.pred in
    if Pred.overlaps !pred b then pred := Pred.clip_to_holder !pred h b
  done;
  { origin; pred = !pred }

let for_header p h = Option.map (fun o -> piece p o h) (Indexed.first_match p.index h)

(* Cache-rule priority: the origin's rank in its partition table, counted
   from the bottom (the last rule ranks 1, the first ranks N).  Two
   properties make this the right priority space for the ingress cache:

   - it is strictly decreasing along [Rule.compare_priority] table order,
     so cached copies of whole rules (cover sets) beat each other exactly
     as the authority table would — ties included, because table order
     already breaks priority ties by id;
   - a spliced fragment excludes every rule that beats its origin, so
     giving the fragment its origin's rank can never steal a packet from
     a higher-ranked cached rule (no such rule overlaps the fragment),
     while correctly beating any lower-ranked cover rule it overlaps.

   Ranks start at 1; the exact-match fallbacks installed by the degraded
   controller path keep priority 0 and thus never outrank a spliced or
   cover entry.  Ranks from different partition tables never interact:
   partition tables are clipped to disjoint regions. *)
let rank_at p i = Array.length p.rules - i
let rank p r = rank_at p (index_of p r)

let cache_rule ~next_id p piece =
  Rule.make ~id:(next_id ()) ~priority:(rank p piece.origin) piece.pred
    piece.origin.Rule.action

let closure_size p r = Array.length (closure p (index_of p r))

let fold_cover p r f init =
  let members = closure p (index_of p r) in
  let acc = ref init in
  for k = Array.length members - 1 downto 0 do
    let j = members.(k) in
    acc := f k p.rules.(j) (rank_at p j) !acc
  done;
  !acc

let pieces_of_rule table (r : Rule.t) =
  let blockers =
    Classifier.rules table
    |> List.filter (fun r' -> Rule.beats r' r && Rule.overlaps r' r)
    |> List.map (fun (r' : Rule.t) -> r'.pred)
  in
  Pred.subtract_all r.pred blockers

let dependent_set_cost table r =
  (* Transitive closure over direct-dependency edges. *)
  let seen = Hashtbl.create 16 in
  let rec visit (r : Rule.t) =
    if not (Hashtbl.mem seen r.id) then begin
      Hashtbl.add seen r.id ();
      List.iter visit (Classifier.direct_dependencies table r)
    end
  in
  visit r;
  Hashtbl.length seen
