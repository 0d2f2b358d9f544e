(* Rules live twice: in a dense structure-of-arrays (lanes + slots) that
   the degenerate scan walks, and in one hash chain of their group.
   Removal swaps the last dense slot into the hole, so every slot keeps
   its own position. *)

type 'a slot = {
  value_lo : int;
  value_hi : int;
  mutable rule : Rule.t;  (* [swap] changes its action, never its lanes or rank *)
  mutable data : 'a;
  group : 'a group;
  mutable pos : int;  (* index in [slots]; lanes at [4 * pos] *)
}

and 'a group = {
  mask_lo : int;
  mask_hi : int;
  top : Rule.t;
      (* the first member; the group's best while [sorted].  Only its
         priority and id are read, which [swap] keeps. *)
  mutable chains : 'a slot list array;  (* power-of-two length, chains in table order *)
  mutable members : int;
  mutable gpos : int;  (* index in [groups] *)
}

type 'a t = {
  mutable lanes : int array;  (* per slot: mask_lo, value_lo, mask_hi, value_hi *)
  mutable slots : 'a slot array;
  mutable len : int;
  mutable groups : 'a group array;
  mutable ngroups : int;
  mutable by_mask : 'a group option array;
      (* the groups by lane masks: open addressing with linear probing
         over a power-of-two array at most half full.  A lookup hands back
         the stored [Some], so it boxes no key and allocates nothing. *)
  size : int;  (* dense capacity the first growth takes *)
  (* Rules arrived in table order and none left: dense positions and
     group positions are then in table order too, so the first match of
     a scan wins and a probe can stop at the first group whose top the
     current winner beats.  This is how a classifier is indexed. *)
  mutable sorted : bool;
}

let create ?(size = 8) () =
  {
    lanes = [||];
    slots = [||];
    len = 0;
    groups = [||];
    ngroups = 0;
    by_mask = Array.make 16 None;
    size;
    sorted = true;
  }

let clear t =
  t.lanes <- [||];
  t.slots <- [||];
  t.len <- 0;
  t.groups <- [||];
  t.ngroups <- 0;
  Array.fill t.by_mask 0 (Array.length t.by_mask) None;
  t.sorted <- true

let groups t = t.ngroups
let get t i = t.slots.(i).data

(* Two lanes to a hash.  The xor-shift-multiply rounds carry high lane
   bits (prefix values live there) down into the low bits a power-of-two
   mask keeps. *)
let mix lo hi =
  let h = lo lxor (hi * 0x2545f4914f6cdd1d) in
  let h = (h lxor (h lsr 31)) * 0x3c6ef372fe94f82b in
  h lxor (h lsr 29)

(* masked lanes to a chain *)
let chain_of g klo khi = mix klo khi land (Array.length g.chains - 1)

(* ---- the group index ---- *)

let home buckets mlo mhi = mix mlo mhi land (Array.length buckets - 1)
let next buckets i = (i + 1) land (Array.length buckets - 1)

let rec lookup buckets mlo mhi i =
  match buckets.(i) with
  | None -> None
  | Some g as found when g.mask_lo = mlo && g.mask_hi = mhi -> found
  | Some _ -> lookup buckets mlo mhi (next buckets i)

let group_of t mlo mhi = lookup t.by_mask mlo mhi (home t.by_mask mlo mhi)

let rec place buckets cell i =
  match buckets.(i) with None -> buckets.(i) <- cell | Some _ -> place buckets cell (next buckets i)

let place_group buckets = function
  | None -> ()
  | Some g as cell -> place buckets cell (home buckets g.mask_lo g.mask_hi)

(* After [t.ngroups] has counted [g]. *)
let index_group t g =
  if 2 * t.ngroups > Array.length t.by_mask then begin
    let old = t.by_mask in
    t.by_mask <- Array.make (2 * Array.length old) None;
    Array.iter (place_group t.by_mask) old
  end;
  place_group t.by_mask (Some g)

(* Backward-shift deletion: every later member of [g]'s probe run that
   may move into the hole does, so no probe stops early at a gap.  A
   member stays when its home lies cyclically in (hole, j]. *)
let unindex_group t g =
  let b = t.by_mask in
  let rec slot i = match b.(i) with Some x when x == g -> i | _ -> slot (next b i) in
  let rec shift hole j =
    match b.(j) with
    | None -> ()
    | Some x as cell ->
        let k = home b x.mask_lo x.mask_hi in
        let stays = if hole <= j then hole < k && k <= j else hole < k || k <= j in
        if stays then shift hole (next b j)
        else begin
          b.(hole) <- cell;
          b.(j) <- None;
          shift j (next b j)
        end
  in
  let i = slot (home b g.mask_lo g.mask_hi) in
  b.(i) <- None;
  shift i (next b i)

(* ---- table order and chains ---- *)

let rec insert_ordered s = function
  | [] -> [ s ]
  | x :: rest as l ->
      if Rule.beats s.rule x.rule then s :: l else x :: insert_ordered s rest

let chain_add g s =
  let c = chain_of g s.value_lo s.value_hi in
  g.chains.(c) <- insert_ordered s g.chains.(c)

(* Degenerate caches hold about one group per rule, so a group starts
   with one chain and doubles past two members per chain. *)
let grow g =
  let old = g.chains in
  g.chains <- Array.make (2 * Array.length old) [];
  Array.iter (List.iter (chain_add g)) old

let push_dense t s ~mask_lo ~mask_hi =
  let n = t.len in
  if n = Array.length t.slots then begin
    let cap = max t.size (max 8 (2 * n)) in
    let slots = Array.make cap s and lanes = Array.make (4 * cap) 0 in
    Array.blit t.slots 0 slots 0 n;
    Array.blit t.lanes 0 lanes 0 (4 * n);
    t.slots <- slots;
    t.lanes <- lanes
  end;
  t.slots.(n) <- s;
  let j = 4 * n in
  t.lanes.(j) <- mask_lo;
  t.lanes.(j + 1) <- s.value_lo;
  t.lanes.(j + 2) <- mask_hi;
  t.lanes.(j + 3) <- s.value_hi;
  t.len <- n + 1

let group_for t rule ~mask_lo ~mask_hi =
  match group_of t mask_lo mask_hi with
  | Some g -> g
  | None ->
      let g =
        { mask_lo; mask_hi; top = rule; chains = [| [] |]; members = 0; gpos = t.ngroups }
      in
      if t.ngroups = Array.length t.groups then begin
        let groups = Array.make (max 8 (2 * t.ngroups)) g in
        Array.blit t.groups 0 groups 0 t.ngroups;
        t.groups <- groups
      end;
      t.groups.(t.ngroups) <- g;
      t.ngroups <- t.ngroups + 1;
      index_group t g;
      g

let add t (rule : Rule.t) data =
  let mask_lo, value_lo, mask_hi, value_hi = Pred.lanes rule.pred in
  if t.len > 0 && Rule.beats rule t.slots.(t.len - 1).rule then t.sorted <- false;
  let g = group_for t rule ~mask_lo ~mask_hi in
  let s = { value_lo; value_hi; rule; data; group = g; pos = t.len } in
  push_dense t s ~mask_lo ~mask_hi;
  chain_add g s;
  g.members <- g.members + 1;
  if g.members > 2 * Array.length g.chains then grow g;
  s

let remove t s =
  let g = s.group in
  let c = chain_of g s.value_lo s.value_hi in
  g.chains.(c) <- List.filter (fun x -> x != s) g.chains.(c);
  g.members <- g.members - 1;
  if g.members = 0 then begin
    unindex_group t g;
    let last = t.ngroups - 1 in
    let moved = t.groups.(last) in
    t.groups.(g.gpos) <- moved;
    moved.gpos <- g.gpos;
    t.groups.(last) <- t.groups.(0);
    t.ngroups <- last
  end;
  let last = t.len - 1 in
  let moved = t.slots.(last) in
  t.slots.(s.pos) <- moved;
  Array.blit t.lanes (4 * last) t.lanes (4 * s.pos) 4;
  moved.pos <- s.pos;
  t.slots.(last) <- t.slots.(0);
  t.len <- last;
  t.sorted <- false

(* The slot of the rule with [rule]'s id, found through the chain of
   [rule]'s own lanes: an equal predicate packs to the same group and
   chain, so no id map is needed. *)
let swap t (rule : Rule.t) data =
  let mask_lo, value_lo, mask_hi, value_hi = Pred.lanes rule.pred in
  let rec slot_of = function
    | [] -> invalid_arg "Tuple_space.swap: no rule with this id and predicate"
    | s :: rest -> if s.rule.Rule.id = rule.id then s else slot_of rest
  in
  match group_of t mask_lo mask_hi with
  | None -> invalid_arg "Tuple_space.swap: no rule with this id and predicate"
  | Some g ->
      let s = slot_of g.chains.(chain_of g value_lo value_hi) in
      if not (Pred.equal s.rule.pred rule.pred) then
        invalid_arg "Tuple_space.swap: predicate differs";
      if s.rule.priority <> rule.priority then invalid_arg "Tuple_space.swap: priority differs";
      s.rule <- rule;
      s.data <- data

(* ---- lookup ---- *)

(* The hot loop of a degenerate table.  [lanes] holds at least
   [4 * len] ints, so the unchecked reads stay in bounds. *)
let scan t lo hi =
  let lanes = t.lanes and stop = 4 * t.len in
  let best = ref (-1) and j = ref 0 in
  while !j < stop do
    let k = !j in
    j := k + 4;
    if
      lo land Array.unsafe_get lanes k = Array.unsafe_get lanes (k + 1)
      && hi land Array.unsafe_get lanes (k + 2) = Array.unsafe_get lanes (k + 3)
    then begin
      let i = k / 4 in
      if !best < 0 || Rule.beats t.slots.(i).rule t.slots.(!best).rule then best := i;
      if t.sorted then j := stop
    end
  done;
  !best

let rec first_in klo khi = function
  | [] -> -1
  | s :: rest -> if s.value_lo = klo && s.value_hi = khi then s.pos else first_in klo khi rest

let probe t lo hi =
  let groups = t.groups and slots = t.slots and n = t.ngroups in
  let best = ref (-1) and i = ref 0 in
  while !i < n do
    let g = groups.(!i) in
    if t.sorted && !best >= 0 && Rule.beats slots.(!best).rule g.top then i := n
    else begin
      let klo = lo land g.mask_lo and khi = hi land g.mask_hi in
      let p = first_in klo khi g.chains.(chain_of g klo khi) in
      if p >= 0 && (!best < 0 || Rule.beats slots.(p).rule slots.(!best).rule) then best := p;
      incr i
    end
  done;
  !best

(* Probing costs [probe_cost] per group, scanning [scan_cost] per rule,
   in tenths of a nanosecond: the bench kernel "tcam-lookup: degenerate
   1024 fragments" (1024 rules, 353 groups) timed with every lookup
   forced to probe (8.29 us) and forced to scan (2.81 us).  A probe is a
   hash and three dependent loads into scattered records; a scan step is
   two ands and two compares over one contiguous array.  DESIGN.md §7
   has the full table. *)
let probe_cost = 235
let scan_cost = 27
let degenerate t = probe_cost * t.ngroups > scan_cost * t.len

let find t ~lo ~hi = if degenerate t then scan t lo hi else probe t lo hi

(* ---- probes by predicate ---- *)

let rec fold_chain vlo vhi f acc = function
  | [] -> acc
  | s :: rest ->
      let acc = if s.value_lo = vlo && s.value_hi = vhi then f acc s.data else acc in
      fold_chain vlo vhi f acc rest

let fold_at g vlo vhi f acc = fold_chain vlo vhi f acc g.chains.(chain_of g vlo vhi)

let fold_equal t p f acc =
  let mlo, vlo, mhi, vhi = Pred.lanes p in
  match group_of t mlo mhi with
  | Some g -> fold_at g vlo vhi f acc
  | None -> acc

(* A buddy has the same masks, so it sits in the same group, at the
   values with one masked bit flipped: one chain per masked bit. *)
let fold_buddies t p f acc =
  let mlo, vlo, mhi, vhi = Pred.lanes p in
  match group_of t mlo mhi with
  | None -> acc
  | Some g ->
      (* [probe] each set bit of [mask], lowest first *)
      let rec flips mask probe acc =
        if mask = 0 then acc
        else
          let b = mask land -mask in
          flips (mask lxor b) probe (probe b acc)
      in
      flips mhi (fun b acc -> fold_at g vlo (vhi lxor b) f acc)
        (flips mlo (fun b acc -> fold_at g (vlo lxor b) vhi f acc) acc)
