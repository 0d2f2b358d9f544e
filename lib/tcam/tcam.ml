(* Registry mirrors: bumped on the same line as the per-bank fields, so
   the process-wide totals cannot drift from the sum of per-bank stats. *)
let m_hits = Telemetry.counter "tcam_hits"
let m_misses = Telemetry.counter "tcam_misses"
let m_inserts = Telemetry.counter "tcam_inserts"
let m_evictions = Telemetry.counter "tcam_evictions"
let m_expirations = Telemetry.counter "tcam_expirations"

type entry = {
  rule : Rule.t;
  installed_at : float;
  mutable last_hit : float;
  mutable packets : int;
  mutable bytes : int;
  idle_timeout : float option;
  hard_timeout : float option;
}

(* Internal wrapper: the public entry plus its place in the lookup
   kernel, the intrusive LRU links and the liveness bit the lazy expiry
   heap checks.  A node leaves every structure through [detach]; heap
   records outlive it and are skipped.  [found] and [self] are the
   options a hit returns and the LRU links point through, built once
   with the node, so a hit allocates nothing. *)
type node = {
  e : entry;
  found : Rule.t option;  (* [Some e.rule] *)
  self : node option;  (* [Some] this node *)
  mutable slot : node Tuple_space.slot option;  (* [None]: not in the kernel *)
  mutable prev : node option;  (* towards the LRU end *)
  mutable next : node option;  (* towards the MRU end *)
  mutable live : bool;
}

(* Array-backed binary min-heap of (deadline, node).  Deadlines are the
   value at push time; idle timeouts move an entry's true deadline
   forward on every hit, so a popped record is re-validated against the
   entry and re-pushed when stale (lazy deletion — hits never touch the
   heap, which keeps the per-packet path O(1)). *)
module Heap = struct
  type t = { mutable arr : (float * node) array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let clear h = h.arr <- [||]; h.len <- 0

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if fst h.arr.(i) < fst h.arr.(p) then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < h.len && fst h.arr.(l) < fst h.arr.(i) then l else i in
    let m = if r < h.len && fst h.arr.(r) < fst h.arr.(m) then r else m in
    if m <> i then begin
      swap h i m;
      sift_down h m
    end

  let push h d n =
    if h.len = Array.length h.arr then begin
      let cap = max 8 (2 * h.len) in
      let arr = Array.make cap (d, n) in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    h.arr.(h.len) <- (d, n);
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let peek_deadline h = if h.len = 0 then None else Some (fst h.arr.(0))

  let pop h =
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    sift_down h 0;
    top
end

type stats = {
  hits : int64;
  misses : int64;
  inserts : int64;
  evictions : int64;
  expirations : int64;
}

type t = {
  cap : int;
  use_index : bool;
  by_id : node Int_table.t;
  index : node Tuple_space.t;
  mutable unpacked : int;  (* entries outside [index]: linear table or wide schema *)
  mutable lru_head : node option;  (* least recently touched *)
  mutable lru_tail : node option;  (* most recently touched *)
  heap : Heap.t;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable on_detach : entry -> unit;
}

let make_tcam ~index ~capacity =
  if capacity < 0 then invalid_arg "Tcam.create: negative capacity";
  {
    cap = capacity;
    use_index = index;
    by_id = Int_table.create 64;
    index = Tuple_space.create ();
    unpacked = 0;
    lru_head = None;
    lru_tail = None;
    heap = Heap.create ();
    size = 0;
    hits = 0;
    misses = 0;
    inserts = 0;
    evictions = 0;
    expirations = 0;
    on_detach = ignore;
  }

let create ~capacity = make_tcam ~index:true ~capacity
let create_linear ~capacity = make_tcam ~index:false ~capacity

let capacity t = t.cap
let occupancy t = t.size
let is_full t = t.size >= t.cap
let find t id = Option.map (fun n -> n.e) (Int_table.find_opt t.by_id id)
let mem t id = Int_table.mem t.by_id id

let fold_nodes t f acc =
  let rec go acc = function None -> acc | Some n -> go (f acc n) n.next in
  go acc t.lru_head

let by_priority a b = Rule.compare_priority a.rule b.rule
let entries t = List.sort by_priority (fold_nodes t (fun acc n -> n.e :: acc) [])

let exists t f =
  let rec go = function None -> false | Some n -> f n.e || go n.next in
  go t.lru_head

(* ---- LRU list ---- *)

let lru_unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.lru_head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru_tail <- n.prev);
  n.prev <- None;
  n.next <- None

let lru_append t n =
  n.prev <- t.lru_tail;
  n.next <- None;
  (match t.lru_tail with Some p -> p.next <- n.self | None -> t.lru_head <- n.self);
  t.lru_tail <- n.self

let lru_touch t n =
  match n.next with
  | None -> ()  (* already most recently used *)
  | Some _ ->
      lru_unlink t n;
      lru_append t n

(* ---- lookup kernel ---- *)

(* Every lookup goes through the packed kernel unless some entry could
   not enter it: the linear reference table, or a schema over 126 bits,
   which keep the per-field scan. *)
let packed t = t.use_index && t.unpacked = 0

(* Aggregation's probes ask the kernel's groups for a predicate's equal
   entries and buddies.  An unpacked bank makes every entry a candidate,
   as lookup scans them; so does a predicate the kernel cannot pack,
   which an empty bank (still packed) meets on its first wide install. *)
let fold_probe probe t pred f acc =
  if packed t && Header.lanes_exact (Pred.schema pred) then
    probe t.index pred (fun acc n -> f acc n.e) acc
  else fold_nodes t (fun acc n -> f acc n.e) acc

let fold_equal t = fold_probe Tuple_space.fold_equal t
let fold_buddies t = fold_probe Tuple_space.fold_buddies t

let index_groups t = Tuple_space.groups t.index
let index_degenerate t = (not (packed t)) || Tuple_space.degenerate t.index

(* ---- expiry deadlines ---- *)

let deadline_of e =
  match (e.idle_timeout, e.hard_timeout) with
  | None, None -> None
  | Some i, None -> Some (e.last_hit +. i)
  | None, Some h -> Some (e.installed_at +. h)
  | Some i, Some h -> Some (Float.min (e.last_hit +. i) (e.installed_at +. h))

let expired e ~now =
  (match e.idle_timeout with Some d -> now -. e.last_hit >= d | None -> false)
  || match e.hard_timeout with Some d -> now -. e.installed_at >= d | None -> false

(* ---- attach / detach ---- *)

let attach t n =
  Int_table.replace t.by_id n.e.rule.Rule.id n;
  lru_append t n;
  if t.use_index && Header.lanes_exact (Pred.schema n.e.rule.Rule.pred) then
    n.slot <- Some (Tuple_space.add t.index n.e.rule n)
  else t.unpacked <- t.unpacked + 1;
  t.size <- t.size + 1;
  match deadline_of n.e with Some d -> Heap.push t.heap d n | None -> ()

(* Every removal path — eviction, expiry, [remove], same-id replacement
   — ends here, and [clear] runs the same hook on each entry, so the
   owner's [on_detach] sees every entry that leaves the bank once. *)
let detach t n =
  n.live <- false;
  Int_table.remove t.by_id n.e.rule.Rule.id;
  lru_unlink t n;
  (match n.slot with
  | Some s -> Tuple_space.remove t.index s
  | None -> t.unpacked <- t.unpacked - 1);
  t.size <- t.size - 1;
  t.on_detach n.e

let on_detach t f = t.on_detach <- f

(* ---- mutation ---- *)

let make_entry ?idle_timeout ?hard_timeout ~now rule =
  {
    rule;
    installed_at = now;
    last_hit = now;
    packets = 0;
    bytes = 0;
    idle_timeout;
    hard_timeout;
  }

let make_node e =
  let rec n =
    { e; found = Some e.rule; self = Some n; slot = None; prev = None; next = None;
      live = true }
  in
  n

let insert ?idle_timeout ?hard_timeout t ~now rule =
  let displaced =
    match Int_table.find_opt t.by_id rule.Rule.id with
    | Some old ->
        detach t old;
        Some old.e
    | None -> None
  in
  if displaced = None && is_full t then `Full
  else begin
    attach t (make_node (make_entry ?idle_timeout ?hard_timeout ~now rule));
    t.inserts <- t.inserts + 1;
    Telemetry.incr m_inserts;
    match displaced with Some e -> `Replaced e | None -> `Ok
  end

let evict_lru t =
  match t.lru_head with
  | None -> None
  | Some n ->
      detach t n;
      t.evictions <- t.evictions + 1;
      Telemetry.incr m_evictions;
      Some n.e

type displaced = { evicted : entry list; replaced : entry option; bounced : bool }

let insert_or_evict_entries ?idle_timeout ?hard_timeout t ~now rule =
  if t.cap = 0 then { evicted = []; replaced = None; bounced = true }
  else begin
    let evicted = ref [] in
    while (not (mem t rule.Rule.id)) && is_full t do
      match evict_lru t with
      | Some e -> evicted := e :: !evicted
      | None -> ()
    done;
    let replaced =
      match insert ?idle_timeout ?hard_timeout t ~now rule with
      | `Replaced e -> Some e
      | `Ok | `Full -> None
    in
    { evicted = List.rev !evicted; replaced; bounced = false }
  end

let insert_or_evict ?idle_timeout ?hard_timeout t ~now rule =
  let d = insert_or_evict_entries ?idle_timeout ?hard_timeout t ~now rule in
  let evicted = List.map (fun e -> e.rule) d.evicted in
  if d.bounced then evicted @ [ rule ] else evicted

let remove t id =
  match Int_table.find_opt t.by_id id with
  | Some n ->
      detach t n;
      true
  | None -> false

let clear t =
  let gone = fold_nodes t (fun acc n -> n.live <- false; n.e :: acc) [] in
  Int_table.reset t.by_id;
  Tuple_space.clear t.index;
  t.unpacked <- 0;
  t.lru_head <- None;
  t.lru_tail <- None;
  Heap.clear t.heap;
  t.size <- 0;
  List.iter t.on_detach gone

let expire_entries t ~now =
  let gone = ref [] in
  let running = ref true in
  while !running do
    match Heap.peek_deadline t.heap with
    | Some d when d <= now -> (
        let _, n = Heap.pop t.heap in
        if n.live then
          if expired n.e ~now then begin
            detach t n;
            gone := n.e :: !gone
          end
          else
            (* a hit moved the idle deadline forward since the push:
               re-key the record at the entry's current deadline *)
            match deadline_of n.e with
            | Some d' -> Heap.push t.heap d' n
            | None -> ())
    | _ -> running := false
  done;
  let gone = List.sort (fun a b -> Rule.compare_priority a.rule b.rule) !gone in
  let k = List.length gone in
  t.expirations <- t.expirations + k;
  Telemetry.add m_expirations k;
  gone

let expire t ~now = List.map (fun e -> e.rule) (expire_entries t ~now)

(* ---- lookup ---- *)

let best_match_linear t h =
  fold_nodes t
    (fun best n ->
      if Rule.matches n.e.rule h then
        match best with
        | Some (b : node) when not (Rule.beats n.e.rule b.e.rule) -> best
        | _ -> Some n
      else best)
    None

let hit t ~now ~bytes n =
  let e = n.e in
  e.last_hit <- now;
  e.packets <- e.packets + 1;
  e.bytes <- e.bytes + bytes;
  lru_touch t n;
  t.hits <- t.hits + 1;
  Telemetry.incr m_hits;
  n.found

let miss t =
  t.misses <- t.misses + 1;
  Telemetry.incr m_misses;
  None

let lookup t ~now ?(bytes = 64) h =
  if packed t then
    let i = Tuple_space.find t.index ~lo:(Header.key_lo h) ~hi:(Header.key_hi h) in
    if i < 0 then miss t else hit t ~now ~bytes (Tuple_space.get t.index i)
  else
    match best_match_linear t h with Some n -> hit t ~now ~bytes n | None -> miss t

let peek t h =
  if packed t then
    let i = Tuple_space.find t.index ~lo:(Header.key_lo h) ~hi:(Header.key_hi h) in
    if i < 0 then None else (Tuple_space.get t.index i).found
  else match best_match_linear t h with Some n -> n.found | None -> None

(* Liveness refresh without a hit: push the idle deadline forward and
   move the entry to MRU, but leave the hit/packet counters alone.  The
   expiry heap needs no update — deadlines are revalidated from
   [last_hit] lazily at pop time.  Used to keep a cover set's unhit
   high-rank members alive (and LRU-adjacent) while any member of the
   group is absorbing traffic. *)
let touch t ~now id =
  match Int_table.find t.by_id id with
  | n ->
      n.e.last_hit <- now;
      lru_touch t n;
      true
  | exception Not_found -> false

(* ---- statistics ---- *)

let stats t =
  {
    hits = Int64.of_int t.hits;
    misses = Int64.of_int t.misses;
    inserts = Int64.of_int t.inserts;
    evictions = Int64.of_int t.evictions;
    expirations = Int64.of_int t.expirations;
  }

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then Float.nan else float_of_int t.hits /. float_of_int total
