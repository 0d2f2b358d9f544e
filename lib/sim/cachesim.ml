type kind = Wildcard_splice | Microflow | Aggregated

let m_lookups = Telemetry.counter "cachesim_lookups"
let m_misses = Telemetry.counter "cachesim_misses"

type result = {
  kind : kind;
  cache_size : int;
  lookups : int;
  misses : int;
  miss_rate : float;
  distinct_keys : int;
  origin_hits : (int * int) list;
}

let packet_stream flows =
  let packets =
    List.concat_map
      (fun (f : Traffic.flow) ->
        List.init f.packets (fun i ->
            (f.start +. (float_of_int i *. f.interval), f.header)))
      flows
  in
  let arr = Array.of_list packets in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) arr;
  Array.map snd arr

(* Cache keys are small ints: headers (or spliced pieces) are interned
   once, so the LRU inner loop is allocation-free.  Interning is keyed on
   the header itself — its int-packed key and precomputed hash make the
   per-packet lookup a two-int compare — instead of a per-packet decimal
   string of its field values. *)

module Htbl = Hashtbl.Make (struct
  type t = Header.t

  let equal = Header.equal
  let hash = Header.hash
end)

(* A keyed stream, plus each key's provenance: the policy rule whose
   piece (wildcard) or first match (microflow) the key stands for, -1 for
   unmatched headers.  Microflow provenance is resolved lazily —
   [origin_of] walks the classifier only for keys somebody asks about
   (the ones with cache hits), so a thrashing stream never pays for
   attribution it will not report.

   [attr_keys] separates cache identity from hit attribution: for the
   plain kinds it is [keys] itself (same array), but the [Aggregated]
   kind merges several pieces into one resident entry while [attr_keys]
   keeps each position's pre-merge piece — so per-origin hit counts stay
   exact even when one installed entry stands for several rules, the
   trace-driven mirror of the live switches' multi-part metas. *)
type keyed = { keys : int array; attr_keys : int array; origin_of : int -> int }

let keys_for kind classifier stream =
  match kind with
  | Microflow ->
      let tbl : int Htbl.t = Htbl.create 1024 in
      let headers_rev = ref [] in
      let keys =
        Array.map
          (fun h ->
            match Htbl.find_opt tbl h with
            | Some k -> k
            | None ->
                let k = Htbl.length tbl in
                Htbl.add tbl h k;
                headers_rev := h :: !headers_rev;
                k)
          stream
      in
      (* key -> header, materialized only if provenance is ever asked *)
      let header_of =
        lazy
          (let a = Array.of_list !headers_rev in
           let n = Array.length a in
           fun k -> a.(n - 1 - k))
      in
      let origin_memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let origin_of k =
        match Hashtbl.find_opt origin_memo k with
        | Some o -> o
        | None ->
            let o =
              match Classifier.first_match classifier (Lazy.force header_of k) with
              | Some r -> r.Rule.id
              | None -> -1
            in
            Hashtbl.add origin_memo k o;
            o
      in
      { keys; attr_keys = keys; origin_of }
  | Wildcard_splice | Aggregated ->
      (* Key identity is the spliced piece, so splicing cannot be
         deferred — but it is memoized per distinct header, and piece
         interning goes through the piece's predicate rendering only once
         per distinct header. *)
      let memo : int Htbl.t = Htbl.create 1024 in
      let piece_tbl : (string, int) Hashtbl.t = Hashtbl.create 1024 in
      let origin_of_key : (int, int) Hashtbl.t = Hashtbl.create 1024 in
      (* piece key -> (pred, action): the merge inputs of the Aggregated
         kind; nomatch keys carry no pred and never merge *)
      let info_of_key : (int, Pred.t * Action.t) Hashtbl.t = Hashtbl.create 1024 in
      let intern ?info repr origin =
        match Hashtbl.find_opt piece_tbl repr with
        | Some k -> k
        | None ->
            let k = Hashtbl.length piece_tbl in
            Hashtbl.add piece_tbl repr k;
            Hashtbl.add origin_of_key k origin;
            Option.iter (fun i -> Hashtbl.add info_of_key k i) info;
            k
      in
      let nomatch = ref 0 in
      let attr_keys =
        Array.map
          (fun h ->
            match Htbl.find_opt memo h with
            | Some k -> k
            | None ->
                let k =
                  match Splice.for_header classifier h with
                  | Some piece ->
                      intern
                        ~info:(piece.Splice.pred, piece.Splice.origin.Rule.action)
                        (Pred.to_string piece.Splice.pred)
                        piece.Splice.origin.Rule.id
                  | None ->
                      (* each unmatched header is its own key, as before
                         (exact headers never collide with piece preds) *)
                      incr nomatch;
                      intern (Printf.sprintf "nomatch:%d" !nomatch) (-1)
                in
                Htbl.add memo h k;
                k)
          stream
      in
      let origin_of k = Option.value ~default:(-1) (Hashtbl.find_opt origin_of_key k) in
      if kind = Wildcard_splice then { keys = attr_keys; attr_keys; origin_of }
      else begin
        (* Aggregated: statically buddy-merge the distinct pieces to
           fixpoint — two pieces with the same action whose predicates
           are adjacent become one resident entry, exactly the merges
           the live Aggregate engine performs on installed rules.
           Pieces stay resident or evict together; attribution keeps the
           pre-merge key per position, so origin hit counts are exact. *)
        let n = Hashtbl.length piece_tbl in
        let parent = Array.init n (fun i -> i) in
        let rec find i = if parent.(i) = i then i else find parent.(i) in
        let info = Array.make (max 1 n) None in
        Hashtbl.iter (fun k i -> info.(k) <- Some i) info_of_key;
        let changed = ref true in
        while !changed do
          changed := false;
          for i = 0 to n - 1 do
            if find i = i then
              match info.(i) with
              | None -> ()
              | Some (pi, ai) ->
                  for j = i + 1 to n - 1 do
                    if find j = j && find i = i then
                      match info.(j) with
                      | Some (pj, aj) when Action.equal ai aj -> (
                          match Pred.buddy_union pi pj with
                          | Some u ->
                              parent.(j) <- i;
                              info.(i) <- Some (u, ai);
                              info.(j) <- None;
                              changed := true
                          | None -> ())
                      | Some _ | None -> ()
                  done
          done
        done;
        { keys = Array.map find attr_keys; attr_keys; origin_of }
      end

(* LRU over dense int keys: intrusive doubly-linked list, with the
   key->node index a flat array — interned keys are 0..bound-1, so the
   whole access path is array arithmetic, no hashing. *)
module Lru = struct
  type t = {
    capacity : int;
    position : int array; (* key -> node, -1 if absent *)
    keys : int array; (* node -> key *)
    prev : int array;
    next : int array;
    mutable head : int; (* most recent node, -1 if empty *)
    mutable tail : int; (* least recent node *)
    mutable size : int;
  }

  let create ~key_bound capacity =
    {
      capacity;
      position = Array.make (max 1 key_bound) (-1);
      keys = Array.make capacity (-1);
      prev = Array.make capacity (-1);
      next = Array.make capacity (-1);
      head = -1;
      tail = -1;
      size = 0;
    }

  let unlink t node =
    let p = t.prev.(node) and n = t.next.(node) in
    if p >= 0 then t.next.(p) <- n else t.head <- n;
    if n >= 0 then t.prev.(n) <- p else t.tail <- p

  let push_front t node =
    t.prev.(node) <- -1;
    t.next.(node) <- t.head;
    if t.head >= 0 then t.prev.(t.head) <- node else t.tail <- node;
    t.head <- node

  (* returns true on hit *)
  let access t key =
    let node = Array.unsafe_get t.position key in
    if node >= 0 then begin
      if t.head <> node then begin
        unlink t node;
        push_front t node
      end;
      true
    end
    else begin
      let node =
        if t.size < t.capacity then begin
          let n = t.size in
          t.size <- t.size + 1;
          n
        end
        else begin
          let victim = t.tail in
          t.position.(t.keys.(victim)) <- -1;
          unlink t victim;
          victim
        end
      in
      t.keys.(node) <- key;
      Array.unsafe_set t.position key node;
      push_front t node;
      false
    end
end

(* every key is < key_bound, so distinct counting is a flat mark array *)
let key_bound_of keys = 1 + Array.fold_left max (-1) keys

let distinct_of ~key_bound keys =
  let seen = Bytes.make (max 1 key_bound) '\000' in
  let n = ref 0 in
  Array.iter
    (fun k ->
      if Bytes.get seen k = '\000' then begin
        Bytes.set seen k '\001';
        incr n
      end)
    keys;
  !n

(* Cache hits per origin rule, sorted by rule id; unmatched (-1) excluded.
   Provenance is resolved here, per key with hits — never for the
   (possibly huge) hitless tail of a thrashing stream. *)
let origin_hits_of ~origin_of hit_counts =
  let acc = ref [] in
  Array.iteri
    (fun key hits ->
      if hits > 0 then
        match origin_of key with
        | origin when origin >= 0 -> acc := (origin, hits) :: !acc
        | _ -> ())
    hit_counts;
  !acc
  |> List.fold_left
       (fun tbl (origin, hits) ->
         Hashtbl.replace tbl origin
           (hits + Option.value ~default:0 (Hashtbl.find_opt tbl origin));
         tbl)
       (Hashtbl.create 64)
  |> fun tbl ->
  Hashtbl.fold (fun o h acc -> (o, h) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let run_keys kind ~cache_size { keys; attr_keys; origin_of } =
  if cache_size < 1 then invalid_arg "Cachesim.run: cache_size must be >= 1";
  (* attribution keys bound the cache keys too: a merged key reuses the
     index of its lowest-numbered member *)
  let key_bound = key_bound_of attr_keys in
  let lru = Lru.create ~key_bound cache_size in
  let misses = ref 0 in
  (* hits are counted against the position's attribution key (the
     pre-merge piece), not the resident key, so per-origin counts stay
     exact under aggregation; identical arrays for the plain kinds *)
  let hit_counts = Array.make (max 1 key_bound) 0 in
  (* Traced and untraced loops are split so the untraced hot loop stays
     exactly the PR-8 shape; the model has no switches, so postcards
     carry switch -1 and the key as both packet key and rule id. *)
  if Ptrace.enabled () then
    Array.iteri
      (fun i k ->
        let at = float_of_int i in
        ignore (Ptrace.begin_packet_key ~lo:k ~hi:0);
        if Lru.access lru k then begin
          let a = Array.unsafe_get attr_keys i in
          Array.unsafe_set hit_counts a (1 + Array.unsafe_get hit_counts a);
          Ptrace.emit ~at Ptrace.Cache_hit ~switch:(-1) ~rule:k ~aux:0;
          Ptrace.emit ~at Ptrace.Deliver ~switch:(-1) ~rule:(-1) ~aux:1
        end
        else begin
          incr misses;
          Ptrace.emit ~at Ptrace.Miss ~switch:(-1) ~rule:(-1) ~aux:(-1);
          Ptrace.emit ~at Ptrace.Install ~switch:(-1) ~rule:k ~aux:0;
          Ptrace.emit ~at Ptrace.Deliver ~switch:(-1) ~rule:(-1) ~aux:0
        end)
      keys
  else
    Array.iteri
      (fun i k ->
        if Lru.access lru k then begin
          let a = Array.unsafe_get attr_keys i in
          Array.unsafe_set hit_counts a (1 + Array.unsafe_get hit_counts a)
        end
        else incr misses)
      keys;
  let lookups = Array.length keys in
  Telemetry.add m_lookups lookups;
  Telemetry.add m_misses !misses;
  {
    kind;
    cache_size;
    lookups;
    misses = !misses;
    miss_rate = (if lookups = 0 then 0. else float_of_int !misses /. float_of_int lookups);
    distinct_keys = distinct_of ~key_bound keys;
    origin_hits = origin_hits_of ~origin_of hit_counts;
  }

let run kind classifier ~cache_size stream =
  run_keys kind ~cache_size (keys_for kind classifier stream)

(* Belady's OPT: evict the resident key whose next use lies furthest in
   the future.  Next-use positions are precomputed by a single backward
   pass; the eviction scan is linear in the cache size. *)
let run_opt_keys kind ~cache_size { keys; attr_keys; origin_of } =
  if cache_size < 1 then invalid_arg "Cachesim.run_opt: cache_size must be >= 1";
  let n = Array.length keys in
  let key_bound = key_bound_of attr_keys in
  let next_use = Array.make n max_int in
  let last_seen = Array.make (max 1 key_bound) (-1) in
  for i = n - 1 downto 0 do
    let j = last_seen.(keys.(i)) in
    next_use.(i) <- (if j >= 0 then j else max_int);
    last_seen.(keys.(i)) <- i
  done;
  let resident : (int, int) Hashtbl.t = Hashtbl.create (2 * cache_size) in
  (* key -> its next use position, kept current as the stream advances *)
  let misses = ref 0 in
  let hit_counts = Array.make (max 1 key_bound) 0 in
  Array.iteri
    (fun i key ->
      (match Hashtbl.find_opt resident key with
      | Some _ -> hit_counts.(attr_keys.(i)) <- 1 + hit_counts.(attr_keys.(i))
      | None ->
          incr misses;
          if Hashtbl.length resident >= cache_size then begin
            let victim, _ =
              Hashtbl.fold
                (fun k nu (bk, bnu) -> if nu > bnu then (k, nu) else (bk, bnu))
                resident (-1, min_int)
            in
            Hashtbl.remove resident victim
          end);
      Hashtbl.replace resident key next_use.(i))
    keys;
  Telemetry.add m_lookups n;
  Telemetry.add m_misses !misses;
  {
    kind;
    cache_size;
    lookups = n;
    misses = !misses;
    miss_rate = (if n = 0 then 0. else float_of_int !misses /. float_of_int n);
    distinct_keys = distinct_of ~key_bound keys;
    origin_hits = origin_hits_of ~origin_of hit_counts;
  }

let run_opt kind classifier ~cache_size stream =
  run_opt_keys kind ~cache_size (keys_for kind classifier stream)

let sweep classifier ~cache_sizes stream =
  let wild_keys = keys_for Wildcard_splice classifier stream in
  let micro_keys = keys_for Microflow classifier stream in
  List.map
    (fun size ->
      ( size,
        run_keys Wildcard_splice ~cache_size:size wild_keys,
        run_keys Microflow ~cache_size:size micro_keys ))
    cache_sizes

let sweep_with_opt classifier ~cache_sizes stream =
  let wild_keys = keys_for Wildcard_splice classifier stream in
  let micro_keys = keys_for Microflow classifier stream in
  List.map
    (fun size ->
      ( size,
        run_keys Wildcard_splice ~cache_size:size wild_keys,
        run_opt_keys Wildcard_splice ~cache_size:size wild_keys,
        run_keys Microflow ~cache_size:size micro_keys ))
    cache_sizes
