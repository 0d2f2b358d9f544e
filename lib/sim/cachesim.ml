type kind = Wildcard_splice | Microflow

let m_lookups = Telemetry.counter "cachesim_lookups"
let m_misses = Telemetry.counter "cachesim_misses"

type result = {
  kind : kind;
  cache_size : int;
  lookups : int;
  misses : int;
  miss_rate : float;
  distinct_keys : int;
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

let keys_for kind classifier stream =
  let memo : int Htbl.t = Htbl.create 1024 in
  let next = ref 0 in
  let fresh () =
    let k = !next in
    incr next;
    k
  in
  (* Wildcard key identity is the spliced piece: splicing is memoized per
     distinct header, through one splice plan of the whole policy, and a
     piece is interned through its predicate rendering once per distinct
     header.  Each unmatched header is its own key. *)
  let key_of =
    match kind with
    | Microflow -> fun _ -> fresh ()
    | Wildcard_splice -> (
        let pieces : (string, int) Hashtbl.t = Hashtbl.create 1024 in
        let plan = Splice.plan (Indexed.of_classifier classifier) in
        fun h ->
          match Splice.for_header plan h with
          | Some piece -> (
              let repr = Pred.to_string piece.Splice.pred in
              match Hashtbl.find_opt pieces repr with
              | Some k -> k
              | None ->
                  let k = fresh () in
                  Hashtbl.add pieces repr k;
                  k)
          | None -> fresh ())
  in
  Array.map
    (fun h ->
      match Htbl.find_opt memo h with
      | Some k -> k
      | None ->
          let k = key_of h in
          Htbl.add memo h k;
          k)
    stream

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

let result kind ~cache_size ~key_bound ~misses keys =
  let lookups = Array.length keys in
  Telemetry.add m_lookups lookups;
  Telemetry.add m_misses misses;
  {
    kind;
    cache_size;
    lookups;
    misses;
    miss_rate = (if lookups = 0 then 0. else float_of_int misses /. float_of_int lookups);
    distinct_keys = distinct_of ~key_bound keys;
  }

let run_keys kind ~cache_size keys =
  if cache_size < 1 then invalid_arg "Cachesim.run: cache_size must be >= 1";
  let key_bound = key_bound_of keys in
  let lru = Lru.create ~key_bound cache_size in
  let misses = ref 0 in
  Array.iter (fun k -> if not (Lru.access lru k) then incr misses) keys;
  result kind ~cache_size ~key_bound ~misses:!misses keys

let run kind classifier ~cache_size stream =
  run_keys kind ~cache_size (keys_for kind classifier stream)

(* Belady's OPT: evict the resident key whose next use lies furthest in
   the future.  Next-use positions are precomputed by a single backward
   pass; the eviction scan is linear in the cache size. *)
let run_opt_keys kind ~cache_size keys =
  if cache_size < 1 then invalid_arg "Cachesim.run_opt: cache_size must be >= 1";
  let n = Array.length keys in
  let key_bound = key_bound_of keys in
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
  Array.iteri
    (fun i key ->
      if not (Hashtbl.mem resident key) then begin
        incr misses;
        if Hashtbl.length resident >= cache_size then begin
          let victim, _ =
            Hashtbl.fold
              (fun k nu (bk, bnu) -> if nu > bnu then (k, nu) else (bk, bnu))
              resident (-1, min_int)
          in
          Hashtbl.remove resident victim
        end
      end;
      Hashtbl.replace resident key next_use.(i))
    keys;
  result kind ~cache_size ~key_bound ~misses:!misses keys

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
