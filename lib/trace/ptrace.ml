(* Postcard rings.  One ring per shard, one writer per ring: the
   simulator binds a shard's ring to the domain running it, so emission
   is plain (unsynchronised) stores into that ring's scalar lanes.  The
   only shared state is the ring registry itself (mutated under a lock
   at bind/enable time, never per postcard) and the global on/off flag
   (an atomic read per emission site — the entire cost when tracing is
   off). *)

type kind =
  | Cache_hit
  | Authority_hit
  | Miss
  | Transit
  | Authority_serve
  | Install
  | Replace
  | Invalidate
  | Controller
  | Backpressure
  | Ecn
  | Queue_drop
  | Drop
  | Deliver

let kind_code = function
  | Cache_hit -> 0
  | Authority_hit -> 1
  | Miss -> 2
  | Transit -> 3
  | Authority_serve -> 4
  | Install -> 5
  | Replace -> 6
  | Invalidate -> 7
  | Controller -> 8
  | Backpressure -> 9
  | Ecn -> 10
  | Queue_drop -> 11
  | Drop -> 12
  | Deliver -> 13

let kind_of_code = function
  | 0 -> Cache_hit
  | 1 -> Authority_hit
  | 2 -> Miss
  | 3 -> Transit
  | 4 -> Authority_serve
  | 5 -> Install
  | 6 -> Replace
  | 7 -> Invalidate
  | 8 -> Controller
  | 9 -> Backpressure
  | 10 -> Ecn
  | 11 -> Queue_drop
  | 12 -> Drop
  | 13 -> Deliver
  | c -> invalid_arg (Printf.sprintf "Ptrace.kind_of_code: %d" c)

let kind_name = function
  | Cache_hit -> "cache_hit"
  | Authority_hit -> "authority_hit"
  | Miss -> "miss"
  | Transit -> "transit"
  | Authority_serve -> "authority_serve"
  | Install -> "install"
  | Replace -> "replace"
  | Invalidate -> "invalidate"
  | Controller -> "controller"
  | Backpressure -> "backpressure"
  | Ecn -> "ecn"
  | Queue_drop -> "queue_drop"
  | Drop -> "drop"
  | Deliver -> "deliver"

let drop_unmatched = 0
let drop_misconfigured = 1
let drop_unreachable = 3
let drop_no_authority = 4
let drop_queue_full = 5
let drop_rejected = 6
let drop_outage = 7

let drop_reason_name = function
  | 0 -> "unmatched"
  | 1 -> "misconfigured"
  | 2 -> "ttl"
  | 3 -> "unreachable"
  | 4 -> "no_authority"
  | 5 -> "queue_full"
  | 6 -> "rejected"
  | 7 -> "outage"
  | r -> Printf.sprintf "unknown(%d)" r

let replace_evicted = 0
let replace_displaced = 1
let replace_idle = 2
let replace_hard = 3
let invalidate_migration = 0
let invalidate_delete = 1
let invalidate_cover_orphan = 2

(* (origin, pid) in one lane: 21 bits each, +1-shifted so the unknown
   (-1) components pack to zero and (-1, -1) packs to aux = 0. *)
let prov_mask = (1 lsl 21) - 1
let pack_provenance ~origin ~pid = ((origin + 1) land prov_mask) lsl 21 lor ((pid + 1) land prov_mask)
let provenance_origin aux = ((aux lsr 21) land prov_mask) - 1
let provenance_pid aux = (aux land prov_mask) - 1

(* Registry mirrors, folded in at unbind/disable — never per postcard. *)
let m_postcards = Telemetry.counter "ptrace_postcards"
let m_overwritten = Telemetry.counter "ptrace_overwritten"

type ring = {
  shard : int;
  cap : int;
  r_at : float array;
  r_kind : Bytes.t;
  r_switch : int array;
  r_rule : int array;
  r_aux : int array;
  r_pkt : int array;
  r_lo : int array;
  r_hi : int array;
  mutable total : int;  (* postcards emitted; next slot = total mod cap *)
  mutable mirrored : int;  (* totals already folded into the registry *)
  mutable ov_mirrored : int;
  mutable pkts : int;  (* packet ids allocated *)
  mutable cur_pkt : int;  (* emission context *)
  mutable cur_lo : int;
  mutable cur_hi : int;
}

let on = Atomic.make false
let lock = Mutex.create ()
let rings : ring list ref = ref []
let capacity = ref 65536

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let make_ring shard cap =
  {
    shard;
    cap;
    r_at = Array.make cap 0.;
    r_kind = Bytes.make cap '\000';
    r_switch = Array.make cap 0;
    r_rule = Array.make cap 0;
    r_aux = Array.make cap 0;
    r_pkt = Array.make cap 0;
    r_lo = Array.make cap 0;
    r_hi = Array.make cap 0;
    total = 0;
    mirrored = 0;
    ov_mirrored = 0;
    pkts = 0;
    cur_pkt = -1;
    cur_lo = 0;
    cur_hi = 0;
  }

let ring_for shard =
  locked @@ fun () ->
  match List.find_opt (fun r -> r.shard = shard) !rings with
  | Some r -> r
  | None ->
      let r = make_ring shard !capacity in
      rings := r :: !rings;
      r

let dls : ring option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Unbound emission lands in ring 0 — the single-domain default; sharded
   runs bind explicitly around each shard.  [enable] clears the calling
   domain's binding, so a stale ring from a previous enable can never be
   written through the main domain's cached binding. *)
let cur_ring () =
  match Domain.DLS.get dls with
  | Some r -> r
  | None ->
      let r = ring_for 0 in
      Domain.DLS.set dls (Some r);
      r

let enable ?capacity:(cap = 65536) () =
  if cap < 1 then invalid_arg "Ptrace.enable: capacity < 1";
  locked (fun () ->
      capacity := cap;
      rings := []);
  Domain.DLS.set dls None;
  Atomic.set on true

let mirror r =
  Telemetry.add m_postcards (r.total - r.mirrored);
  r.mirrored <- r.total;
  let ov = max 0 (r.total - r.cap) in
  Telemetry.add m_overwritten (ov - r.ov_mirrored);
  r.ov_mirrored <- ov

let disable () =
  Atomic.set on false;
  locked @@ fun () -> List.iter mirror !rings

let bind ~shard =
  if Atomic.get on then Domain.DLS.set dls (Some (ring_for shard))

let begin_packet_key ~lo ~hi =
  if not (Atomic.get on) then -1
  else begin
    let r = cur_ring () in
    let id = r.pkts in
    r.pkts <- id + 1;
    r.cur_pkt <- id;
    r.cur_lo <- lo;
    r.cur_hi <- hi;
    id
  end

let begin_packet h =
  if not (Atomic.get on) then -1
  else begin_packet_key ~lo:(Header.key_lo h) ~hi:(Header.key_hi h)

let resume_packet ~pkt h =
  if Atomic.get on then begin
    let r = cur_ring () in
    r.cur_pkt <- pkt;
    r.cur_lo <- Header.key_lo h;
    r.cur_hi <- Header.key_hi h
  end

let push r ~at kind ~switch ~rule ~aux ~pkt ~lo ~hi =
  let i = r.total mod r.cap in
  Array.unsafe_set r.r_at i at;
  Bytes.unsafe_set r.r_kind i (Char.unsafe_chr (kind_code kind));
  Array.unsafe_set r.r_switch i switch;
  Array.unsafe_set r.r_rule i rule;
  Array.unsafe_set r.r_aux i aux;
  Array.unsafe_set r.r_pkt i pkt;
  Array.unsafe_set r.r_lo i lo;
  Array.unsafe_set r.r_hi i hi;
  r.total <- r.total + 1

let emit ~at kind ~switch ~rule ~aux =
  if Atomic.get on then begin
    let r = cur_ring () in
    push r ~at kind ~switch ~rule ~aux ~pkt:r.cur_pkt ~lo:r.cur_lo ~hi:r.cur_hi
  end

let emit_control ~at kind ~switch ~rule ~aux =
  if Atomic.get on then
    push (cur_ring ()) ~at kind ~switch ~rule ~aux ~pkt:(-1) ~lo:0 ~hi:0

type postcard = {
  at : float;
  shard : int;
  pkt : int;
  kind : kind;
  switch : int;
  rule : int;
  aux : int;
  key_lo : int;
  key_hi : int;
}

let sorted_rings () =
  locked (fun () ->
      List.sort (fun (a : ring) (b : ring) -> Int.compare a.shard b.shard) !rings)

let ring_postcards r =
  let n = min r.total r.cap in
  let first = if r.total <= r.cap then 0 else r.total mod r.cap in
  Array.init n (fun i ->
      let j = (first + i) mod r.cap in
      {
        at = r.r_at.(j);
        shard = r.shard;
        pkt = r.r_pkt.(j);
        kind = kind_of_code (Char.code (Bytes.get r.r_kind j));
        switch = r.r_switch.(j);
        rule = r.r_rule.(j);
        aux = r.r_aux.(j);
        key_lo = r.r_lo.(j);
        key_hi = r.r_hi.(j);
      })

let postcards () = Array.concat (List.map ring_postcards (sorted_rings ()))
let emitted () = List.fold_left (fun acc r -> acc + r.total) 0 (sorted_rings ())

let overwritten () =
  List.fold_left (fun acc r -> acc + max 0 (r.total - r.cap)) 0 (sorted_rings ())

let shard_wrapped shard =
  match
    locked (fun () -> List.find_opt (fun (r : ring) -> r.shard = shard) !rings)
  with
  | Some r -> r.total > r.cap
  | None -> false
