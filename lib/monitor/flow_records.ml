type reason = Idle | Active | Evicted | Flush

let reason_name = function
  | Idle -> "idle"
  | Active -> "active"
  | Evicted -> "evicted"
  | Flush -> "flush"

type record = {
  seq : int;
  ingress : int;
  header : Header.t;
  packets : int;
  bytes : int;
  first_seen : float;
  last_seen : float;
  reason : reason;
}

type config = {
  sample_rate : int;
  active_timeout : float;
  idle_timeout : float;
  max_entries : int;
}

let default_config =
  { sample_rate = 1; active_timeout = 60.; idle_timeout = 15.; max_entries = 4096 }

module Key = struct
  type t = int * Header.t

  let equal (i1, h1) (i2, h2) = i1 = i2 && Header.equal h1 h2
  let hash (i, h) = (i * 0x9e3779b1) lxor Header.hash h
end

module Tbl = Hashtbl.Make (Key)

(* Creation order ([born]) breaks every tie — eviction choice and batch
   export order — so nothing depends on hash-table iteration order. *)
type entry = {
  born : int;
  mutable packets : int;
  mutable bytes : int;
  mutable first_seen : float;
  mutable last_seen : float;
}

type t = {
  cfg : config;
  cache : entry Tbl.t;
  mutable observed : int;
  mutable sampled : int;
  mutable next_born : int;
  mutable next_seq : int;
  mutable rev_exports : record list;
}

(* Registry mirrors, shared across instances (the registry is process-wide). *)
let m_observed = Telemetry.counter "flowrec_observed_packets"
let m_sampled = Telemetry.counter "flowrec_sampled_packets"
let m_exported = Telemetry.counter "flowrec_exported_records"
let g_active = Telemetry.gauge "flowrec_active_entries"

let create ?(config = default_config) () =
  if config.sample_rate < 1 then invalid_arg "Flow_records.create: sample_rate < 1";
  if config.max_entries < 1 then invalid_arg "Flow_records.create: max_entries < 1";
  {
    cfg = config;
    cache = Tbl.create 256;
    observed = 0;
    sampled = 0;
    next_born = 0;
    next_seq = 0;
    rev_exports = [];
  }

let config t = t.cfg
let observed_packets t = t.observed
let sampled_packets t = t.sampled

(* Packets in the simulator have no sizes; derive one deterministically
   from the header so byte counts exercise the schema without a second
   source of randomness. *)
let packet_bytes h = 64 + (Header.hash h land 0x5ff)

let sync_active t =
  Telemetry.set g_active (float_of_int (Tbl.length t.cache))

let export t ~key:(ingress, header) ~(entry : entry) ~reason =
  Tbl.remove t.cache (ingress, header);
  let r =
    {
      seq = t.next_seq;
      ingress;
      header;
      packets = entry.packets;
      bytes = entry.bytes;
      first_seen = entry.first_seen;
      last_seen = entry.last_seen;
      reason;
    }
  in
  t.next_seq <- t.next_seq + 1;
  Telemetry.incr m_exported;
  t.rev_exports <- r :: t.rev_exports

(* Every multi-entry export path sorts by creation order first. *)
let export_batch t victims =
  List.sort (fun ((_, e1), _) ((_, e2), _) -> Int.compare e1.born e2.born) victims
  |> List.iter (fun ((key, entry), reason) -> export t ~key ~entry ~reason)

let expired t ~now (e : entry) =
  if now -. e.last_seen >= t.cfg.idle_timeout then Some Idle
  else if now -. e.first_seen >= t.cfg.active_timeout then Some Active
  else None

let sweep t ~now =
  let victims =
    Tbl.fold
      (fun key entry acc ->
        match expired t ~now entry with
        | Some reason -> (((key, entry), reason)) :: acc
        | None -> acc)
      t.cache []
  in
  export_batch t victims;
  sync_active t

let flush t ~now =
  sweep t ~now;
  let rest = Tbl.fold (fun key entry acc -> ((key, entry), Flush) :: acc) t.cache [] in
  export_batch t rest;
  sync_active t

let evict_one t =
  (* longest idle loses; creation order breaks exact-time ties *)
  let victim =
    Tbl.fold
      (fun key entry acc ->
        match acc with
        | None -> Some (key, entry)
        | Some (_, best) ->
            if
              entry.last_seen < best.last_seen
              || (entry.last_seen = best.last_seen && entry.born < best.born)
            then Some (key, entry)
            else acc)
      t.cache None
  in
  match victim with
  | None -> ()
  | Some (key, entry) -> export t ~key ~entry ~reason:Evicted

let observe t ~now ~ingress header =
  t.observed <- t.observed + 1;
  Telemetry.incr m_observed;
  if t.observed mod t.cfg.sample_rate = 0 then begin
    t.sampled <- t.sampled + 1;
    Telemetry.incr m_sampled;
    let key = (ingress, header) in
    let bytes = packet_bytes header in
    (* the touched entry's own timeouts are checked here, so a flow that
       outlives its active window splits into periodic records even if
       nobody sweeps *)
    (match Tbl.find_opt t.cache key with
    | Some e -> (
        match expired t ~now e with
        | Some reason -> export t ~key ~entry:e ~reason
        | None -> ())
    | None -> ());
    match Tbl.find_opt t.cache key with
    | Some e ->
        e.packets <- e.packets + 1;
        e.bytes <- e.bytes + bytes;
        e.last_seen <- now
    | None ->
        if Tbl.length t.cache >= t.cfg.max_entries then evict_one t;
        Tbl.add t.cache key
          { born = t.next_born; packets = 1; bytes; first_seen = now; last_seen = now };
        t.next_born <- t.next_born + 1;
        sync_active t
  end

let exports t = List.rev t.rev_exports

(* {2 Rendering} *)

let fl = Printf.sprintf "%.9g"

let header_json h =
  let schema = Header.schema h in
  let b = Buffer.create 64 in
  Buffer.add_char b '{';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%Ld" (Schema.field_name schema i) v))
    (Header.values h);
  Buffer.add_char b '}';
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"difane-flows-v1\"";
  Buffer.add_string b (Printf.sprintf ",\"sample_rate\":%d" t.cfg.sample_rate);
  Buffer.add_string b (Printf.sprintf ",\"observed_packets\":%d" t.observed);
  Buffer.add_string b (Printf.sprintf ",\"sampled_packets\":%d" t.sampled);
  Buffer.add_string b ",\"records\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"seq\":%d,\"ingress\":%d,\"key\":%s,\"packets\":%d,\"bytes\":%d,\
            \"first_seen\":%s,\"last_seen\":%s,\"reason\":\"%s\"}"
           r.seq r.ingress (header_json r.header) r.packets r.bytes
           (fl r.first_seen) (fl r.last_seen) (reason_name r.reason)))
    (exports t);
  Buffer.add_string b "]}";
  Buffer.contents b
