type mode = Drop_tail | Credit

type config = {
  buffer_capacity : int option;
  ecn_threshold : int option;
  packet_bits : int;
  model_bandwidth : bool;
  mode : mode;
  credit_pool : int;
  credit_low_water : int;
}

let default =
  {
    buffer_capacity = None;
    ecn_threshold = None;
    packet_bits = 12_000 (* a 1500-byte MTU frame *);
    model_bandwidth = false;
    mode = Drop_tail;
    credit_pool = 64;
    credit_low_water = 0;
  }

let enabled c =
  c.model_bandwidth || c.buffer_capacity <> None || c.ecn_threshold <> None
  || c.mode = Credit

let validate c =
  if c.packet_bits <= 0 then invalid_arg "Congestion: nonpositive packet_bits";
  (match c.buffer_capacity with
  | Some b when b < 0 -> invalid_arg "Congestion: negative buffer_capacity"
  | _ -> ());
  (match c.ecn_threshold with
  | Some e when e < 0 -> invalid_arg "Congestion: negative ecn_threshold"
  | _ -> ());
  if c.mode = Credit then begin
    if c.credit_pool < 1 then invalid_arg "Congestion: credit_pool must be >= 1";
    if c.credit_low_water < 0 then invalid_arg "Congestion: negative credit_low_water";
    if c.credit_low_water >= c.credit_pool then
      invalid_arg "Congestion: credit_low_water must be below credit_pool"
  end

(* Registry mirrors, shared by every state: how much the congestion model
   shed or marked process-wide (the per-state [stats] record carries the
   per-run split). *)
let m_transits = Telemetry.counter "congestion_port_transits"
let m_drops = Telemetry.counter "congestion_queue_drops"
let m_marks = Telemetry.counter "congestion_ecn_marks"
let g_peak = Telemetry.gauge "congestion_queue_peak"

(* One directed port: when its transmitter frees, and the serialization
   time its link implies (remembered so [depth] can convert the booking
   back into packets). *)
type port = { mutable busy_until : float; mutable ser : float }

type t = {
  cfg : config;
  ports : port Int_table.t;  (* keyed by [port_key] *)
  mutable transits : int;
  mutable drops : int;
  mutable marks : int;
  mutable peak_depth : int;
}

type stats = { transits : int; drops : int; marks : int; peak_depth : int }

let create cfg =
  validate cfg;
  { cfg; ports = Int_table.create 32; transits = 0; drops = 0; marks = 0; peak_depth = 0 }

(* Both ends of a directed port in one int. *)
let port_key ~from ~to_ = (from lsl 32) lor to_

let port t ~from ~to_ =
  let key = port_key ~from ~to_ in
  match Int_table.find t.ports key with
  | p -> p
  | exception Not_found ->
      let p = { busy_until = 0.; ser = 0. } in
      Int_table.add t.ports key p;
      p

let other_end (l : Topology.link) from =
  if l.Topology.src = from then l.Topology.dst else l.Topology.src

(* Packets waiting in the buffer at an arrival seeing [wait] seconds of
   booked transmitter time: the head packet is on the wire (its residual
   counts toward [wait] but it holds no buffer slot), every further
   whole-or-partial serialization time is one queued packet — the same
   convention as [Server]: capacity counts the backlog, not the job in
   service. *)
let[@inline] queued ~wait ~ser =
  if ser <= 0. || wait <= 0. then 0
  else max 0 (int_of_float (Float.ceil ((wait /. ser) -. 1e-9)) - 1)

let depth t ~now ~from ~to_ =
  match Int_table.find t.ports (port_key ~from ~to_) with
  | p -> queued ~wait:(p.busy_until -. now) ~ser:p.ser
  | exception Not_found -> 0

let ser_of t l =
  if t.cfg.model_bandwidth then Topology.serialization_delay l ~bits:t.cfg.packet_bits else 0.

let[@inline] ecn_marked t ~wait ~depth =
  match t.cfg.ecn_threshold with Some e -> wait > 0. && depth >= e | None -> false

(* Offer one packet to port [p] at [now]: the queueing wait plus
   serialization it pays, or [-1.] when the full buffer sheds it.
   Inlined into both walks, so no hop boxes its delay or builds a
   variant. *)
let[@inline] book (t : t) p ~now ~from ~ser =
  p.ser <- ser;
  t.transits <- t.transits + 1;
  Telemetry.incr m_transits;
  let wait = Float.max 0. (p.busy_until -. now) in
  let depth = queued ~wait ~ser in
  if depth > t.peak_depth then begin
    t.peak_depth <- depth;
    Telemetry.set_max g_peak (float_of_int depth)
  end;
  match t.cfg.buffer_capacity with
  | Some cap when wait > 0. && depth >= cap ->
      t.drops <- t.drops + 1;
      Telemetry.incr m_drops;
      Ptrace.emit ~at:now Ptrace.Queue_drop ~switch:from ~rule:(-1) ~aux:depth;
      -1.
  | _ ->
      if ecn_marked t ~wait ~depth then begin
        t.marks <- t.marks + 1;
        Telemetry.incr m_marks;
        Ptrace.emit ~at:now Ptrace.Ecn ~switch:from ~rule:(-1) ~aux:depth
      end;
      p.busy_until <- Float.max now p.busy_until +. ser;
      wait +. ser

let transit t ~now ~from (l : Topology.link) =
  let p = port t ~from ~to_:(other_end l from) in
  let ser = ser_of t l in
  let wait = Float.max 0. (p.busy_until -. now) in
  let marked = ecn_marked t ~wait ~depth:(queued ~wait ~ser) in
  let delay = book t p ~now ~from ~ser in
  if delay < 0. then `Drop else `Forward (delay, marked)

(* Each hop is offered when the packet reaches it: after the queueing
   and propagation of every hop before. *)
let transit_path t topo ~now path =
  let extra = ref 0. and elapsed = ref 0. and shed = ref false in
  let hops = ref path and walking = ref true in
  while !walking do
    match !hops with
    | a :: (b :: _ as rest) -> (
        match Topology.link_between topo a b with
        | None -> invalid_arg "Congestion.transit_path: non-adjacent hop"
        | Some l ->
            let p = port t ~from:a ~to_:b in
            let delay = book t p ~now:(now +. !elapsed) ~from:a ~ser:(ser_of t l) in
            if delay < 0. then begin
              shed := true;
              walking := false
            end
            else begin
              extra := !extra +. delay;
              elapsed := !elapsed +. delay +. l.Topology.latency;
              hops := rest
            end)
    | _ -> walking := false
  done;
  if !shed then `Queue_full else `Ok !extra

let stats (t : t) =
  { transits = t.transits; drops = t.drops; marks = t.marks; peak_depth = t.peak_depth }

let reset t =
  Int_table.reset t.ports;
  t.transits <- 0;
  t.drops <- 0;
  t.marks <- 0;
  t.peak_depth <- 0
