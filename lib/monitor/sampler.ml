type point = { at : float; v : float }

type series = {
  name : string;
  labels : (string * string) list;
  points : point array;
  dropped : int;
}

type source =
  | Counter of { cell : Telemetry.counter; baseline : int }
  | Gauge of Telemetry.gauge

(* One bounded ring per tracked instrument. *)
type track = {
  name : string;
  labels : (string * string) list;
  source : source;
  ring : point array;
  mutable head : int;  (** next write position *)
  mutable count : int;  (** live points, <= capacity *)
  mutable written : int;  (** total points ever written *)
}

type t = {
  ivl : float;
  capacity : int;
  mutable tracks : track list;  (** reverse tracking order *)
  mutable next_boundary : float;
}

let create ?(capacity = 1024) ~interval () =
  if interval <= 0. then invalid_arg "Sampler.create: interval <= 0";
  if capacity < 1 then invalid_arg "Sampler.create: capacity < 1";
  { ivl = interval; capacity; tracks = []; next_boundary = interval }


let add_track t ~name ~labels source =
  t.tracks <-
    {
      name;
      labels;
      source;
      ring = Array.make t.capacity { at = 0.; v = 0. };
      head = 0;
      count = 0;
      written = 0;
    }
    :: t.tracks

let track_counter t ?(labels = []) name =
  let cell = Telemetry.counter ~labels name in
  add_track t ~name ~labels (Counter { cell; baseline = Telemetry.value cell })

let track_gauge t ?(labels = []) name =
  add_track t ~name ~labels (Gauge (Telemetry.gauge ~labels name))

let read = function
  | Counter { cell; baseline } -> float_of_int (Telemetry.value cell - baseline)
  | Gauge g -> Telemetry.gauge_value g

let record tr ~at =
  tr.ring.(tr.head) <- { at; v = read tr.source };
  tr.head <- (tr.head + 1) mod Array.length tr.ring;
  if tr.count < Array.length tr.ring then tr.count <- tr.count + 1;
  tr.written <- tr.written + 1

let sample_all t ~at = List.iter (fun tr -> record tr ~at) t.tracks

let tick t ~now =
  while t.next_boundary <= now do
    sample_all t ~at:t.next_boundary;
    t.next_boundary <- t.next_boundary +. t.ivl
  done

let finish t ~now =
  tick t ~now;
  let last_boundary = t.next_boundary -. t.ivl in
  if now > last_boundary then sample_all t ~at:now

let series_of_track tr =
  let cap = Array.length tr.ring in
  let start = (tr.head - tr.count + cap) mod cap in
  {
    name = tr.name;
    labels = tr.labels;
    points = Array.init tr.count (fun i -> tr.ring.((start + i) mod cap));
    dropped = tr.written - tr.count;
  }

let series t = List.rev_map series_of_track t.tracks
