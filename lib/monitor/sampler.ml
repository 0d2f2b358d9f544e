type point = { at : float; v : float }

type series = { points : point array; dropped : int }

(* One bounded ring per tracked reader. *)
type track = {
  read : unit -> float;
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

let track t read =
  t.tracks <-
    {
      read;
      ring = Array.make t.capacity { at = 0.; v = 0. };
      head = 0;
      count = 0;
      written = 0;
    }
    :: t.tracks

let record tr ~at =
  tr.ring.(tr.head) <- { at; v = tr.read () };
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
    points = Array.init tr.count (fun i -> tr.ring.((start + i) mod cap));
    dropped = tr.written - tr.count;
  }

let series t = List.rev_map series_of_track t.tracks
