type link = {
  drop : float;
  duplicate : float;
  corrupt : float;
  jitter : float;
  reorder : float;
}

let check_prob name p =
  if p < 0. || p > 1. then invalid_arg (Printf.sprintf "Fault: %s not in [0,1]" name)

let make_link ~drop ~duplicate ~corrupt ~jitter ~reorder =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "corrupt" corrupt;
  check_prob "reorder" reorder;
  if jitter < 0. then invalid_arg "Fault: negative jitter";
  { drop; duplicate; corrupt; jitter; reorder }

let ideal_link = { drop = 0.; duplicate = 0.; corrupt = 0.; jitter = 0.; reorder = 0. }

let lossy_link ?duplicate ?corrupt ?jitter ?reorder drop =
  let quarter = drop /. 4. in
  make_link ~drop
    ~duplicate:(Option.value ~default:quarter duplicate)
    ~corrupt:(Option.value ~default:quarter corrupt)
    ~jitter:(Option.value ~default:0. jitter)
    ~reorder:(Option.value ~default:quarter reorder)

type event =
  | Crash of { switch : int; at : float }
  | Restart of { switch : int; at : float }
  | Link_down of { switch : int; at : float }
  | Link_up of { switch : int; at : float }
  | Controller_crash of { controller : int; at : float }
  | Controller_restart of { controller : int; at : float }

let event_time = function
  | Crash { at; _ } | Restart { at; _ } | Link_down { at; _ } | Link_up { at; _ }
  | Controller_crash { at; _ } | Controller_restart { at; _ } ->
      at

type plan = { seed : int; link : link; events : event list; controllers : int }

let plan ?(seed = 42) ?(link = ideal_link) ?(events = []) ?(controllers = 1) () =
  if controllers < 1 then invalid_arg "Fault.plan: controllers < 1";
  List.iter
    (function
      | Controller_crash { controller = c; _ } | Controller_restart { controller = c; _ }
        when c < 0 || c >= controllers ->
          invalid_arg (Printf.sprintf "Fault.plan: controller %d of %d" c controllers)
      | _ -> ())
    events;
  {
    seed;
    link;
    events =
      List.stable_sort (fun a b -> Float.compare (event_time a) (event_time b)) events;
    controllers;
  }

type injector = { link : link; rng : Prng.t }

let injector (plan : plan) ~channel =
  (* a stream that depends on (seed, channel) only: channel ids far apart
     in Prng's splitmix state space so adjacent channels do not correlate *)
  { link = plan.link; rng = Prng.create ((plan.seed * 0x3779) lxor (channel * 0x9e37)) }

type delivery = { extra_delay : float; held_back : bool; corrupt : int option }
type fate = Lost | Deliver of delivery list

let fate t =
  (* fixed draw count per frame keeps the stream aligned across replays
     even when the link config makes some draws irrelevant *)
  let u_drop = Prng.float t.rng in
  let u_dup = Prng.float t.rng in
  let u_cor = Prng.float t.rng in
  let u_reord = Prng.float t.rng in
  let u_jit1 = Prng.float t.rng in
  let u_jit2 = Prng.float t.rng in
  let token = 1 + Prng.int t.rng 0x3fffffff in
  if u_drop < t.link.drop then Lost
  else
    let delivery u_jit =
      {
        extra_delay = u_jit *. t.link.jitter;
        held_back = u_reord < t.link.reorder;
        corrupt = (if u_cor < t.link.corrupt then Some token else None);
      }
    in
    let first = delivery u_jit1 in
    if u_dup < t.link.duplicate then
      (* the duplicate travels clean: corrupting both copies of a frame
         would make duplication indistinguishable from loss *)
      Deliver [ first; { (delivery u_jit2) with corrupt = None } ]
    else Deliver [ first ]
