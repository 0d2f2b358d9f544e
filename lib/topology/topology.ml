type link = { src : int; dst : int; latency : float; bandwidth : float }

type t = {
  n : int;
  links : link list;
  adj : (int * link) list array; (* neighbour, connecting link *)
  between : link option array;
      (* between.(a * n + b): the link joining a and b (at most one: create
         rejects duplicates); one [Some] per link, shared by both
         directions *)
  dist : float array; (* dist.(src * n + dst); infinity when unreachable *)
  prev : int array; (* prev.(src * n + dst): dst's predecessor on src's tree, or -1 *)
  routes : int list option array;
      (* routes.(src * n + dst): [shortest_path]'s answer, built on the
         pair's first query; [unrouted] until then *)
}

(* The physically unique mark of a route not built yet.  Every domain
   that fills a slot computes the same immutable route, so domains racing
   to fill one store equal values, and a reader sees either the mark or a
   whole route. *)
let unrouted : int list option = Some []

(* Dijkstra over latency with a simple leftist-ish pairing via sorted
   list insertion; fine for the network sizes simulated here.  Pop order
   among equal priorities decides ties, so every path depends on it. *)
module Pq = struct
  let create () = ref []

  let push q prio v =
    let rec go = function
      | [] -> [ (prio, v) ]
      | (p, x) :: rest -> if prio <= p then (prio, v) :: (p, x) :: rest else (p, x) :: go rest
    in
    q := go !q

  let pop q =
    match !q with
    | [] -> None
    | (p, v) :: rest ->
        q := rest;
        Some (p, v)
end

let dijkstra n adj src =
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  dist.(src) <- 0.;
  let q = Pq.create () in
  Pq.push q 0. src;
  let rec loop () =
    match Pq.pop q with
    | None -> ()
    | Some (d, u) ->
        if d <= dist.(u) then
          List.iter
            (fun (v, l) ->
              let nd = d +. l.latency in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                prev.(v) <- u;
                Pq.push q nd v
              end)
            adj.(u);
        loop ()
  in
  loop ();
  (dist, prev)

let create ~nodes links =
  if nodes < 1 then invalid_arg "Topology.create: need at least one node";
  let adj = Array.make nodes [] in
  let between = Array.make (nodes * nodes) None in
  List.iter
    (fun l ->
      if l.src < 0 || l.src >= nodes || l.dst < 0 || l.dst >= nodes then
        invalid_arg "Topology.create: endpoint out of range";
      if l.src = l.dst then invalid_arg "Topology.create: self loop";
      if not (l.bandwidth > 0.) then
        invalid_arg "Topology.create: nonpositive bandwidth";
      if Option.is_some between.((l.src * nodes) + l.dst) then
        invalid_arg "Topology.create: duplicate link";
      adj.(l.src) <- (l.dst, l) :: adj.(l.src);
      adj.(l.dst) <- (l.src, l) :: adj.(l.dst);
      let sl = Some l in
      between.((l.src * nodes) + l.dst) <- sl;
      between.((l.dst * nodes) + l.src) <- sl)
    links;
  (* The all-pairs table: one single-source run per node, row-major. *)
  let dist = Array.make (nodes * nodes) infinity in
  let prev = Array.make (nodes * nodes) (-1) in
  for src = 0 to nodes - 1 do
    let d, p = dijkstra nodes adj src in
    Array.blit d 0 dist (src * nodes) nodes;
    Array.blit p 0 prev (src * nodes) nodes
  done;
  { n = nodes; links; adj; between; dist; prev; routes = Array.make (nodes * nodes) unrouted }

let nodes t = t.n
let links t = t.links
let degree t v = List.length t.adj.(v)
let check_node t v = if v < 0 || v >= t.n then invalid_arg "Topology: node out of range"

let link_between t a b =
  check_node t a;
  if b < 0 || b >= t.n then None else t.between.((a * t.n) + b)

let all_distances t src =
  check_node t src;
  Array.sub t.dist (src * t.n) t.n

let route t src dst =
  let row = src * t.n in
  if src = dst then Some [ src ]
  else if t.dist.(row + dst) = infinity then None
  else
    let rec build acc v = if v = src then src :: acc else build (v :: acc) t.prev.(row + v) in
    Some (build [] dst)

let shortest_path t src dst =
  check_node t src;
  check_node t dst;
  let i = (src * t.n) + dst in
  let r = t.routes.(i) in
  if r != unrouted then r
  else begin
    let r = route t src dst in
    t.routes.(i) <- r;
    r
  end

let serialization_delay (l : link) ~bits =
  if bits < 0 then invalid_arg "Topology.serialization_delay: negative bits";
  float_of_int bits /. l.bandwidth

let path_latency t path =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | a :: (b :: _ as rest) -> (
        match link_between t a b with
        | None -> invalid_arg "Topology.path_latency: non-adjacent nodes"
        | Some l -> go (acc +. l.latency) rest)
  in
  go 0. path

let distance t src dst =
  check_node t src;
  check_node t dst;
  let d = t.dist.((src * t.n) + dst) in
  if d = infinity then None else Some d

let stretch t ~src ~via ~dst =
  if src = dst then 1.0
  else
    match (distance t src via, distance t via dst, distance t src dst) with
    | Some a, Some b, Some c when c > 0. -> (a +. b) /. c
    | Some _, Some _, Some _ -> 1.0
    | _ -> infinity

(* ---- generators ---- *)

let default_bw = 1e10

let mk_link ?(latency = 50e-6) src dst = { src; dst; latency; bandwidth = default_bw }

let line n ?(latency = 50e-6) () =
  create ~nodes:n (List.init (n - 1) (fun i -> mk_link ~latency i (i + 1)))

let star n ?(latency = 50e-6) () =
  create ~nodes:n (List.init (n - 1) (fun i -> mk_link ~latency 0 (i + 1)))

let full_mesh n ?(latency = 50e-6) () =
  let links = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      links := mk_link ~latency i j :: !links
    done
  done;
  create ~nodes:n !links

let waxman ~rand ~nodes:n ?(alpha = 0.4) ?(beta = 0.4) ?(latency_scale = 1e-3) () =
  if n < 2 then invalid_arg "Topology.waxman: need >= 2 nodes";
  let xs = Array.init n (fun _ -> (rand (), rand ())) in
  let dist i j =
    let xi, yi = xs.(i) and xj, yj = xs.(j) in
    Float.hypot (xi -. xj) (yi -. yj)
  in
  let links = ref [] in
  let connected = Hashtbl.create 16 in
  let add i j =
    let key = (min i j, max i j) in
    if not (Hashtbl.mem connected key) then begin
      Hashtbl.add connected key ();
      links := mk_link ~latency:(Float.max 10e-6 (dist i j *. latency_scale)) i j :: !links
    end
  in
  (* Spanning backbone: connect each node to its nearest already-placed
     node, guaranteeing connectivity. *)
  for i = 1 to n - 1 do
    let best = ref 0 in
    for j = 1 to i - 1 do
      if dist i j < dist i !best then best := j
    done;
    add i !best
  done;
  let l = Float.sqrt 2. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = alpha *. Float.exp (-.dist i j /. (beta *. l)) in
      if rand () < p then add i j
    done
  done;
  create ~nodes:n !links

let campus ~rand ~edge_switches () =
  if edge_switches < 1 then invalid_arg "Topology.campus: need >= 1 edge switch";
  let dists = (edge_switches + 3) / 4 in
  let core0 = 0 and core1 = 1 in
  let dist_node i = 2 + i in
  let edge_node i = 2 + dists + i in
  let n = 2 + dists + edge_switches in
  let links = ref [ mk_link ~latency:20e-6 core0 core1 ] in
  for d = 0 to dists - 1 do
    links := mk_link ~latency:50e-6 (dist_node d) core0 :: !links;
    links := mk_link ~latency:50e-6 (dist_node d) core1 :: !links
  done;
  for e = 0 to edge_switches - 1 do
    let d = e / 4 in
    links := mk_link ~latency:100e-6 (edge_node e) (dist_node d) :: !links;
    (* dual-home to a second distribution switch when one exists *)
    if dists > 1 && rand () < 0.7 then begin
      let d2 = (d + 1) mod dists in
      links := mk_link ~latency:100e-6 (edge_node e) (dist_node d2) :: !links
    end
  done;
  create ~nodes:n !links

let without_link t a b =
  let keep l =
    not ((l.src = a && l.dst = b) || (l.src = b && l.dst = a))
  in
  create ~nodes:t.n (List.filter keep t.links)

let pp ppf t =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d links@]" t.n (List.length t.links)
