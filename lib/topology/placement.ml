let check_k topo k =
  if k < 1 || k > Topology.nodes topo then
    invalid_arg "Placement: k out of range"

let random ~rand topo ~k =
  check_k topo k;
  (* Fisher-Yates over the node array, driven by the float source. *)
  let n = Topology.nodes topo in
  let arr = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = int_of_float (rand () *. float_of_int (i + 1)) in
    let j = min i (max 0 j) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 k)

let by_degree topo ~k =
  check_k topo k;
  List.init (Topology.nodes topo) (fun i -> i)
  |> List.sort (fun a b -> Int.compare (Topology.degree topo b) (Topology.degree topo a))
  |> List.filteri (fun i _ -> i < k)

let centroid topo ~k =
  check_k topo k;
  let dist = Array.init (Topology.nodes topo) (Topology.all_distances topo) in
  let avg v = Array.fold_left ( +. ) 0. dist.(v) /. float_of_int (Topology.nodes topo) in
  List.init (Topology.nodes topo) (fun i -> i)
  |> List.sort (fun a b -> Float.compare (avg a) (avg b))
  |> List.filteri (fun i _ -> i < k)

let k_median topo ~k =
  check_k topo k;
  let n = Topology.nodes topo in
  let dist = Array.init n (Topology.all_distances topo) in
  (* nearest.(v): distance from v to its closest chosen authority *)
  let nearest = Array.make n infinity in
  let chosen = ref [] in
  for _ = 1 to k do
    let gain c =
      (* total reduction in sum of nearest distances if we add c *)
      let sum = ref 0. in
      for v = 0 to n - 1 do
        if dist.(c).(v) < nearest.(v) then
          sum := !sum +. (min nearest.(v) 1e12 -. dist.(c).(v))
      done;
      !sum
    in
    let best = ref (-1) and best_gain = ref neg_infinity in
    for c = 0 to n - 1 do
      if not (List.mem c !chosen) then begin
        let g = gain c in
        if g > !best_gain then begin
          best := c;
          best_gain := g
        end
      end
    done;
    chosen := !best :: !chosen;
    for v = 0 to n - 1 do
      if dist.(!best).(v) < nearest.(v) then nearest.(v) <- dist.(!best).(v)
    done
  done;
  List.rev !chosen

