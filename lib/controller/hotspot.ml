let hot ~threshold ~n ~total load = load *. float_of_int n > threshold *. total

type streaks = { threshold : float; mutable runs : (int * int) list }

let streaks ~threshold =
  if threshold <= 1.0 then invalid_arg "Hotspot.streaks: threshold <= 1.0";
  { threshold; runs = [] }

let streak s a = Option.value ~default:0 (List.assoc_opt a s.runs)

let observe s loads =
  let n = List.length loads in
  let total = List.fold_left (fun acc (_, l) -> acc +. l) 0. loads in
  s.runs <-
    List.map
      (fun (a, l) -> (a, if hot ~threshold:s.threshold ~n ~total l then streak s a + 1 else 0))
      loads

let clear s = s.runs <- []

type event = {
  window_start : float;
  window_end : float;
  switch_id : int;
  load : float;
  total : float;
  share : float;
  ratio : float;
}

let detect ~threshold ~windows series =
  if windows < 1 then invalid_arg "Hotspot.detect: windows < 1";
  let s = streaks ~threshold in
  let series = List.sort (fun (a, _) (b, _) -> Int.compare a b) series in
  let fair = 1. /. float_of_int (List.length series) in
  let len = List.fold_left (fun m (_, pts) -> max m (Array.length pts)) 0 series in
  (* timestamps from the longest series; all series share boundaries *)
  let times =
    match List.find_opt (fun (_, pts) -> Array.length pts = len) series with
    | Some (_, pts) -> Array.map fst pts
    | None -> [||]
  in
  (* cumulative value of a series at window [w]; flat past its end,
     zero before its start (counters are baselined at track time) *)
  let value pts w =
    let l = Array.length pts in
    if w < 0 || l = 0 then 0. else snd pts.(min w (l - 1))
  in
  let events = ref [] in
  for w = 0 to len - 1 do
    let loads = List.map (fun (id, pts) -> (id, value pts w -. value pts (w - 1))) series in
    observe s loads;
    let total = List.fold_left (fun acc (_, d) -> acc +. d) 0. loads in
    List.iter
      (fun (id, load) ->
        if streak s id >= windows then
          events :=
            {
              window_start = (if w = 0 then 0. else times.(w - 1));
              window_end = times.(w);
              switch_id = id;
              load;
              total;
              share = load /. total;
              ratio = load /. total /. fair;
            }
            :: !events)
      loads
  done;
  List.rev !events

let worst events =
  List.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some best -> if e.ratio > best.ratio then Some e else acc)
    None events

let pp_event ppf e =
  Format.fprintf ppf
    "[%.9g..%.9g] switch %d served %.9g of %.9g misses (share %.3f, %.2fx fair)"
    e.window_start e.window_end e.switch_id e.load e.total e.share e.ratio
