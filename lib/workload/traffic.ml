type flow = {
  flow_id : int;
  header : Header.t;
  ingress : int;
  start : float;
  packets : int;
  interval : float;
}

type profile = {
  flows : int;
  rate : float;
  alpha : float;
  distinct_headers : int;
  packets_per_flow_mean : float;
  packet_interval : float;
  ingresses : int list;
  burstiness : float;
}

let default =
  {
    flows = 10_000;
    rate = 10_000.;
    alpha = 1.0;
    distinct_headers = 1_000;
    packets_per_flow_mean = 1.0;
    packet_interval = 1e-4;
    ingresses = [ 0 ];
    burstiness = 1.0;
  }

let headers_for rng classifier n =
  let rules = Array.of_list (Classifier.rules classifier) in
  let nrules = Array.length rules in
  if nrules = 0 then invalid_arg "Traffic.headers_for: empty classifier";
  let rand_bits k = Prng.bits rng k in
  Array.init n (fun i ->
      let r = rules.(i mod nrules) in
      (* Prefer a point the rule actually decides; a few rejection tries,
         then accept whatever point of the predicate we got (it is still a
         valid header, just charged to an earlier rule). *)
      let rec try_point k =
        let h = Pred.random_point rand_bits r.Rule.pred in
        if k = 0 then h
        else
          match Classifier.first_match classifier h with
          | Some w when w.Rule.id = r.Rule.id -> h
          | _ -> try_point (k - 1)
      in
      try_point 4)

let geometric rng mean =
  if mean <= 1.0 then 1
  else
    (* geometric with success prob 1/mean, support >= 1 *)
    let p = 1. /. mean in
    let u = Prng.float rng in
    1 + int_of_float (Float.log1p (-.u) /. Float.log1p (-.p))

let generate rng classifier profile =
  if profile.flows < 0 then invalid_arg "Traffic.generate: negative flow count";
  let headers = headers_for rng classifier profile.distinct_headers in
  let zipf = Zipf.create ~n:profile.distinct_headers ~alpha:profile.alpha in
  (* Popularity rank -> header index: shuffle so rank order is not
     correlated with rule priority order. *)
  let rank_to_header = Array.init profile.distinct_headers (fun i -> i) in
  Prng.shuffle rng rank_to_header;
  let ingresses = Array.of_list profile.ingresses in
  if Array.length ingresses = 0 then invalid_arg "Traffic.generate: no ingresses";
  if profile.burstiness < 1.0 then invalid_arg "Traffic.generate: burstiness must be >= 1";
  (* Two-state Markov-modulated Poisson arrivals: the on state runs
     [burstiness]x the average rate, the off state slows down so the
     long-run average stays [rate]; both states last ~50 flows. *)
  let on = ref true in
  let until_toggle = ref 50 in
  let current_rate () =
    if profile.burstiness <= 1.0 then profile.rate
    else begin
      decr until_toggle;
      if !until_toggle <= 0 then begin
        on := not !on;
        until_toggle := 50
      end;
      if !on then profile.rate *. profile.burstiness
      else
        (* chosen so that equal time in both states averages to [rate] *)
        profile.rate *. profile.burstiness
        /. ((2. *. profile.burstiness) -. 1.)
    end
  in
  let now = ref 0. in
  List.init profile.flows (fun flow_id ->
      now := !now +. Prng.exponential rng ~rate:(current_rate ());
      let rank = Zipf.draw zipf rng in
      let header = headers.(rank_to_header.(rank - 1)) in
      {
        flow_id;
        header;
        ingress = Prng.choose rng ingresses;
        start = !now;
        packets = geometric rng profile.packets_per_flow_mean;
        interval = profile.packet_interval;
      })

let packet_stream flows =
  let packets =
    List.concat_map
      (fun f ->
        List.init f.packets (fun i -> (f.start +. (float_of_int i *. f.interval), f.header)))
      flows
  in
  let arr = Array.of_list packets in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) arr;
  Array.map snd arr
