type t = { n : int; cum : float array (* cum.(k-1) = cdf k *) }

let create ~n ~alpha =
  if n < 1 then invalid_arg "Zipf.create: n must be positive";
  if alpha < 0. then invalid_arg "Zipf.create: alpha must be >= 0";
  let cum = Array.make n 0. in
  let total = ref 0. in
  for k = 1 to n do
    total := !total +. (1. /. Float.pow (float_of_int k) alpha);
    cum.(k - 1) <- !total
  done;
  for k = 0 to n - 1 do
    cum.(k) <- cum.(k) /. !total
  done;
  cum.(n - 1) <- 1.0;
  { n; cum }

let search t target =
  (* least index with cum >= target *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cum.(mid) >= target then hi := mid else lo := mid + 1
  done;
  !lo + 1

let draw t rng = search t (Prng.float rng)
