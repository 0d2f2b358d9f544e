type t = float array (* sorted ascending *)

let of_array arr =
  if Array.length arr = 0 then invalid_arg "Cdf.of_array: empty";
  let a = Array.copy arr in
  Array.sort Float.compare a;
  a

let of_list l = of_array (Array.of_list l)
let at t x =
  (* number of samples <= x, binary search for upper bound *)
  let n = Array.length t in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  float_of_int !lo /. float_of_int n

let inverse t q =
  let n = Array.length t in
  if q <= 0. then t.(0)
  else if q >= 1. then t.(n - 1)
  else t.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let series ?(points = 20) t =
  if points < 2 then invalid_arg "Cdf.series: need at least 2 points";
  List.init points (fun i ->
      let q = float_of_int (i + 1) /. float_of_int points in
      (inverse t q, q))
