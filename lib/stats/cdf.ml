type t = float array (* sorted ascending *)

let of_array arr =
  if Array.length arr = 0 then invalid_arg "Cdf.of_array: empty";
  let a = Array.copy arr in
  Array.sort Float.compare a;
  a

let of_list l = of_array (Array.of_list l)

let inverse t q =
  let n = Array.length t in
  if q <= 0. then t.(0)
  else if q >= 1. then t.(n - 1)
  else t.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
