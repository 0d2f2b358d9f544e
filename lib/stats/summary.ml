type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if q <= 0. then sorted.(0)
  else if q >= 1. then sorted.(n - 1)
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

(* The sorted runs [src.(lo..mid-1)] and [src.(mid..hi-1)], merged into
   [dst.(lo..hi-1)]. *)
let merge_runs src dst lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i < mid && (!j >= hi || Float.compare src.(!i) src.(!j) <= 0) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

(* A copy of [arr] in [Float.compare] order, by bottom-up merge sort:
   the comparison is inlined and no element is boxed, where [Array.sort]
   calls a closure on boxed elements. *)
let sorted_copy arr =
  let n = Array.length arr in
  let src = ref (Array.copy arr) and dst = ref (Array.create_float n) in
  let width = ref 1 in
  while !width < n do
    let w = !width in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + w) in
      let hi = min n (mid + w) in
      merge_runs !src !dst !lo mid hi;
      lo := hi
    done;
    let s = !src in
    src := !dst;
    dst := s;
    width := 2 * w
  done;
  !src

let of_array arr =
  let n = Array.length arr in
  if n = 0 then invalid_arg "Summary.of_array: empty";
  let sorted = sorted_copy arr in
  let sum = Array.fold_left ( +. ) 0. sorted in
  let mean = sum /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. sorted
    /. float_of_int n
  in
  {
    count = n;
    mean;
    stddev = Float.sqrt var;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile sorted 0.5;
    p90 = percentile sorted 0.9;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
  }

let of_list l = of_array (Array.of_list l)
