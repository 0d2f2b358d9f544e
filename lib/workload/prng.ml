type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = mix (int64 t) }

let bits t n =
  if n < 0 || n > 30 then invalid_arg "Prng.bits: n must be in 0..30";
  if n = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (int64 t) (64 - n))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: nonpositive bound";
  (* rejection-free for our purposes: 63-bit modulo bias is negligible at
     the bounds used (< 2^32), but rejection keeps it exact. *)
  let rec go () =
    let v = Int64.to_int (Int64.shift_right_logical (int64 t) 1) in
    let r = v mod bound in
    if v - r + (bound - 1) >= 0 then r else go ()
  in
  go ()

let int64_bound t bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Prng.int64_bound: nonpositive bound";
  let rec go () =
    let v = Int64.shift_right_logical (int64 t) 1 in
    let r = Int64.rem v bound in
    if Int64.compare (Int64.add (Int64.sub v r) (Int64.sub bound 1L)) 0L >= 0 then r else go ()
  in
  go ()

let float t =
  Int64.to_float (Int64.shift_right_logical (int64 t) 11) *. 0x1.0p-53

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: nonpositive rate";
  let u = 1. -. float t in
  -.Float.log u /. rate

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))
