type t = {
  schema : Schema.t;
  values : int64 array;
  key_lo : int;
  key_hi : int;
  key_exact : bool;
  khash : int;
}

let truncate bits v =
  Int64.logand v (Int64.shift_right_logical Int64.minus_one (64 - bits))

(* Avalanche a 64-bit lane into an accumulator (splitmix64 finalizer). *)
let mix64 h v =
  let h = Int64.logxor h v in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 27)) 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

let lanes_exact schema = Schema.total_bits schema <= 126

(* The two-lane layout.  A field's value [v] (within its [bits]-bit
   width) starts at bit offset [pos], the sum of the widths before it,
   little-endian by schema position.  Its bits below offset 63 sit in the
   low lane, the rest at [pos - 63] in the high lane: a field straddling
   bit 63 spills its top bits into the high lane's bottom.  Native ints
   hold 63 bits, so the shift truncates the low lane by itself.  Every
   field owns a disjoint set of lane bits, so the packing commutes with
   [land]: packing per-field masks gives the lane masks of a predicate. *)
let lane_lo ~pos v = if pos < 63 then v lsl pos else 0

let lane_hi ~pos ~bits v =
  if pos >= 63 then v lsl (pos - 63) else if pos + bits > 63 then v lsr (63 - pos) else 0

(* a lane as the unsigned 63-bit [int64] the key hash mixes *)
let lane64 x = Int64.logand (Int64.of_int x) Int64.max_int

(* Int-pack the header into two 63-bit lanes ([lane_lo], [lane_hi]).  For
   schemas up to 126 total bits (the ACL 5-tuple's 104 included) the
   packing is injective — two headers of the same schema are equal iff
   their lanes are — so the per-packet paths (cachesim interning,
   flow-record cache, monitor, TCAM lookup) compare ints instead of
   walking the values array or building a string.  Wider schemas fall
   back to using the lanes as a mixed fingerprint and comparing values on
   collision. *)
let pack schema values =
  let exact = lanes_exact schema in
  let lo, hi =
    if exact then begin
      let lo = ref 0 and hi = ref 0 and pos = ref 0 in
      for i = 0 to Array.length values - 1 do
        let v = Int64.to_int values.(i) and bits = Schema.field_bits schema i in
        lo := !lo lor lane_lo ~pos:!pos v;
        hi := !hi lor lane_hi ~pos:!pos ~bits v;
        pos := !pos + bits
      done;
      (lane64 !lo, lane64 !hi)
    end
    else begin
      let lo = ref 0L and hi = ref 0L in
      Array.iter
        (fun v ->
          lo := mix64 !lo v;
          hi := mix64 (Int64.logxor !hi 0x9e3779b97f4a7c15L) !lo)
        values;
      (!lo, !hi)
    end
  in
  let khash = Int64.to_int (mix64 (mix64 0x9e3779b97f4a7c15L lo) hi) land max_int in
  (Int64.to_int lo, Int64.to_int hi, exact, khash)

let make schema values =
  if Array.length values <> Schema.arity schema then
    invalid_arg "Header.make: arity mismatch";
  let values =
    Array.mapi (fun i v -> truncate (Schema.field_bits schema i) v) values
  in
  let key_lo, key_hi, key_exact, khash = pack schema values in
  { schema; values; key_lo; key_hi; key_exact; khash }

let schema t = t.schema
let field t i = t.values.(i)
let values t = Array.copy t.values
let key_lo t = t.key_lo
let key_hi t = t.key_hi

let equal a b =
  a.khash = b.khash
  && (a.schema == b.schema || Schema.equal a.schema b.schema)
  &&
  if a.key_exact && b.key_exact then
    Int.equal a.key_lo b.key_lo && Int.equal a.key_hi b.key_hi
  else Array.for_all2 Int64.equal a.values b.values

let compare a b =
  let rec go i =
    if i >= Array.length a.values then 0
    else
      let c = Int64.compare a.values.(i) b.values.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash t = t.khash

let pp ppf t =
  Format.fprintf ppf "@[<h>{";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%s=%Ld" (Schema.field_name t.schema i) v)
    t.values;
  Format.fprintf ppf "}@]"
