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

(* The two-lane layout: field [i]'s value [get i] sits at bit offset
   (sum of the widths before it), little-endian by schema position; an
   offset of 63 or more lands in the high lane, and a field straddling
   bit 63 spills its top bits into the high lane's bottom.  Every field
   owns a disjoint set of lane bits, so the packing commutes with [land]:
   packing per-field masks gives the lane masks of a predicate. *)
let layout schema get =
  let lo = ref 0L and hi = ref 0L and used = ref 0 in
  for i = 0 to Schema.arity schema - 1 do
    let v = get i and bits = Schema.field_bits schema i and pos = !used in
    (if pos < 63 then begin
       lo := Int64.logor !lo (truncate 63 (Int64.shift_left v pos));
       let spill = pos + bits - 63 in
       if spill > 0 then
         hi := Int64.logor !hi (Int64.shift_right_logical v (bits - spill))
     end
     else hi := Int64.logor !hi (Int64.shift_left v (pos - 63)));
    used := pos + bits
  done;
  (!lo, !hi)

let pack_lanes schema get =
  if not (lanes_exact schema) then invalid_arg "Header.pack_lanes: schema over 126 bits";
  let lo, hi = layout schema get in
  (Int64.to_int lo, Int64.to_int hi)

(* Int-pack the header into two 63-bit lanes ([layout]).  For schemas up
   to 126 total bits (the ACL 5-tuple's 104 included) the packing is
   injective — two headers of the same schema are equal iff their lanes
   are — so the per-packet paths (cachesim interning, flow-record cache,
   monitor, TCAM lookup) compare ints instead of walking the values array
   or building a string.  Wider schemas fall back to using the lanes as a
   mixed fingerprint and comparing values on collision. *)
let pack schema values =
  let exact = lanes_exact schema in
  let lo, hi =
    if exact then layout schema (Array.get values)
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

let of_fields schema assoc =
  let values =
    Array.init (Schema.arity schema) (fun i ->
        match List.assoc_opt (Schema.field_name schema i) assoc with
        | Some v -> v
        | None -> 0L)
  in
  List.iter (fun (name, _) -> ignore (Schema.index schema name)) assoc;
  make schema values

let schema t = t.schema
let field t i = t.values.(i)
let get t name = t.values.(Schema.index t.schema name)
let values t = Array.copy t.values
let key_lo t = t.key_lo
let key_hi t = t.key_hi
let key_exact t = t.key_exact

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
