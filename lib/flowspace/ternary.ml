type t = { width : int; value : int64; mask : int64 }

let max_width = 62

let ( &: ) = Int64.logand
let ( |: ) = Int64.logor
let ( ^: ) = Int64.logxor
let lnot64 = Int64.lognot

let ones w = if w = 0 then 0L else Int64.shift_right_logical Int64.minus_one (64 - w)

let check_width w =
  if w < 1 || w > max_width then
    invalid_arg (Printf.sprintf "Ternary: width %d not in 1..%d" w max_width)

(* One wildcard per width, shared: values are immutable, and a field
   that matches anything (most fields of most rules) needs no record of
   its own. *)
let anys = Array.init (max_width + 1) (fun w -> { width = w; value = 0L; mask = 0L })

let any w =
  check_width w;
  anys.(w)

(* Canonical inputs, the common case (a decoded frame, a field built from
   another's parts), keep their own boxes. *)
let make ~width ~value ~mask =
  check_width width;
  let m = mask &: ones width in
  if Int64.equal m 0L then anys.(width)
  else
    let v = value &: m in
    {
      width;
      value = (if Int64.equal v value then value else v);
      mask = (if Int64.equal m mask then mask else m);
    }

let exact ~width v = make ~width ~value:v ~mask:(ones width)

let prefix ~width v len =
  check_width width;
  if len < 0 || len > width then
    invalid_arg (Printf.sprintf "Ternary.prefix: length %d not in 0..%d" len width);
  let m = if len = 0 then 0L else Int64.shift_left (ones len) (width - len) in
  make ~width ~value:v ~mask:m

let width t = t.width
let value t = t.value
let mask t = t.mask

let bit t i =
  if i < 0 || i >= t.width then
    invalid_arg (Printf.sprintf "Ternary.bit: %d not in 0..%d" i (t.width - 1));
  let b = Int64.shift_left 1L i in
  if b &: t.mask = 0L then `Any else if b &: t.value = 0L then `Zero else `One

let of_string s =
  let symbols =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  let w = List.length symbols in
  check_width w;
  let step (value, mask) c =
    let value = Int64.shift_left value 1 and mask = Int64.shift_left mask 1 in
    match c with
    | '0' -> (value, mask |: 1L)
    | '1' -> (value |: 1L, mask |: 1L)
    | 'x' | 'X' -> (value, mask)
    | c -> invalid_arg (Printf.sprintf "Ternary.of_string: bad character %C" c)
  in
  let value, mask = List.fold_left step (0L, 0L) symbols in
  { width = w; value; mask }

let of_ipv4 s =
  let addr, len =
    match String.split_on_char '/' s with
    | [ a ] -> (a, 32)
    | [ a; l ] -> (
        match int_of_string_opt l with
        | Some l when l >= 0 && l <= 32 -> (a, l)
        | _ -> invalid_arg (Printf.sprintf "Ternary.of_ipv4: bad prefix length in %S" s))
    | _ -> invalid_arg (Printf.sprintf "Ternary.of_ipv4: malformed %S" s)
  in
  match String.split_on_char '.' addr with
  | [ a; b; c; d ] ->
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | _ -> invalid_arg (Printf.sprintf "Ternary.of_ipv4: bad octet %S" x)
      in
      let v =
        Int64.of_int
          ((octet a lsl 24) lor (octet b lsl 16) lor (octet c lsl 8) lor octet d)
      in
      prefix ~width:32 v len
  | _ -> invalid_arg (Printf.sprintf "Ternary.of_ipv4: malformed %S" s)

let looks_dotted s = String.contains s '.'
let looks_decimal s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let bit_chars s =
  s <> ""
  && String.for_all (fun c -> c = '0' || c = '1' || c = 'x' || c = 'X' || c = '_') s

let bit_length s =
  String.fold_left (fun n c -> if c = '_' then n else n + 1) 0 s

(* Shape dispatch.  The one genuine ambiguity is an all-[01] token, which
   reads as binary or decimal: it is binary exactly when its digit count
   equals the field width (the Policy_io convention), decimal otherwise. *)
let of_value_string ~width s =
  if s = "*" then any width
  else if looks_dotted s then begin
    if width <> 32 then
      invalid_arg "Ternary.of_value_string: IPv4 syntax on a non-32-bit field";
    of_ipv4 s
  end
  else if bit_chars s && bit_length s = width then of_string s
  else if bit_chars s && String.exists (fun c -> c = 'x' || c = 'X') s then
    invalid_arg "Ternary.of_value_string: bit-string width mismatch"
  else if looks_decimal s then
    match Int64.of_string_opt s with
    | Some v -> exact ~width v
    | None -> invalid_arg (Printf.sprintf "Ternary.of_value_string: bad number %S" s)
  else invalid_arg (Printf.sprintf "Ternary.of_value_string: cannot parse %S" s)

let to_string t =
  String.init t.width (fun i ->
      match bit t (t.width - 1 - i) with `Zero -> '0' | `One -> '1' | `Any -> 'x')

let pp ppf t = Format.pp_print_string ppf (to_string t)

let equal a b = a.width = b.width && Int64.equal a.value b.value && Int64.equal a.mask b.mask

let matches t v = (v ^: t.value) &: t.mask = 0L
let is_any t = t.mask = 0L
let is_exact t = Int64.equal t.mask (ones t.width)

let popcount64 x =
  let rec go acc x = if x = 0L then acc else go (acc + 1) (x &: Int64.sub x 1L) in
  go 0 x

let specified_bits t = popcount64 t.mask
let wildcard_bits t = t.width - specified_bits t

let inter a b =
  if a.width <> b.width then invalid_arg "Ternary.inter: width mismatch";
  let common = a.mask &: b.mask in
  if (a.value ^: b.value) &: common <> 0L then None
  else Some { width = a.width; value = a.value |: b.value; mask = a.mask |: b.mask }

(* [inter a b <> None] without building the intersection: a pure bit
   test, so overlap checks on the splicing and partitioning paths
   allocate nothing. *)
let overlaps a b =
  if a.width <> b.width then invalid_arg "Ternary.overlaps: width mismatch";
  (a.value ^: b.value) &: a.mask &: b.mask = 0L

let subsumes a b =
  a.width = b.width
  && a.mask &: b.mask = a.mask
  && (a.value ^: b.value) &: a.mask = 0L

(* Disjoint subtraction.  Walk the bits where [b] is specified but [a] is
   wildcard, from most to least significant.  The piece emitted at bit [j]
   agrees with [b] on all such earlier bits and differs at [j]; the pieces
   are therefore pairwise disjoint and their union is a - b. *)
let subtract a b =
  if a.width <> b.width then invalid_arg "Ternary.subtract: width mismatch";
  if not (overlaps a b) then [ a ]
  else
    let free = b.mask &: lnot64 a.mask in
    let rec go j fixed_mask fixed_value acc =
      if j < 0 then acc
      else
        let bitj = Int64.shift_left 1L j in
        if bitj &: free = 0L then go (j - 1) fixed_mask fixed_value acc
        else
          let piece =
            {
              width = a.width;
              mask = a.mask |: fixed_mask |: bitj;
              value = a.value |: fixed_value |: (lnot64 b.value &: bitj);
            }
          in
          go (j - 1) (fixed_mask |: bitj) (fixed_value |: (b.value &: bitj)) (piece :: acc)
    in
    go (a.width - 1) 0L 0L []

(* The one piece of [subtract a b] holding [v], built directly: the
   pieces are cut at the free bits (specified in [b], wildcard in [a])
   from the most significant down, and [v] lands in the piece of the
   first free bit where it leaves [b].  That piece agrees with [b] on
   the free bits above, and with [v] at the cut.  Disjoint operands
   leave [a] whole. *)
let piece_holding a b v =
  if a.width <> b.width then invalid_arg "Ternary.piece_holding: width mismatch";
  if matches b v || not (matches a v) then
    invalid_arg "Ternary.piece_holding: value not in a - b";
  if not (overlaps a b) then a
  else
    (* [v] agrees with [a], and so with [b], on the bits both specify: it
       leaves [b] at some free bit *)
    let free = b.mask &: lnot64 a.mask in
    let d = (v ^: b.value) &: free in
    (* smear the highest set bit of [d] downwards: [low] is that bit and
       every bit below it *)
    let low = d |: Int64.shift_right_logical d 1 in
    let low = low |: Int64.shift_right_logical low 2 in
    let low = low |: Int64.shift_right_logical low 4 in
    let low = low |: Int64.shift_right_logical low 8 in
    let low = low |: Int64.shift_right_logical low 16 in
    let low = low |: Int64.shift_right_logical low 32 in
    let cut = low ^: Int64.shift_right_logical low 1 in
    let above = free &: lnot64 low in
    {
      width = a.width;
      mask = a.mask |: above |: cut;
      value = a.value |: (b.value &: above) |: (v &: cut);
    }

let split t i =
  if i < 0 || i >= t.width then invalid_arg "Ternary.split: bit out of range";
  let b = Int64.shift_left 1L i in
  if b &: t.mask <> 0L then None
  else
    let mask = t.mask |: b in
    Some ({ t with mask }, { t with mask; value = t.value |: b })

let first_wildcard_msb t =
  let rec go j =
    if j < 0 then None
    else if Int64.shift_left 1L j &: t.mask = 0L then Some j
    else go (j - 1)
  in
  go (t.width - 1)

let random_point rand_bits t =
  let rec fill v j =
    if j >= t.width then v
    else if Int64.shift_left 1L j &: t.mask <> 0L then fill v (j + 1)
    else
      let b = Int64.of_int (rand_bits 1 land 1) in
      fill (v |: Int64.shift_left b j) (j + 1)
  in
  fill t.value 0
