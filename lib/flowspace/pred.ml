type t = { schema : Schema.t; fields : Ternary.t array }

let check schema fields =
  if Array.length fields <> Schema.arity schema then
    invalid_arg "Pred: arity mismatch";
  Array.iteri
    (fun i f ->
      if Ternary.width f <> Schema.field_bits schema i then
        invalid_arg
          (Printf.sprintf "Pred: field %s expects width %d, got %d"
             (Schema.field_name schema i)
             (Schema.field_bits schema i) (Ternary.width f)))
    fields

let any schema =
  {
    schema;
    fields = Array.init (Schema.arity schema) (fun i -> Ternary.any (Schema.field_bits schema i));
  }

let exact schema h =
  {
    schema;
    fields =
      Array.init (Schema.arity schema) (fun i ->
          Ternary.exact ~width:(Schema.field_bits schema i) (Header.field h i));
  }

let make schema l =
  let fields = Array.of_list l in
  check schema fields;
  { schema; fields }

let init schema f =
  let fields = Array.init (Schema.arity schema) f in
  check schema fields;
  { schema; fields }

let of_fields schema assoc =
  let base = any schema in
  let fields = Array.copy base.fields in
  List.iter
    (fun (name, tern) ->
      let i = Schema.index schema name in
      fields.(i) <- tern)
    assoc;
  check schema fields;
  { schema; fields }

let of_strings schema assoc =
  of_fields schema (List.map (fun (n, s) -> (n, Ternary.of_string s)) assoc)

let with_field t i f =
  if Ternary.width f <> Schema.field_bits t.schema i then
    invalid_arg "Pred.with_field: width mismatch";
  let fields = Array.copy t.fields in
  fields.(i) <- f;
  { t with fields }

let schema t = t.schema
let field t i = t.fields.(i)
let arity t = Array.length t.fields

let pp ppf t =
  Format.fprintf ppf "@[<h>[";
  Array.iteri
    (fun i f ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%s=%a" (Schema.field_name t.schema i) Ternary.pp f)
    t.fields;
  Format.fprintf ppf "]@]"

let to_string t = Format.asprintf "%a" pp t

let equal a b =
  Schema.equal a.schema b.schema && Array.for_all2 Ternary.equal a.fields b.fields

(* The local closure allocates per call, unlike [overlaps_from]; it is
   kept because removing it shifts minor-GC pacing into policy updates
   (DESIGN.md §11). *)
let matches t h =
  let rec go i =
    i >= Array.length t.fields
    || (Ternary.matches t.fields.(i) (Header.field h i) && go (i + 1))
  in
  go 0

let is_any t = Array.for_all Ternary.is_any t.fields

(* One pass over the fields in native ints, each field's mask and value
   placed by the header key's layout.  Ternary values are zero outside
   their mask, so the value lanes come out masked. *)
let lanes t =
  if not (Header.lanes_exact t.schema) then invalid_arg "Pred.lanes: schema over 126 bits";
  let mlo = ref 0 and vlo = ref 0 and mhi = ref 0 and vhi = ref 0 and pos = ref 0 in
  for i = 0 to Array.length t.fields - 1 do
    let f = t.fields.(i) in
    let m = Int64.to_int (Ternary.mask f)
    and v = Int64.to_int (Ternary.value f)
    and bits = Ternary.width f in
    mlo := !mlo lor Header.lane_lo ~pos:!pos m;
    vlo := !vlo lor Header.lane_lo ~pos:!pos v;
    mhi := !mhi lor Header.lane_hi ~pos:!pos ~bits m;
    vhi := !vhi lor Header.lane_hi ~pos:!pos ~bits v;
    pos := !pos + bits
  done;
  (!mlo, !vlo, !mhi, !vhi)

let size_log2 t = Array.fold_left (fun acc f -> acc + Ternary.wildcard_bits f) 0 t.fields
let size t = Float.pow 2. (float_of_int (size_log2 t))

(* [inter a b <> None], field by field, allocating nothing (a local
   [go] closing over [a] and [b] would allocate its closure per call); a
   width mismatch raises as in [inter], up to the first disjoint field. *)
let rec overlaps_from a b i =
  i >= Array.length a.fields
  || (Ternary.overlaps a.fields.(i) b.fields.(i) && overlaps_from a b (i + 1))

let overlaps a b = overlaps_from a b 0

(* The intersection of two overlapping fields.  When one holds the
   other (a rule's field inside a partition region's, most fields when a
   policy is clipped), it is the inner operand itself, not a copy. *)
let meet f g =
  if Ternary.subsumes g f then f
  else if Ternary.subsumes f g then g
  else Option.get (Ternary.inter f g)

(* The overlap test runs first, so a disjoint pair (most pairs when a
   policy is clipped to many regions) returns [None] without allocating;
   once it passes, every field's intersection exists. *)
let inter a b =
  if not (overlaps_from a b 0) then None
  else begin
    let fields = Array.copy a.fields in
    for i = 0 to Array.length fields - 1 do
      fields.(i) <- meet a.fields.(i) b.fields.(i)
    done;
    Some { a with fields }
  end

let subsumes a b = Array.for_all2 Ternary.subsumes a.fields b.fields

(* Disjoint tuple subtraction: the piece for field [i] combines the
   fields before [i] clipped to [b], a disjoint piece of [a_i - b_i] at
   [i], and [a]'s own fields after [i].  Pieces from different [i] differ
   on field [i] (one is inside [b_i], the other outside), so the whole
   cover is pairwise disjoint. *)
let subtract a b =
  match inter a b with
  | None -> [ a ]
  | Some _ ->
      let n = Array.length a.fields in
      let rec go i acc =
        if i >= n then List.rev acc
        else
          let pieces = Ternary.subtract a.fields.(i) b.fields.(i) in
          let acc =
            List.fold_left
              (fun acc piece ->
                let fields =
                  Array.mapi
                    (fun j f ->
                      if j < i then Option.get (Ternary.inter f b.fields.(j))
                      else if j = i then piece
                      else f)
                    a.fields
                in
                { a with fields } :: acc)
              acc pieces
          in
          go (i + 1) acc
      in
      go 0 []

let subtract_all a bs =
  List.fold_left
    (fun pieces b -> List.concat_map (fun p -> subtract p b) pieces)
    [ a ] bs

(* Witness search for a - union(bs) != empty: clip away one blocker at a
   time, branching over the disjoint pieces, bailing out at the first
   piece that survives every blocker. *)
let diff_nonempty a bs =
  let rec go piece = function
    | [] -> true
    | b :: rest ->
        if not (overlaps piece b) then go piece rest
        else List.exists (fun q -> go q rest) (subtract piece b)
  in
  go a bs

(* the first field where [h] leaves [b] *)
let rec leaves b h i =
  if Ternary.matches b.fields.(i) (Header.field h i) then leaves b h (i + 1) else i

(* The piece of [subtract a b] holding [h], built alone.  In
   [subtract]'s cover the piece for field [i] holds [h] exactly when [i]
   is the first field where [h] leaves [b]: its fields before [i] are
   [a]'s clipped to [b], field [i] is the ternary piece holding [h]'s
   value, and the fields after [i] are [a]'s own. *)

let clip_to_holder a h b =
  if not (matches a h) then invalid_arg "Pred.clip_to_holder: header outside a";
  if matches b h then invalid_arg "Pred.clip_to_holder: header inside b";
  if not (overlaps a b) then a
  else begin
    let i = leaves b h 0 in
    let fields = Array.copy a.fields in
    for j = 0 to i - 1 do
      let aj = a.fields.(j) and bj = b.fields.(j) in
      if not (Ternary.subsumes bj aj) then fields.(j) <- Option.get (Ternary.inter aj bj)
    done;
    fields.(i) <- Ternary.piece_holding a.fields.(i) b.fields.(i) (Header.field h i);
    { a with fields }
  end

let split p fi bit =
  match Ternary.split p.fields.(fi) bit with
  | None -> None
  | Some (lo, hi) -> Some (with_field p fi lo, with_field p fi hi)

let random_point rand_bits t =
  Header.make t.schema (Array.map (Ternary.random_point rand_bits) t.fields)
