(* Keys.  A field's key mixes its value with a salt of its index and
   mask; a predicate's key is the xor of its field keys, so the key of
   the predicate with one bit of field [i] flipped is the own key with
   field [i]'s term swapped — one mix per probe, nothing allocated.  For
   a fixed field and mask the map from value to key is a bijection (xor
   with the salt, then an invertible mixer), so two predicates that
   differ in one field never collide; any other collision is filtered by
   the callers' exact checks. *)

let mix h =
  let h = (h lxor (h lsr 32)) * 0x3f51afd7ed558ccd in
  h lxor (h lsr 29)

let salt i m = mix ((m * 0x1b873593) + i)
let value_of f = Int64.to_int (Ternary.value f)
let mask_of f = Int64.to_int (Ternary.mask f)

let key pred =
  let k = ref 0 in
  for i = 0 to Pred.arity pred - 1 do
    let f = Pred.field pred i in
    k := !k lxor mix (value_of f lxor salt i (mask_of f))
  done;
  !k

(* Chained buckets with the rule and its metadata inline in the cell:
   five words per indexed rule, and a probe that walks a chain without
   building anything. *)
type 'm cell = Nil | Cell of { key : int; rule : Rule.t; meta : 'm; mutable next : 'm cell }
type 'm t = { mutable cells : 'm cell array; mutable count : int }

let create () = { cells = Array.make 16 Nil; count = 0 }
let slot cells k = k land (Array.length cells - 1)

let resize t =
  let cells = Array.make (2 * Array.length t.cells) Nil in
  let rec move = function
    | Nil -> ()
    | Cell r as c ->
        let rest = r.next in
        let i = slot cells r.key in
        r.next <- cells.(i);
        cells.(i) <- c;
        move rest
  in
  Array.iter move t.cells;
  t.cells <- cells

let add t rule meta =
  if t.count >= 2 * Array.length t.cells then resize t;
  let key = key rule.Rule.pred in
  let i = slot t.cells key in
  t.cells.(i) <- Cell { key; rule; meta; next = t.cells.(i) };
  t.count <- t.count + 1

let rec unlink t i key id prev = function
  | Nil -> ()
  | Cell r as c ->
      if r.key = key && r.rule.Rule.id = id then begin
        (match prev with Nil -> t.cells.(i) <- r.next | Cell p -> p.next <- r.next);
        t.count <- t.count - 1
      end
      else unlink t i key id c r.next

let remove t (rule : Rule.t) =
  let key = key rule.Rule.pred in
  let i = slot t.cells key in
  unlink t i key rule.Rule.id Nil t.cells.(i)

let rec fold_chain key f acc = function
  | Nil -> acc
  | Cell r -> fold_chain key f (if r.key = key then f acc r.rule r.meta else acc) r.next

let fold_key t key f acc = fold_chain key f acc t.cells.(slot t.cells key)
let fold_equal t pred f acc = fold_key t (key pred) f acc

(* One probe per specified bit: the key of [pred] with that bit flipped. *)
let fold_buddies t pred f acc =
  let own = key pred in
  let acc = ref acc in
  for i = 0 to Pred.arity pred - 1 do
    let fld = Pred.field pred i in
    let v = value_of fld and m = mask_of fld in
    let s = salt i m in
    let base = own lxor mix (v lxor s) in
    let rest = ref m in
    while !rest <> 0 do
      let b = !rest land (- !rest) in
      rest := !rest lxor b;
      acc := fold_key t (base lxor mix (v lxor b lxor s)) f !acc
    done
  done;
  !acc
