let truncate bits v =
  Int64.logand v (Int64.shift_right_logical Int64.minus_one (64 - bits))

(* Field [i] sits at bit offset (sum of the widths before it); an offset
   of 63 or more lands in the high lane, and a field straddling bit 63
   spills its top bits into the high lane's bottom. *)
let pack schema get =
  if Schema.total_bits schema > 126 then invalid_arg "Lanes_scan.pack: schema over 126 bits";
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
  (Int64.to_int !lo, Int64.to_int !hi)

let pred_lanes p =
  let lanes get = pack (Pred.schema p) (fun i -> get (Pred.field p i)) in
  let mask_lo, mask_hi = lanes Ternary.mask and value_lo, value_hi = lanes Ternary.value in
  (mask_lo, value_lo, mask_hi, value_hi)
