let check ~width lo hi =
  if width < 1 || width > Ternary.max_width then invalid_arg "Range: bad width";
  let top = Int64.shift_right_logical Int64.minus_one (64 - width) in
  if Int64.compare lo 0L < 0 || Int64.compare hi lo < 0 || Int64.compare hi top > 0
  then invalid_arg "Range: bounds out of order or out of width"

(* Greedy maximal-prefix cover: repeatedly take the largest prefix that
   starts at [lo], is aligned, and does not overshoot [hi]. *)
let fold ~width lo hi ~init ~f =
  check ~width lo hi;
  let rec go acc lo =
    if Int64.unsigned_compare lo hi > 0 then acc
    else
      (* Largest block size dividing lo (alignment)... *)
      let align =
        if Int64.equal lo 0L then width
        else
          let rec tz i =
            if Int64.logand (Int64.shift_right_logical lo i) 1L = 1L then i else tz (i + 1)
          in
          tz 0
      in
      let remaining = Int64.add (Int64.sub hi lo) 1L in
      (* ... clipped so the block fits inside the remaining span. *)
      let rec clip k =
        if k = 0 then 0
        else if Int64.unsigned_compare (Int64.shift_left 1L k) remaining <= 0 then k
        else clip (k - 1)
      in
      let k = clip align in
      let prefix_len = width - k in
      let acc = f acc (Ternary.prefix ~width lo prefix_len) in
      go acc (Int64.add lo (Int64.shift_left 1L k))
  in
  go init lo

let to_prefixes ~width lo hi =
  List.rev (fold ~width lo hi ~init:[] ~f:(fun acc t -> t :: acc))

let of_ternary t =
  let w = Ternary.width t in
  (* Prefix shape: all specified bits are contiguous at the top. *)
  let rec prefix_len i =
    if i >= w then Some w
    else
      match Ternary.bit t (w - 1 - i) with
      | `Zero | `One -> prefix_len (i + 1)
      | `Any ->
          (* everything below must be Any *)
          let rec all_any j =
            j >= w
            || (match Ternary.bit t (w - 1 - j) with `Any -> all_any (j + 1) | _ -> false)
          in
          if all_any i then Some i else None
  in
  match prefix_len 0 with
  | None -> None
  | Some len ->
      let lo = Ternary.value t in
      let span = if len = w then 0L else Int64.sub (Int64.shift_left 1L (w - len)) 1L in
      Some (lo, Int64.add lo span)
