type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?align ~header rows =
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows
  in
  let get l i = Option.value ~default:"" (List.nth_opt l i) in
  let widths =
    List.init ncols (fun i ->
        List.fold_left (fun acc r -> max acc (String.length (get r i)))
          (String.length (get header i))
          rows)
  in
  let aligns =
    List.init ncols (fun i ->
        match align with
        | Some l when i < List.length l -> List.nth l i
        | _ -> if i = 0 then Left else Right)
  in
  let line cells =
    String.concat "  "
      (List.mapi (fun i w -> pad (List.nth aligns i) w (get cells i)) widths)
  in
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line header :: rule :: List.map line rows)

let section ?align ~title ~header rows =
  Printf.sprintf "\n== %s ==\n%s\n" title (render ?align ~header rows)

let print ?align ~title ~header rows = print_string (section ?align ~title ~header rows)

let fmt_pct v = Printf.sprintf "%.1f%%" (100. *. v)

let fmt_si v =
  let a = Float.abs v in
  if a >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v
