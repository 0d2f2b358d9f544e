type field = { name : string; bits : int }
type t = { fields : field array; by_name : (string * int) list; total : int }

let create fl =
  if fl = [] then invalid_arg "Schema.create: empty field list";
  List.iter
    (fun f ->
      if f.bits < 1 || f.bits > Ternary.max_width then
        invalid_arg
          (Printf.sprintf "Schema.create: field %s has width %d" f.name f.bits))
    fl;
  let names = List.map (fun f -> f.name) fl in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Schema.create: duplicate field names";
  let fields = Array.of_list fl in
  {
    fields;
    by_name = List.mapi (fun i f -> (f.name, i)) fl;
    total = Array.fold_left (fun acc f -> acc + f.bits) 0 fields;
  }

let fields t = t.fields
let arity t = Array.length t.fields
let field_bits t i = t.fields.(i).bits
let field_name t i = t.fields.(i).name
let index t name = List.assoc name t.by_name
let total_bits t = t.total

let equal a b =
  Array.length a.fields = Array.length b.fields
  && Array.for_all2 (fun x y -> x.name = y.name && x.bits = y.bits) a.fields b.fields

let pp ppf t =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf f -> Format.fprintf ppf "%s/%d" f.name f.bits))
    t.fields

let ip_pair = create [ { name = "src_ip"; bits = 32 }; { name = "dst_ip"; bits = 32 } ]

let acl_5tuple =
  create
    [
      { name = "src_ip"; bits = 32 };
      { name = "dst_ip"; bits = 32 };
      { name = "src_port"; bits = 16 };
      { name = "dst_port"; bits = 16 };
      { name = "proto"; bits = 8 };
    ]

let tiny2 = create [ { name = "f1"; bits = 8 }; { name = "f2"; bits = 8 } ]
