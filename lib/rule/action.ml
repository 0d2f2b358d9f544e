type t =
  | Forward of int
  | Drop
  | Count_and_forward of int
  | To_authority of int
  | Redirect_controller

let equal a b =
  match (a, b) with
  | Forward x, Forward y | Count_and_forward x, Count_and_forward y -> x = y
  | To_authority x, To_authority y -> x = y
  | Drop, Drop | Redirect_controller, Redirect_controller -> true
  | (Forward _ | Drop | Count_and_forward _ | To_authority _ | Redirect_controller), _ ->
      false

let rank = function
  | Forward _ -> 0
  | Drop -> 1
  | Count_and_forward _ -> 2
  | To_authority _ -> 3
  | Redirect_controller -> 4

let compare a b =
  match (a, b) with
  | Forward x, Forward y
  | Count_and_forward x, Count_and_forward y
  | To_authority x, To_authority y ->
      Int.compare x y
  | _ -> Int.compare (rank a) (rank b)

let to_string = function
  | Forward p -> Printf.sprintf "fwd(%d)" p
  | Drop -> "drop"
  | Count_and_forward p -> Printf.sprintf "count,fwd(%d)" p
  | To_authority a -> Printf.sprintf "to_authority(%d)" a
  | Redirect_controller -> "to_controller"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let egress = function
  | Forward p | Count_and_forward p -> Some p
  | Drop | To_authority _ | Redirect_controller -> None
