type t = { schema : Schema.t; preds : Pred.t list }

let empty schema = { schema; preds = [] }
let full schema = { schema; preds = [ Pred.any schema ] }
let of_pred p = { schema = Pred.schema p; preds = [ p ] }
let of_preds schema preds = { schema; preds }
let preds t = t.preds
let is_empty t = t.preds = []
let matches t h = List.exists (fun p -> Pred.matches p h) t.preds
let union a b = { a with preds = a.preds @ b.preds }

let inter a b =
  {
    a with
    preds =
      List.concat_map
        (fun p -> List.filter_map (fun q -> Pred.inter p q) b.preds)
        a.preds;
  }

let diff a b =
  { a with preds = List.concat_map (fun p -> Pred.subtract_all p b.preds) a.preds }

let subsumes a b = is_empty (diff b a)
let equal_sets a b = subsumes a b && subsumes b a
let size_upper t = List.fold_left (fun acc p -> acc +. Pred.size p) 0. t.preds

let disjointify t =
  (* peel predicates front to back, keeping only what earlier ones did
     not already cover *)
  let rec go seen acc = function
    | [] -> List.rev acc
    | p :: rest ->
        let fresh = Pred.subtract_all p seen in
        go (p :: seen) (List.rev_append fresh acc) rest
  in
  { t with preds = go [] [] t.preds }

let size_exact t =
  List.fold_left (fun acc p -> acc +. Pred.size p) 0. (disjointify t).preds

let compact t =
  let keep p others =
    not (List.exists (fun q -> (not (Pred.equal p q)) && Pred.subsumes q p) others)
  in
  let rec dedup = function
    | [] -> []
    | p :: rest -> if List.exists (Pred.equal p) rest then dedup rest else p :: dedup rest
  in
  let preds = dedup t.preds in
  { t with preds = List.filter (fun p -> keep p preds) preds }
