type t = { schema : Schema.t; preds : Pred.t list }

let empty schema = { schema; preds = [] }
let full schema = { schema; preds = [ Pred.any schema ] }
let of_preds schema preds = { schema; preds }
let preds t = t.preds
let is_empty t = t.preds = []
let union a b = { a with preds = a.preds @ b.preds }

let diff a b =
  { a with preds = List.concat_map (fun p -> Pred.subtract_all p b.preds) a.preds }

let subsumes a b = is_empty (diff b a)
