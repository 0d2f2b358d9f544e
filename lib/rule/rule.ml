type t = { id : int; priority : int; pred : Pred.t; action : Action.t }

let make ~id ~priority pred action = { id; priority; pred; action }
let with_pred t pred = { t with pred }
let with_action t action = { t with action }
let with_id t id = { t with id }
let matches t h = Pred.matches t.pred h

let compare_priority a b =
  let c = Int.compare b.priority a.priority in
  if c <> 0 then c else Int.compare a.id b.id

let beats a b = compare_priority a b < 0
let overlaps a b = Pred.overlaps a.pred b.pred
let shadows a b = beats a b && Pred.subsumes a.pred b.pred

let equal a b =
  a.id = b.id && a.priority = b.priority && Pred.equal a.pred b.pred
  && Action.equal a.action b.action

let pp ppf t =
  Format.fprintf ppf "@[<h>#%d p%d %a -> %a@]" t.id t.priority Pred.pp t.pred
    Action.pp t.action
