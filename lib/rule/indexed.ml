(* The packed kernel, payloads pre-wrapped in [Some] so a hit returns
   without allocating.  Rules arrive in table order, so the kernel's
   first-match and early-exit shortcuts hold. *)
type t = {
  source : Classifier.t;
  index : Rule.t option Tuple_space.t option;  (* [None]: schema over 126 bits *)
}

let of_classifier source =
  let index =
    if not (Header.lanes_exact (Classifier.schema source)) then None
    else begin
      let ts = Tuple_space.create () in
      List.iter (fun r -> ignore (Tuple_space.add ts r (Some r))) (Classifier.rules source);
      Some ts
    end
  in
  { source; index }

let length t = Classifier.length t.source
let groups t = match t.index with Some ts -> Tuple_space.groups ts | None -> 0
let degenerate t = match t.index with Some ts -> Tuple_space.degenerate ts | None -> true
let classifier t = t.source

let first_match t h =
  match t.index with
  | None -> Classifier.first_match t.source h
  | Some ts ->
      let i = Tuple_space.find ts ~lo:(Header.key_lo h) ~hi:(Header.key_hi h) in
      if i < 0 then None else Tuple_space.get ts i
