(* Splicing from scratch: every call filters the whole table list for
   blockers, walks the dependency closure through
   [Classifier.direct_dependencies] and ranks by scanning the table.
   The plan-served [Switch.serve_miss] is held to these answers. *)

let for_header table h =
  match Classifier.first_match table h with
  | None -> None
  | Some origin ->
      let blockers =
        Classifier.rules table
        |> List.filter (fun r -> Rule.beats r origin && Rule.overlaps r origin)
        |> List.map (fun (r : Rule.t) -> r.pred)
      in
      let pred =
        List.fold_left
          (fun piece b ->
            if Pred.overlaps piece b then Pred.clip_to_holder piece h b else piece)
          origin.Rule.pred blockers
      in
      Some { Splice.origin; pred }

let cache_priority table (origin : Rule.t) =
  let rec rank n = function
    | [] -> 1 (* unknown origin: floor rank, still above exact fallbacks *)
    | (r : Rule.t) :: rest -> if r.id = origin.id then n else rank (n - 1) rest
  in
  rank (Classifier.length table) (Classifier.rules table)

let cache_rule ~next_id table (piece : Splice.piece) =
  Rule.make ~id:(next_id ())
    ~priority:(cache_priority table piece.origin)
    piece.pred piece.origin.Rule.action

let cover_set table (r : Rule.t) =
  let seen = Hashtbl.create 16 in
  let rec visit (r : Rule.t) =
    if not (Hashtbl.mem seen r.id) then begin
      Hashtbl.add seen r.id ();
      List.iter visit (Classifier.direct_dependencies table r)
    end
  in
  visit r;
  List.filter (fun (x : Rule.t) -> Hashtbl.mem seen x.id) (Classifier.rules table)

let serve_miss ?(mode = `Spliced) ?cover_limit ~next_id partitions h =
  match List.find_opt (fun (p : Partitioner.partition) -> Pred.matches p.region h) partitions with
  | None -> None
  | Some p -> (
      match for_header p.table h with
      | None -> None
      | Some piece ->
          let pid = p.pid in
          let cache_rule, installs =
            match mode with
            | `Spliced -> (
                match cover_limit with
                | Some limit when Splice.dependent_set_cost p.table piece.origin <= limit ->
                    let members =
                      List.map
                        (fun (r : Rule.t) ->
                          let rank = cache_priority p.table r in
                          (Rule.make ~id:(next_id ()) ~priority:rank r.pred r.action, r))
                        (cover_set p.table piece.origin)
                    in
                    let group = Some (next_id (), List.map (fun ((cr : Rule.t), _) -> cr.id) members) in
                    let covers =
                      List.map
                        (fun (cr, (r : Rule.t)) ->
                          (cr, { Switch.pid; kind = Switch.Cover; origin = r.id; group }))
                        members
                    in
                    (fst (List.hd (List.rev covers)), covers)
                | Some _ | None ->
                    let r = cache_rule ~next_id p.table piece in
                    ( r,
                      [ ( r,
                          { Switch.pid; kind = Switch.Fragment; origin = piece.origin.id;
                            group = None } ) ] ))
            | `Microflow ->
                let pr = Pred.exact (Classifier.schema p.table) h in
                let r = Rule.make ~id:(next_id ()) ~priority:0 pr piece.origin.action in
                ( r,
                  [ ( r,
                      { Switch.pid; kind = Switch.Exact; origin = piece.origin.id;
                        group = None } ) ] )
          in
          Some
            { Switch.action = piece.origin.action; cache_rule; origin_id = piece.origin.id; pid;
              installs })
