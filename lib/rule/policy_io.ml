let version_line = "# difane-policy v1"

let schema_line schema =
  let fields =
    Schema.fields schema |> Array.to_list
    |> List.map (fun (f : Schema.field) -> Printf.sprintf "%s/%d" f.name f.bits)
  in
  "# schema: " ^ String.concat "," fields

let action_to_string = function
  | Action.Drop -> "drop"
  | Action.Forward p -> Printf.sprintf "fwd:%d" p
  | Action.Count_and_forward p -> Printf.sprintf "count_fwd:%d" p
  | Action.To_authority _ | Action.Redirect_controller ->
      invalid_arg "Policy_io: infrastructure action in a policy file"

(* Render a field in the friendliest shape that parses back identically:
   dotted CIDR for prefix-shaped 32-bit fields, decimal for exact values
   that don't collide with the binary interpretation, bits otherwise. *)
let field_to_string f =
  let w = Ternary.width f in
  if w = 32 then
    match Range.of_ternary f with
    | Some (lo, _) ->
        let len = Ternary.specified_bits f in
        let b i = Int64.to_int (Int64.logand (Int64.shift_right_logical lo i) 0xFFL) in
        if len = 32 then Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)
        else Printf.sprintf "%d.%d.%d.%d/%d" (b 24) (b 16) (b 8) (b 0) len
    | None -> Ternary.to_string f
  else if Ternary.is_exact f then
    let s = Int64.to_string (Ternary.value f) in
    (* decimal is only unambiguous when it cannot be read as a full-width
       bit string *)
    if String.length s <> w then s else Ternary.to_string f
  else Ternary.to_string f

let pred_to_string pred =
  if Pred.is_any pred then "*"
  else
    let schema = Pred.schema pred in
    List.init (Pred.arity pred) (fun i -> i)
    |> List.filter_map (fun i ->
           let f = Pred.field pred i in
           if Ternary.is_any f then None
           else Some (Printf.sprintf "%s=%s" (Schema.field_name schema i) (field_to_string f)))
    |> String.concat ","

let to_string c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf version_line;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (schema_line (Classifier.schema c));
  Buffer.add_char buf '\n';
  List.iter
    (fun (r : Rule.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %s %s\n" r.priority (pred_to_string r.pred)
           (action_to_string r.action)))
    (Classifier.rules c);
  Buffer.contents buf

let ( let* ) = Result.bind

let parse_schema line =
  match String.index_opt line ':' with
  | None -> Error "missing schema header"
  | Some i ->
      let spec = String.sub line (i + 1) (String.length line - i - 1) in
      let fields =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let* parsed =
        List.fold_left
          (fun acc f ->
            let* acc = acc in
            match String.split_on_char '/' f with
            | [ name; bits ] -> (
                match int_of_string_opt bits with
                | Some b when b >= 1 -> Ok ({ Schema.name; bits = b } :: acc)
                | _ -> Error (Printf.sprintf "bad field width in %S" f))
            | _ -> Error (Printf.sprintf "bad field spec %S" f))
          (Ok []) fields
      in
      (try Ok (Schema.create (List.rev parsed))
       with Invalid_argument e -> Error e)

let parse_action lineno s =
  let fail () = Error (Printf.sprintf "line %d: unknown action %S" lineno s) in
  (* an egress is a switch id *)
  let egress p make =
    match int_of_string_opt p with
    | Some p when p >= 0 -> Ok (make p)
    | Some _ -> Error (Printf.sprintf "line %d: negative egress switch in %S" lineno s)
    | None -> fail ()
  in
  match String.split_on_char ':' s with
  | [ "drop" ] -> Ok Action.Drop
  | [ "fwd"; p ] -> egress p (fun p -> Action.Forward p)
  | [ "count_fwd"; p ] -> egress p (fun p -> Action.Count_and_forward p)
  | _ -> fail ()

let parse_pred schema lineno s =
  if s = "*" then Ok (Pred.any schema)
  else
    let* fields =
      List.fold_left
        (fun acc part ->
          let* acc = acc in
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "line %d: bad field match %S" lineno part)
          | Some i ->
              let name = String.sub part 0 i in
              let tern = String.sub part (i + 1) (String.length part - i - 1) in
              let* w =
                try Ok (Schema.field_bits schema (Schema.index schema name))
                with Not_found -> Error (Printf.sprintf "line %d: unknown field %S" lineno name)
              in
              let* t =
                try Ok (Ternary.of_value_string ~width:w tern)
                with Invalid_argument e -> Error (Printf.sprintf "line %d: %s" lineno e)
              in
              Ok ((name, t) :: acc))
        (Ok [])
        (String.split_on_char ',' s)
    in
    try Ok (Pred.of_fields schema fields) with
    | Not_found -> Error (Printf.sprintf "line %d: unknown field name" lineno)
    | Invalid_argument e -> Error (Printf.sprintf "line %d: %s" lineno e)

(* Split on runs of spaces/tabs. *)
let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let of_string text =
  match List.map strip_cr (String.split_on_char '\n' text) with
  | v :: s :: rest ->
      if String.trim v <> version_line then Error "not a difane-policy v1 file"
      else
        let* schema = parse_schema (String.trim s) in
        let rec go lineno next_id acc = function
          | [] -> Ok (Classifier.create schema (List.rev acc))
          | line :: rest -> (
              let t = String.trim line in
              if t = "" || t.[0] = '#' then go (lineno + 1) next_id acc rest
              else
                match tokens t with
                | [ prio; pred; action ] ->
                    let* priority =
                      match int_of_string_opt prio with
                      | Some p when p < -0x80000000 || p > 0x7fffffff ->
                          (* the control channel carries a signed 32-bit priority *)
                          Error
                            (Printf.sprintf "line %d: priority %d outside the int32 range" lineno p)
                      | Some p -> Ok p
                      | None -> Error (Printf.sprintf "line %d: bad priority %S" lineno prio)
                    in
                    let* pred = parse_pred schema lineno pred in
                    let* action = parse_action lineno action in
                    go (lineno + 1) (next_id + 1)
                      (Rule.make ~id:next_id ~priority pred action :: acc)
                      rest
                | _ -> Error (Printf.sprintf "line %d: expected <priority> <match> <action>" lineno))
        in
        go 3 0 [] rest
  | _ -> Error "not a difane-policy v1 file"

let save path c =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string c))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
