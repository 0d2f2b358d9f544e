(* Instrument cells are atomic so worker domains can bump them while the
   simulator is sharded across cores: every mutation is a commutative
   monoid operation (add, max), so the *final* value any snapshot sees is
   independent of interleaving — the registry stays deterministic under
   parallelism even though individual increments race. *)

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : counter array;  (* length bounds + 1; last is the +inf bucket *)
  sum : gauge;
  hcount : counter;
}

type cell = C of counter | G of gauge | H of histogram

(* Keyed by name + canonical (sorted) labels; the key also fixes snapshot
   order, so it doubles as the determinism guarantee. *)
type registered = { name : string; labels : (string * string) list; cell : cell }

let registry : (string, registered) Hashtbl.t = Hashtbl.create 64

(* Registration and snapshots are rare; a single lock keeps the Hashtbl
   safe if a worker domain ever registers an instrument. *)
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let atomic_add_float (a : float Atomic.t) v =
  let rec go () =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (cur +. v)) then go ()
  in
  go ()

let atomic_max_float (a : float Atomic.t) v =
  let rec go () =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then go ()
  in
  go ()

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name labels make check =
  let labels = canon_labels labels in
  let k = key name labels in
  locked @@ fun () ->
  match Hashtbl.find_opt registry k with
  | Some r -> (
      match check r.cell with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Telemetry: %S is already registered as a %s" name
               (kind_name r.cell)))
  | None ->
      let cell, v = make () in
      Hashtbl.replace registry k { name; labels; cell };
      v

let counter ?(labels = []) name =
  register name labels
    (fun () ->
      let c = Atomic.make 0 in
      (C c, c))
    (function C c -> Some c | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c 1)
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let gauge ?(labels = []) name =
  register name labels
    (fun () ->
      let g = Atomic.make 0. in
      (G g, g))
    (function G g -> Some g | _ -> None)

let set g v = Atomic.set g v
let set_max g v = atomic_max_float g v

(* ~15.6 ns .. 4^13 µs ≈ 134 s, log-spaced: wide enough for everything
   from a single TCAM lookup (tens of nanoseconds on the zero-alloc hot
   path) to a whole chaos run without per-site tuning.  The three
   sub-microsecond rungs keep nanosecond-scale latencies from collapsing
   into one bucket; every pre-existing bound is still present. *)
let default_buckets = Array.init 17 (fun i -> 1e-6 *. (4. ** float_of_int (i - 3)))

let histogram ?(labels = []) ?(buckets = default_buckets) name =
  register name labels
    (fun () ->
      let n = Array.length buckets in
      for i = 1 to n - 1 do
        if buckets.(i) <= buckets.(i - 1) then
          invalid_arg "Telemetry.histogram: bucket bounds must be strictly increasing"
      done;
      let h =
        {
          bounds = Array.copy buckets;
          counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
          sum = Atomic.make 0.;
          hcount = Atomic.make 0;
        }
      in
      (H h, h))
    (function H h -> Some h | _ -> None)

let observe h v =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    Stdlib.incr i
  done;
  ignore (Atomic.fetch_and_add h.counts.(!i) 1);
  atomic_add_float h.sum v;
  ignore (Atomic.fetch_and_add h.hcount 1)

type value_kind =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; count : int; sum : float }

type sample = { name : string; labels : (string * string) list; v : value_kind }

let compare_labels a b =
  compare (List.map (fun (k, v) -> (k, v)) a) (List.map (fun (k, v) -> (k, v)) b)

let snapshot () =
  (locked @@ fun () ->
   Hashtbl.fold
     (fun _ r acc ->
       let v =
         match r.cell with
         | C c -> Counter (Atomic.get c)
         | G g -> Gauge (Atomic.get g)
         | H h ->
             let cum = ref 0 in
             let buckets =
               List.init
                 (Array.length h.counts)
                 (fun i ->
                   cum := !cum + Atomic.get h.counts.(i);
                   let bound =
                     if i < Array.length h.bounds then h.bounds.(i) else infinity
                   in
                   (bound, !cum))
             in
             Histogram
               { buckets; count = Atomic.get h.hcount; sum = Atomic.get h.sum }
       in
       { name = r.name; labels = r.labels; v } :: acc)
     registry [])
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 -> compare_labels a.labels b.labels
         | c -> c)

let counter_total samples name =
  List.fold_left
    (fun acc s ->
      match s.v with Counter n when s.name = name -> acc + n | _ -> acc)
    0 samples

let find samples ?labels name =
  List.find_map
    (fun s ->
      if s.name = name
         && match labels with None -> true | Some l -> s.labels = canon_labels l
      then Some s.v
      else None)
    samples

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ r ->
      match r.cell with
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g 0.
      | H h ->
          Array.iter (fun c -> Atomic.set c 0) h.counts;
          Atomic.set h.sum 0.;
          Atomic.set h.hcount 0)
    registry

(* ---- rendering ---- *)

let pp_labels ppf labels =
  if labels <> [] then
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))

let pp_text ppf samples =
  List.iter
    (fun s ->
      match s.v with
      | Counter n -> Format.fprintf ppf "%s%a %d@." s.name pp_labels s.labels n
      | Gauge g -> Format.fprintf ppf "%s%a %g@." s.name pp_labels s.labels g
      | Histogram { buckets; count; sum } ->
          Format.fprintf ppf "%s%a count=%d sum=%g@." s.name pp_labels s.labels count sum;
          List.iter
            (fun (bound, cum) ->
              if cum > 0 then
                if Float.is_integer (Float.round bound) && bound < 1e15 then
                  Format.fprintf ppf "  le=%g %d@." bound cum
                else Format.fprintf ppf "  le=%.3g %d@." bound cum)
            buckets)
    samples

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_nan f then "null"
  else if f = infinity then "\"+inf\""
  else if f = neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" f

let to_json samples =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema\":\"difane-metrics-v1\",\"metrics\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\"" (json_escape s.name));
      if s.labels <> [] then begin
        Buffer.add_string b ",\"labels\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          s.labels;
        Buffer.add_char b '}'
      end;
      (match s.v with
      | Counter n ->
          Buffer.add_string b (Printf.sprintf ",\"type\":\"counter\",\"value\":%d" n)
      | Gauge g ->
          Buffer.add_string b
            (Printf.sprintf ",\"type\":\"gauge\",\"value\":%s" (json_float g))
      | Histogram { buckets; count; sum } ->
          Buffer.add_string b
            (Printf.sprintf ",\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"buckets\":["
               count (json_float sum));
          List.iteri
            (fun j (bound, cum) ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_float bound) cum))
            buckets;
          Buffer.add_char b ']');
      Buffer.add_char b '}')
    samples;
  Buffer.add_string b "]}";
  Buffer.contents b
