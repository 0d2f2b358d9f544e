type hop = { at : float; kind : Ptrace.kind; switch : int; rule : int; aux : int }

type path = {
  shard : int;
  pkt : int;
  key_lo : int;
  key_hi : int;
  hops : hop list;
  truncated : bool;
}

type outcome = Delivered | Dropped of int | Incomplete

let outcome p =
  let rec last acc = function
    | [] -> acc
    | h :: rest ->
        let acc =
          match h.kind with
          | Ptrace.Deliver -> Delivered
          | Ptrace.Drop -> Dropped h.aux
          | _ -> acc
        in
        last acc rest
  in
  last Incomplete p.hops

type trace = {
  all : Ptrace.postcard array;
  paths : path list;
  emitted : int;
  overwritten : int;
}

(* A surviving path whose first postcard is not an ingress verdict lost
   its prefix to ring wraparound: overwriting eats oldest-first, so a
   packet's missing postcards are always a prefix of its sequence. *)
let verdict_start (p : Ptrace.postcard) =
  match p.kind with
  | Ptrace.Cache_hit | Ptrace.Authority_hit | Ptrace.Miss -> true
  | Ptrace.Drop -> p.aux = Ptrace.drop_unmatched || p.aux = Ptrace.drop_misconfigured
  | _ -> false

let group ~wrapped (all : Ptrace.postcard array) =
  let tbl : (int * int, Ptrace.postcard * hop list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  Array.iter
    (fun (p : Ptrace.postcard) ->
      if p.Ptrace.pkt >= 0 then begin
        let h =
          { at = p.Ptrace.at; kind = p.Ptrace.kind; switch = p.Ptrace.switch;
            rule = p.Ptrace.rule; aux = p.Ptrace.aux }
        in
        match Hashtbl.find_opt tbl (p.Ptrace.shard, p.Ptrace.pkt) with
        | Some (_, hops) -> hops := h :: !hops
        | None -> Hashtbl.add tbl (p.Ptrace.shard, p.Ptrace.pkt) (p, ref [ h ])
      end)
    all;
  Hashtbl.fold
    (fun (shard, pkt) (first, hops) acc ->
      {
        shard;
        pkt;
        key_lo = first.Ptrace.key_lo;
        key_hi = first.Ptrace.key_hi;
        hops = List.rev !hops;
        truncated = wrapped shard && not (verdict_start first);
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Int.compare a.shard b.shard with
         | 0 -> Int.compare a.pkt b.pkt
         | c -> c)

let of_postcards ?(wrapped = fun _ -> false) all =
  {
    all;
    paths = group ~wrapped all;
    emitted = Array.length all;
    overwritten = 0;
  }

let reconstruct () =
  let all = Ptrace.postcards () in
  {
    all;
    paths = group ~wrapped:Ptrace.shard_wrapped all;
    emitted = Ptrace.emitted ();
    overwritten = Ptrace.overwritten ();
  }

(* ---- invariants ---- *)

let max_reported = 20

let check t =
  let n = ref 0 in
  let out = ref [] in
  let report fmt =
    Printf.ksprintf
      (fun s ->
        incr n;
        if !n <= max_reported then out := s :: !out)
      fmt
  in
  let where p = Printf.sprintf "shard %d pkt %d" p.shard p.pkt in
  List.iter
    (fun p ->
      if not p.truncated then begin
        (* terminal: exactly one, and only deferred install traffic after *)
        let terminals =
          List.filter
            (fun h -> h.kind = Ptrace.Deliver || h.kind = Ptrace.Drop)
            p.hops
        in
        (match terminals with
        | [] -> report "terminal: %s has no terminal postcard" (where p)
        | [ _ ] -> ()
        | l -> report "terminal: %s has %d terminal postcards" (where p) (List.length l));
        let rec after_terminal seen = function
          | [] -> ()
          | h :: rest ->
              let terminal = h.kind = Ptrace.Deliver || h.kind = Ptrace.Drop in
              if seen && (not terminal)
                 && h.kind <> Ptrace.Install && h.kind <> Ptrace.Replace
              then
                report "terminal: %s has a %s postcard after its terminal" (where p)
                  (Ptrace.kind_name h.kind)
              else after_terminal (seen || terminal) rest
        in
        after_terminal false p.hops;
        (* no-loop: distinct switches within each consecutive-transit leg *)
        let leg = Hashtbl.create 8 in
        List.iter
          (fun h ->
            if h.kind = Ptrace.Transit then begin
              if Hashtbl.mem leg h.switch then
                report "no-loop: %s revisits switch %d within one leg" (where p)
                  h.switch;
              Hashtbl.replace leg h.switch ()
            end
            else Hashtbl.reset leg)
          p.hops;
        (* causal ordering within the path *)
        let seen_miss = ref false and seen_serve = ref false in
        let seen_bp = ref false in
        List.iter
          (fun h ->
            match h.kind with
            | Ptrace.Miss -> seen_miss := true
            | Ptrace.Authority_serve ->
                if not !seen_miss then
                  report "serve-cause: %s authority-served without an ingress miss"
                    (where p);
                if !seen_bp then
                  report
                    "backpressure: %s was authority-served after a backpressure \
                     deferral"
                    (where p);
                seen_serve := true
            | Ptrace.Controller -> seen_serve := true
            | Ptrace.Backpressure -> seen_bp := true
            | Ptrace.Install when h.aux <> 0 ->
                if not !seen_serve then
                  report
                    "install-cause: %s installed rule %d with no authority serve or \
                     controller fallback"
                    (where p) h.rule
            | _ -> ())
          p.hops;
        let oc = outcome p in
        (if !seen_bp then
           match oc with
           | Dropped _ -> ()
           | _ when List.exists (fun h -> h.kind = Ptrace.Controller) p.hops -> ()
           | _ ->
               report "backpressure: %s deferred but reached neither controller nor \
                       drop"
                 (where p));
        (* cross-layer: the simulator's queue_full verdict and the
           congestion model's port-buffer shed must agree *)
        let qd = List.exists (fun h -> h.kind = Ptrace.Queue_drop) p.hops in
        (match oc with
        | Dropped r when r = Ptrace.drop_queue_full ->
            if not qd then
              report "queue-drop: %s dropped queue_full with no congestion-layer \
                      shed"
                (where p)
        | Dropped r when r < 0 || r > Ptrace.drop_outage ->
            report "drop-reason: %s dropped with unknown reason code %d" (where p) r
        | _ ->
            if qd then
              report "queue-drop: %s saw a congestion-layer shed but was not \
                      dropped queue_full"
                (where p))
      end)
    t.paths;
  (* hit-install: global, in each shard's emission order, over packet
     and control postcards alike.  Needs the full install history, so a
     wrapped ring disqualifies the rule rather than risking a false
     alarm on a hit whose install was overwritten. *)
  if t.overwritten = 0 then begin
    let live = Hashtbl.create 1024 in
    let shard = ref min_int in
    Array.iter
      (fun (p : Ptrace.postcard) ->
        if p.Ptrace.shard <> !shard then begin
          (* rule liveness is per shard: shards run disjoint switch sets *)
          Hashtbl.reset live;
          shard := p.Ptrace.shard
        end;
        match p.Ptrace.kind with
        | Ptrace.Install -> Hashtbl.replace live (p.Ptrace.switch, p.Ptrace.rule) ()
        | Ptrace.Replace | Ptrace.Invalidate ->
            Hashtbl.remove live (p.Ptrace.switch, p.Ptrace.rule)
        | Ptrace.Cache_hit when p.Ptrace.pkt >= 0 ->
            if not (Hashtbl.mem live (p.Ptrace.switch, p.Ptrace.rule)) then
              report
                "hit-install: shard %d pkt %d hit rule %d at switch %d with no \
                 live install"
                p.Ptrace.shard p.Ptrace.pkt p.Ptrace.rule p.Ptrace.switch
        | _ -> ())
      t.all
  end;
  let out = List.rev !out in
  if !n > max_reported then
    out @ [ Printf.sprintf "... %d more violations" (!n - max_reported) ]
  else out

(* ---- queries ---- *)

type query = {
  q_key : (int * int) option;
  q_switch : int option;
  q_outcome : [ `Delivered | `Dropped | `Incomplete ] option;
  q_since : float option;
  q_until : float option;
}

let select q t =
  List.filter
    (fun p ->
      (match q.q_key with
      | Some (lo, hi) -> p.key_lo = lo && p.key_hi = hi
      | None -> true)
      && (match q.q_switch with
         | Some s -> List.exists (fun h -> h.switch = s) p.hops
         | None -> true)
      && (match q.q_outcome with
         | Some `Delivered -> outcome p = Delivered
         | Some `Dropped -> ( match outcome p with Dropped _ -> true | _ -> false)
         | Some `Incomplete -> outcome p = Incomplete
         | None -> true)
      && (match (p.hops, q.q_since) with
         | h :: _, Some s -> h.at >= s
         | _, _ -> true)
      && match (p.hops, q.q_until) with h :: _, Some u -> h.at <= u | _, _ -> true)
    t.paths

(* ---- rendering ---- *)

let outcome_name = function
  | Delivered -> "delivered"
  | Dropped r -> Printf.sprintf "dropped:%s" (Ptrace.drop_reason_name r)
  | Incomplete -> "incomplete"

let has_provenance k = k = Ptrace.Cache_hit || k = Ptrace.Install

let pp_hop ?describe ppf h =
  let detail =
    match h.kind with
    | Ptrace.Drop -> Printf.sprintf " reason=%s" (Ptrace.drop_reason_name h.aux)
    | Ptrace.Deliver -> if h.aux = 1 then " cache-hit" else ""
    | Ptrace.Miss -> Printf.sprintf " authority=%d" h.aux
    | Ptrace.Authority_serve -> Printf.sprintf " origin=%d pid=%d" h.rule h.aux
    | Ptrace.Ecn | Ptrace.Queue_drop -> Printf.sprintf " depth=%d" h.aux
    | Ptrace.Controller ->
        if h.aux = 1 then " cause=backpressure" else " cause=failure"
    | k when has_provenance k && h.aux <> 0 ->
        let origin = Ptrace.provenance_origin h.aux
        and pid = Ptrace.provenance_pid h.aux in
        let base = Printf.sprintf " origin=%d pid=%d" origin pid in
        let joined =
          match describe with
          | Some f -> ( match f ~origin ~pid with Some s -> " (" ^ s ^ ")" | None -> "")
          | None -> ""
        in
        base ^ joined
    | _ -> ""
  in
  let rule = if h.rule >= 0 then Printf.sprintf " rule %d" h.rule else "" in
  Format.fprintf ppf "  %12.6f  %-15s sw %d%s%s@." h.at (Ptrace.kind_name h.kind)
    h.switch rule detail

let pp ?describe ?(limit = 20) ppf paths =
  let total = List.length paths in
  List.iteri
    (fun i p ->
      if i < limit then begin
        Format.fprintf ppf "path shard %d pkt %d key %x:%x — %s%s (%d hops)@." p.shard
          p.pkt p.key_hi p.key_lo
          (outcome_name (outcome p))
          (if p.truncated then " [truncated]" else "")
          (List.length p.hops);
        List.iter (pp_hop ?describe ppf) p.hops
      end)
    paths;
  if total > limit then Format.fprintf ppf "... %d more paths@." (total - limit)

let pp_summary ppf t =
  let count f = List.length (List.filter f t.paths) in
  let delivered = count (fun p -> outcome p = Delivered) in
  let dropped = count (fun p -> match outcome p with Dropped _ -> true | _ -> false) in
  let incomplete = count (fun p -> outcome p = Incomplete) in
  let truncated = count (fun p -> p.truncated) in
  Format.fprintf ppf
    "postcards %d (%d overwritten); %d paths: %d delivered, %d dropped, %d \
     incomplete, %d truncated@."
    t.emitted t.overwritten (List.length t.paths) delivered dropped incomplete
    truncated

let to_json ?paths t =
  let paths = match paths with Some l -> l | None -> t.paths in
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"difane-paths-v1\",\"emitted\":%d,\"overwritten\":%d,\"paths\":["
       t.emitted t.overwritten);
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"shard\":%d,\"pkt\":%d,\"key_lo\":\"%x\",\"key_hi\":\"%x\",\"outcome\":%S,\"truncated\":%b,\"hops\":["
           p.shard p.pkt p.key_lo p.key_hi
           (outcome_name (outcome p))
           p.truncated);
      List.iteri
        (fun j h ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"at\":%s,\"kind\":%S,\"switch\":%d,\"rule\":%d,\"aux\":%d"
               (Telemetry.json_float h.at) (Ptrace.kind_name h.kind) h.switch h.rule
               h.aux);
          if has_provenance h.kind && h.aux <> 0 then
            Buffer.add_string b
              (Printf.sprintf ",\"origin\":%d,\"pid\":%d"
                 (Ptrace.provenance_origin h.aux)
                 (Ptrace.provenance_pid h.aux));
          if h.kind = Ptrace.Drop then
            Buffer.add_string b
              (Printf.sprintf ",\"reason\":%S" (Ptrace.drop_reason_name h.aux));
          Buffer.add_char b '}')
        p.hops;
      Buffer.add_string b "]}")
    paths;
  Buffer.add_string b "]}";
  Buffer.contents b
