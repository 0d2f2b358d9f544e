type frame = { arrives : float; seq : int; bytes : Bytes.t }

type stats = {
  dropped : int;
  duplicated : int;
  corrupted : int;
  reordered : int;
  decode_errors : int;
}

let no_stats = { dropped = 0; duplicated = 0; corrupted = 0; reordered = 0; decode_errors = 0 }

(* Registry mirrors, shared by all channels: bumped on the same line as
   the per-channel fields so the totals cannot drift. *)
let m_frames = Telemetry.counter "channel_frames"
let m_bytes = Telemetry.counter "channel_bytes"
let m_dropped = Telemetry.counter "channel_dropped"
let m_duplicated = Telemetry.counter "channel_duplicated"
let m_corrupted = Telemetry.counter "channel_corrupted"
let m_reordered = Telemetry.counter "channel_reordered"
let m_decode_errors = Telemetry.counter "channel_decode_errors"

type t = {
  schema : Schema.t;
  latency : float;
  fault : Fault.injector option;
  mutable queue : frame list;
      (* descending (arrives, seq): newest frames in front, so the
         fault-free fast path is an O(1) prepend and poll takes the
         arrived suffix; jittered frames insert a few steps down *)
  mutable next_seq : int;
  mutable frames : int;
  mutable carried : int;
  mutable stats : stats;
}

let create ?fault schema ~latency =
  if latency < 0. then invalid_arg "Channel.create: negative latency";
  { schema; latency; fault; queue = []; next_seq = 0; frames = 0; carried = 0;
    stats = no_stats }

let frame_after (a : frame) (b : frame) =
  a.arrives > b.arrives || (a.arrives = b.arrives && a.seq > b.seq)

let enqueue t ~arrives bytes =
  let f = { arrives; seq = t.next_seq; bytes } in
  t.next_seq <- t.next_seq + 1;
  let rec insert = function
    | head :: rest when frame_after head f -> head :: insert rest
    | tail -> f :: tail
  in
  match t.queue with
  | head :: _ when frame_after head f -> t.queue <- insert t.queue
  | _ -> t.queue <- f :: t.queue

let corrupt_copy token bytes =
  let b = Bytes.copy bytes in
  let len = Bytes.length b in
  if len > 0 then begin
    let off = token mod len in
    let mask = ((token lsr 8) land 0xff) lor 1 in
    Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor mask)
  end;
  b

let send t ~now ~xid ?epoch msg =
  let bytes = Message.encode ~xid ?epoch msg in
  t.frames <- t.frames + 1;
  Telemetry.incr m_frames;
  t.carried <- t.carried + Bytes.length bytes;
  Telemetry.add m_bytes (Bytes.length bytes);
  match t.fault with
  | None -> enqueue t ~arrives:(now +. t.latency) bytes
  | Some inj -> (
      match Fault.fate inj with
      | Fault.Lost ->
          t.stats <- { t.stats with dropped = t.stats.dropped + 1 };
          Telemetry.incr m_dropped
      | Fault.Deliver deliveries ->
          if List.length deliveries > 1 then begin
            t.stats <- { t.stats with duplicated = t.stats.duplicated + 1 };
            Telemetry.incr m_duplicated
          end;
          List.iter
            (fun (d : Fault.delivery) ->
              let bytes =
                match d.Fault.corrupt with
                | None -> bytes
                | Some token ->
                    t.stats <- { t.stats with corrupted = t.stats.corrupted + 1 };
                    Telemetry.incr m_corrupted;
                    corrupt_copy token bytes
              in
              let held = if d.Fault.held_back then t.latency else 0. in
              if d.Fault.held_back then begin
                t.stats <- { t.stats with reordered = t.stats.reordered + 1 };
                Telemetry.incr m_reordered
              end;
              enqueue t ~arrives:(now +. t.latency +. d.Fault.extra_delay +. held) bytes)
            deliveries)

let poll t ~now =
  (* queue is descending, so everything due sits at the tail *)
  let rec split acc = function
    | f :: rest when f.arrives > now -> split (f :: acc) rest
    | due -> (List.rev acc, due)
  in
  let future, due = split [] t.queue in
  t.queue <- future;
  (* [due] is descending too: reverse while decoding for FIFO order *)
  List.fold_left
    (fun acc f ->
      match Message.decode t.schema f.bytes with
      | Ok (xid, epoch, msg) -> (xid, epoch, msg) :: acc
      | Error _ ->
          (* an undecodable frame is a survivable network condition, not a
             crash: count it and let retransmission recover the payload *)
          t.stats <- { t.stats with decode_errors = t.stats.decode_errors + 1 };
          Telemetry.incr m_decode_errors;
          acc)
    [] due

let pending t = List.length t.queue
let frames_carried t = t.frames
let bytes_carried t = t.carried
let stats t = t.stats
