open Test_util

let s2 = Schema.tiny2

let lossy = Fault.lossy_link ~jitter:1e-3 0.2

let fates inj n = List.init n (fun _ -> Fault.fate inj)

(* --- the fault plan itself --- *)

let test_injector_deterministic () =
  let p = Fault.plan ~seed:7 ~link:lossy () in
  let a = fates (Fault.injector p ~channel:0) 500 in
  let b = fates (Fault.injector p ~channel:0) 500 in
  check Alcotest.bool "same seed+channel, same stream" true (a = b);
  let c = fates (Fault.injector p ~channel:1) 500 in
  check Alcotest.bool "different channel, different stream" true (a <> c);
  let p9 = Fault.plan ~seed:9 ~link:lossy () in
  let d = fates (Fault.injector p9 ~channel:0) 500 in
  check Alcotest.bool "different seed, different stream" true (a <> d)

let test_fate_distribution () =
  let p = Fault.plan ~seed:3 ~link:lossy () in
  let inj = Fault.injector p ~channel:2 in
  let n = 5000 in
  let lost = ref 0 and dups = ref 0 and corrupt = ref 0 in
  List.iter
    (function
      | Fault.Lost -> incr lost
      | Fault.Deliver ds ->
          if List.length ds = 2 then incr dups;
          if List.exists (fun (d : Fault.delivery) -> d.corrupt <> None) ds then
            incr corrupt)
    (fates inj n);
  (* drop = 0.2, duplicate/corrupt default to drop/4 = 0.05; allow wide
     tolerance, this is a sanity check not a statistics test *)
  check Alcotest.bool "drop rate ~20%" true (abs (!lost - 1000) < 300);
  check Alcotest.bool "duplicates happen" true (!dups > 100);
  check Alcotest.bool "corruption happens" true (!corrupt > 100)

let test_link_validation () =
  (match Fault.lossy_link 1.5 with
  | _ -> Alcotest.fail "probability > 1 accepted"
  | exception Invalid_argument _ -> ());
  match Fault.lossy_link ~corrupt:(-0.1) 0.1 with
  | _ -> Alcotest.fail "negative probability accepted"
  | exception Invalid_argument _ -> ()

let test_events_sorted () =
  let p =
    Fault.plan
      ~events:
        [
          Fault.Restart { switch = 0; at = 5.0 };
          Fault.Crash { switch = 0; at = 1.0 };
          Fault.Link_down { switch = 1; at = 3.0 };
        ]
      ()
  in
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "events time-ordered" [ 1.0; 3.0; 5.0 ]
    (List.map Fault.event_time p.Fault.events)

(* A controller event must name one of the plan's replicas: [Cluster]
   indexes its replicas by it and [Flowsim] its up flags. *)
let test_controller_index_validation () =
  let rejects what events =
    match Fault.plan ~controllers:2 ~events () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "crash of replica 2 of 2" [ Fault.Controller_crash { controller = 2; at = 1.0 } ];
  rejects "restart of replica -1" [ Fault.Controller_restart { controller = -1; at = 1.0 } ];
  let p =
    Fault.plan ~controllers:2
      ~events:
        [ Fault.Controller_crash { controller = 1; at = 1.0 };
          Fault.Controller_restart { controller = 1; at = 2.0 } ]
      ()
  in
  check Alcotest.int "in-range events kept" 2 (List.length p.Fault.events)

(* --- frame integrity --- *)

let test_corrupt_frame_detected () =
  let bytes = Message.encode ~xid:1 (Message.Echo_request 5) in
  (match Message.decode s2 bytes with
  | Ok (1, _, Message.Echo_request 5) -> ()
  | _ -> Alcotest.fail "clean frame failed to decode");
  (* flip one body byte: the checksum must catch it *)
  let flipped = Bytes.copy bytes in
  Bytes.set_uint8 flipped 16 (Bytes.get_uint8 flipped 16 lxor 0x10);
  (match Message.decode s2 flipped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "body corruption went undetected");
  (* flip a checksum byte itself *)
  let flipped = Bytes.copy bytes in
  Bytes.set_uint8 flipped 9 (Bytes.get_uint8 flipped 9 lxor 0x01);
  match Message.decode s2 flipped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "checksum corruption went undetected"

(* --- lossy channel --- *)

let test_lossy_channel_counters () =
  let p = Fault.plan ~seed:5 ~link:(Fault.lossy_link 0.3) () in
  let ch = Channel.create ~fault:(Fault.injector p ~channel:0) s2 ~latency:0.01 in
  let n = 400 in
  for i = 1 to n do
    Channel.send ch ~now:0. ~xid:i Message.Hello
  done;
  let got = Channel.poll ch ~now:10. in
  let st = Channel.stats ch in
  check Alcotest.bool "frames dropped" true (st.Channel.dropped > 0);
  check Alcotest.bool "frames duplicated" true (st.Channel.duplicated > 0);
  (* every corrupted copy is caught at decode and skipped, never raised *)
  check Alcotest.int "corruption caught at decode" st.Channel.corrupted
    st.Channel.decode_errors;
  check Alcotest.int "delivery accounting closes"
    (n - st.Channel.dropped + st.Channel.duplicated - st.Channel.decode_errors)
    (List.length got)

let test_undecodable_frame_dropped_not_raised () =
  (* a frame of garbage must be counted, not crash the poll loop *)
  let p = Fault.plan ~seed:1 ~link:(Fault.lossy_link ~corrupt:1.0 0.0) () in
  let ch = Channel.create ~fault:(Fault.injector p ~channel:0) s2 ~latency:0.01 in
  Channel.send ch ~now:0. ~xid:1 (Message.Echo_request 2);
  let got = Channel.poll ch ~now:1. in
  check Alcotest.int "corrupt frame skipped" 0 (List.length got);
  check Alcotest.int "decode error counted" 1 (Channel.stats ch).Channel.decode_errors

let test_lossless_channel_untouched () =
  (* no injector: behaviour identical to the reliable channel *)
  let ch = Channel.create s2 ~latency:0.01 in
  for i = 1 to 50 do
    Channel.send ch ~now:0. ~xid:i Message.Hello
  done;
  check Alcotest.int "all delivered" 50 (List.length (Channel.poll ch ~now:1.));
  let st = Channel.stats ch in
  check Alcotest.int "nothing dropped" 0 st.Channel.dropped;
  check Alcotest.int "nothing corrupted" 0 st.Channel.corrupted

let test_channel_same_seed () =
  let run () =
    let p = Fault.plan ~seed:13 ~link:lossy () in
    let ch = Channel.create ~fault:(Fault.injector p ~channel:4) s2 ~latency:0.01 in
    for i = 1 to 200 do
      Channel.send ch ~now:(float_of_int i *. 0.001) ~xid:i (Message.Echo_request i)
    done;
    (List.map (fun (x, _, _) -> x) (Channel.poll ch ~now:5.), Channel.stats ch)
  in
  let seq1, st1 = run () in
  let seq2, st2 = run () in
  check (Alcotest.list Alcotest.int) "same xid sequence" seq1 seq2;
  check Alcotest.int "same drop count" st1.Channel.dropped st2.Channel.dropped;
  check Alcotest.int "same corruption count" st1.Channel.corrupted st2.Channel.corrupted

let suite =
  [
    ( "fault plan",
      [
        tc "deterministic per (seed, channel)" test_injector_deterministic;
        tc "failure modes all exercised" test_fate_distribution;
        tc "probability validation" test_link_validation;
        tc "events sorted by time" test_events_sorted;
        tc "controller index validation" test_controller_index_validation;
      ] );
    ( "lossy channel",
      [
        tc "corruption detected by checksum" test_corrupt_frame_detected;
        tc "loss counters close the accounting" test_lossy_channel_counters;
        tc "undecodable frames dropped, not raised" test_undecodable_frame_dropped_not_raised;
        tc "no injector, no interference" test_lossless_channel_untouched;
        tc "same seed replays identically" test_channel_same_seed;
      ] );
  ]
