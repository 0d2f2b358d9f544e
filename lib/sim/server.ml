(* The backlog is a ring of parallel lanes rather than a closure queue:
   a packed job is a (kind, arg) pair in two int-compatible lanes and
   costs no allocation to enqueue, serve, or complete; a thunk job parks
   its closure in the third lane.  The completion event itself is one
   packed engine event per job (kind [k_done], no payload — the job in
   service lives in [cur_*]), so a fully packed submit/serve/complete
   cycle allocates nothing. *)

type t = {
  engine : Engine.t;
  service_time : float;
  queue_capacity : int;
  mutable jk : Engine.kind array;
  mutable ja : int array;
  mutable jf : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
  (* job currently in service (dequeued at start, like the legacy closure
     capture, so [len] excludes it) *)
  mutable cur_k : Engine.kind;
  mutable cur_a : int;
  mutable cur_f : unit -> unit;
  mutable k_done : Engine.kind;
  mutable busy : bool;
  mutable rejected : int;
  mutable completed : int;
}

(* unique physical sentinel: a slot holding it is a packed job *)
let no_thunk : unit -> unit = fun () -> ()

let start_next t =
  if t.len = 0 then t.busy <- false
  else begin
    t.busy <- true;
    (* ring capacity is a power of two, so wraparound is a mask *)
    let i = t.head in
    t.head <- (i + 1) land (Array.length t.jk - 1);
    t.len <- t.len - 1;
    t.cur_k <- t.jk.(i);
    t.cur_a <- t.ja.(i);
    (* the [!=] guards skip the pointer-write barrier on the all-packed
       steady state, where every closure slot already holds [no_thunk] *)
    let f = t.jf.(i) in
    if f != no_thunk then begin
      t.jf.(i) <- no_thunk;
      t.cur_f <- f
    end
    else if t.cur_f != no_thunk then t.cur_f <- no_thunk;
    (* service_time is validated positive at create, so this bypasses
       the per-call delay check of a delayed post *)
    Engine.post t.engine ~at:(Engine.now t.engine +. t.service_time) t.k_done 0
  end

let create engine ~service_time ~queue_capacity =
  if service_time <= 0. then invalid_arg "Server.create: nonpositive service time";
  if queue_capacity < 0 then invalid_arg "Server.create: negative capacity";
  let dummy = Engine.kind engine (fun _ -> ()) in
  let cap = 16 in
  let t =
    {
      engine;
      service_time;
      queue_capacity;
      jk = Array.make cap dummy;
      ja = Array.make cap 0;
      jf = Array.make cap no_thunk;
      head = 0;
      len = 0;
      cur_k = dummy;
      cur_a = 0;
      cur_f = no_thunk;
      k_done = dummy;
      busy = false;
      rejected = 0;
      completed = 0;
    }
  in
  t.k_done <-
    Engine.kind engine (fun _ ->
        t.completed <- t.completed + 1;
        let f = t.cur_f in
        if f == no_thunk then Engine.invoke t.engine t.cur_k t.cur_a
        else begin
          t.cur_f <- no_thunk;
          f ()
        end;
        start_next t);
  t

let grow t =
  let cap = Array.length t.jk in
  let ncap = 2 * cap in
  let jk = Array.make ncap t.jk.(0) in
  let ja = Array.make ncap 0 in
  let jf = Array.make ncap no_thunk in
  for i = 0 to t.len - 1 do
    let s = (t.head + i) mod cap in
    jk.(i) <- t.jk.(s);
    ja.(i) <- t.ja.(s);
    jf.(i) <- t.jf.(s)
  done;
  t.jk <- jk;
  t.ja <- ja;
  t.jf <- jf;
  t.head <- 0

let enqueue t k a f =
  if t.len = Array.length t.jk then grow t;
  let i = (t.head + t.len) land (Array.length t.jk - 1) in
  t.jk.(i) <- k;
  t.ja.(i) <- a;
  (* free slots hold [no_thunk]; packed jobs can skip the barrier *)
  if f != no_thunk then t.jf.(i) <- f;
  t.len <- t.len + 1;
  if not t.busy then start_next t

let admit t =
  if t.len >= t.queue_capacity && t.busy then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else true

let submit t job =
  admit t
  && begin
       enqueue t t.k_done 0 job;
       true
     end

let submit_packed t k a =
  (* admit + enqueue fused: this is the per-miss hot path *)
  if t.len >= t.queue_capacity && t.busy then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    enqueue t k a no_thunk;
    true
  end

let rejected t = t.rejected
let completed t = t.completed
