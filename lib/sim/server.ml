(* The backlog is a ring of closures.  The completion event is one
   packed engine event per job (kind [k_done], no payload — the job in
   service lives in [current]). *)

type t = {
  engine : Engine.t;
  service_time : float;
  queue_capacity : int;
  mutable jobs : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
  (* job currently in service (dequeued at start, so [len] excludes it) *)
  mutable current : unit -> unit;
  mutable k_done : Engine.kind;
  mutable busy : bool;
  mutable rejected : int;
  mutable completed : int;
}

(* what a free slot holds, so that a served job's closure can be
   collected *)
let idle () = ()

let start_next t =
  if t.len = 0 then t.busy <- false
  else begin
    t.busy <- true;
    (* ring capacity is a power of two, so wraparound is a mask *)
    let i = t.head in
    t.head <- (i + 1) land (Array.length t.jobs - 1);
    t.len <- t.len - 1;
    t.current <- t.jobs.(i);
    t.jobs.(i) <- idle;
    (* service_time is validated positive at create, so this bypasses
       the per-call delay check of a delayed post *)
    Engine.post t.engine ~at:(Engine.now t.engine +. t.service_time) t.k_done 0
  end

let create engine ~service_time ~queue_capacity =
  if service_time <= 0. then invalid_arg "Server.create: nonpositive service time";
  if queue_capacity < 0 then invalid_arg "Server.create: negative capacity";
  let t =
    {
      engine;
      service_time;
      queue_capacity;
      jobs = Array.make 16 idle;
      head = 0;
      len = 0;
      current = idle;
      k_done = Engine.kind engine ignore;
      busy = false;
      rejected = 0;
      completed = 0;
    }
  in
  t.k_done <-
    Engine.kind engine (fun _ ->
        t.completed <- t.completed + 1;
        let f = t.current in
        t.current <- idle;
        f ();
        start_next t);
  t

let grow t =
  let cap = Array.length t.jobs in
  let jobs = Array.make (2 * cap) idle in
  for i = 0 to t.len - 1 do
    jobs.(i) <- t.jobs.((t.head + i) land (cap - 1))
  done;
  t.jobs <- jobs;
  t.head <- 0

let submit t job =
  if t.len >= t.queue_capacity && t.busy then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    if t.len = Array.length t.jobs then grow t;
    t.jobs.((t.head + t.len) land (Array.length t.jobs - 1)) <- job;
    t.len <- t.len + 1;
    if not t.busy then start_next t;
    true
  end

let rejected t = t.rejected
let completed t = t.completed
