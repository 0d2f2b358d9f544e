(* Structure-of-arrays event queue keyed by (time, sequence); sequence
   preserves FIFO order among simultaneous events.

   The hot path is allocation-free: an event is three flat lanes —
   [tf] (time, a float array, so loads/stores/compares are raw double
   ops; a mutable float field in this mixed record would box on every
   write, and converting times to order-isomorphic int bits costs a
   foreign call per event since [Int64.bits_of_float] has no inline
   intrinsic), [meta] (sequence lsl 16 | kind), [arg] (a packed int
   payload) — and dispatch indexes an int-kind jump table instead of
   calling a heap-allocated thunk.  The clock lives in a one-element
   float array for the same no-boxing reason.  The legacy closure API
   ([schedule]/[after]) survives on top of this as kind 0, whose
   argument indexes a free-listed closure slab.

   Two structures hold pending events:

   - a {b staging run}: events posted outside dispatch (the bulk load —
     packet arrivals, fault schedules) append to a flat vector.  If the
     appends arrive already (time, seq)-ordered — the common case: a
     workload generated in time order — the run is consumed in place with
     {e zero} ordering work; otherwise it is sorted once, when [run]
     starts, by a three-lane quicksort.
   - a {b dynamic heap}: events posted from inside a handler (server
     completions, tunnel hops) go to a classic SoA binary min-heap.  Its
     population is the simulation's {e in-flight} work, not its total
     schedule, so it stays small and its log factor cheap.

   [run] repeatedly takes the smaller of (run head, heap top) — so the
   merged order is exactly the (time, seq) order a single heap would
   produce (the differential test against the closure-heap reference
   engine proves it), but the common event costs O(1) instead of
   O(log pending). *)

type kind = int

let kind_bits = 16
let kind_mask = (1 lsl kind_bits) - 1

type t = {
  (* staging run *)
  mutable s_tf : float array;
  mutable s_meta : int array;
  mutable s_arg : int array;
  mutable s_head : int;  (* first unconsumed *)
  mutable s_len : int;  (* first free slot *)
  mutable s_sorted : bool;
  (* dynamic heap *)
  mutable h_tf : float array;
  mutable h_meta : int array;
  mutable h_arg : int array;
  mutable h_size : int;
  mutable running : bool;
  (* [0] = clock; [1] = time of the last staged append (neg_infinity when
     the run is empty) *)
  fcells : float array;
  mutable next_seq : int;
  mutable processed : int;
  mutable queue_peak : int;
  mutable mirrored : int;  (* processed already added to the registry *)
  mutable handlers : (int -> unit) array;
  mutable nkinds : int;
  (* closure slab backing the legacy thunk API (kind 0) *)
  mutable slab : (unit -> unit) array;
  mutable free : int array;  (* stack of free slab indices *)
  mutable free_top : int;
}

(* Registered here, at module init in the main domain; worker domains only
   bump the (atomic) cells when their runs finish. *)
let m_dispatched = Telemetry.counter "engine_events_dispatched"
let g_queue_peak = Telemetry.gauge "engine_queue_peak"

let initial_capacity = 1024
let heap_initial_capacity = 64
let nothing () = ()
let no_handler _ = ()

let kind t h =
  if t.nkinds > kind_mask then invalid_arg "Engine.kind: too many kinds";
  if t.nkinds = Array.length t.handlers then begin
    let bigger = Array.make (2 * t.nkinds) no_handler in
    Array.blit t.handlers 0 bigger 0 t.nkinds;
    t.handlers <- bigger
  end;
  let k = t.nkinds in
  t.handlers.(k) <- h;
  t.nkinds <- k + 1;
  k

let closure_kind = 0

let create () =
  let t =
    {
      s_tf = Array.make initial_capacity 0.;
      s_meta = Array.make initial_capacity 0;
      s_arg = Array.make initial_capacity 0;
      s_head = 0;
      s_len = 0;
      s_sorted = true;
      h_tf = Array.make heap_initial_capacity 0.;
      h_meta = Array.make heap_initial_capacity 0;
      h_arg = Array.make heap_initial_capacity 0;
      h_size = 0;
      running = false;
      fcells = [| 0.; neg_infinity |];
      next_seq = 0;
      processed = 0;
      queue_peak = 0;
      mirrored = 0;
      handlers = Array.make 8 no_handler;
      nkinds = 0;
      (* allocated on first use: packed-only engines never pay for it *)
      slab = [||];
      free = [||];
      free_top = 0;
    }
  in
  let run_thunk i =
    let f = t.slab.(i) in
    t.slab.(i) <- nothing;
    t.free.(t.free_top) <- i;
    t.free_top <- t.free_top + 1;
    f ()
  in
  ignore (kind t run_thunk : kind);
  t

let now t = Array.unsafe_get t.fcells 0
let pending t = t.s_len - t.s_head + t.h_size

(* ---- staging run ---- *)

let grow_staging t =
  let cap = Array.length t.s_tf in
  let ncap = 2 * cap in
  let tf = Array.make ncap 0. and meta = Array.make ncap 0 and arg = Array.make ncap 0 in
  Array.blit t.s_tf 0 tf 0 t.s_len;
  Array.blit t.s_meta 0 meta 0 t.s_len;
  Array.blit t.s_arg 0 arg 0 t.s_len;
  t.s_tf <- tf;
  t.s_meta <- meta;
  t.s_arg <- arg

(* three-lane in-place quicksort over [lo, hi) by (time, meta); meta
   carries the unique sequence in its high bits, so the order is total
   and any correct sort yields the same permutation *)
let sort_staging t =
  let tf = t.s_tf and meta = t.s_meta and arg = t.s_arg in
  let swap i j =
    let x = Array.unsafe_get tf i in
    Array.unsafe_set tf i (Array.unsafe_get tf j);
    Array.unsafe_set tf j x;
    let x = Array.unsafe_get meta i in
    Array.unsafe_set meta i (Array.unsafe_get meta j);
    Array.unsafe_set meta j x;
    let x = Array.unsafe_get arg i in
    Array.unsafe_set arg i (Array.unsafe_get arg j);
    Array.unsafe_set arg j x
  in
  let before i pt pmeta =
    let it = Array.unsafe_get tf i in
    it < pt || (it = pt && Array.unsafe_get meta i < pmeta)
  in
  let rec qsort lo hi =
    let n = hi - lo in
    if n > 1 then
      if n <= 12 then
        (* insertion sort: shift the three lanes together *)
        for i = lo + 1 to hi - 1 do
          let kt = tf.(i) and kmeta = meta.(i) and karg = arg.(i) in
          let j = ref (i - 1) in
          while
            !j >= lo
            && (tf.(!j) > kt || (tf.(!j) = kt && meta.(!j) > kmeta))
          do
            tf.(!j + 1) <- tf.(!j);
            meta.(!j + 1) <- meta.(!j);
            arg.(!j + 1) <- arg.(!j);
            decr j
          done;
          tf.(!j + 1) <- kt;
          meta.(!j + 1) <- kmeta;
          arg.(!j + 1) <- karg
        done
      else begin
        (* median-of-three pivot, parked at hi-2; Lomuto partition *)
        let mid = lo + (n / 2) in
        if before mid tf.(lo) meta.(lo) then swap lo mid;
        if before (hi - 1) tf.(lo) meta.(lo) then swap lo (hi - 1);
        if before (hi - 1) tf.(mid) meta.(mid) then swap mid (hi - 1);
        swap mid (hi - 2);
        let pt = tf.(hi - 2) and pmeta = meta.(hi - 2) in
        let store = ref lo in
        for i = lo to hi - 3 do
          if before i pt pmeta then begin
            swap i !store;
            incr store
          end
        done;
        swap !store (hi - 2);
        qsort lo !store;
        qsort (!store + 1) hi
      end
  in
  qsort t.s_head t.s_len;
  t.s_sorted <- true

(* consumed runs release their memory: reset indices, and drop a grown
   buffer back to the initial size once it drains (the never-shrinks fix) *)
let recycle_staging t =
  if t.s_head = t.s_len then begin
    t.s_head <- 0;
    t.s_len <- 0;
    t.s_sorted <- true;
    Array.unsafe_set t.fcells 1 neg_infinity;
    if Array.length t.s_tf > initial_capacity then begin
      t.s_tf <- Array.make initial_capacity 0.;
      t.s_meta <- Array.make initial_capacity 0;
      t.s_arg <- Array.make initial_capacity 0
    end
  end

(* ---- dynamic heap ---- *)

let grow_heap t =
  let cap = Array.length t.h_tf in
  let ncap = 2 * cap in
  let tf = Array.make ncap 0. and meta = Array.make ncap 0 and arg = Array.make ncap 0 in
  Array.blit t.h_tf 0 tf 0 t.h_size;
  Array.blit t.h_meta 0 meta 0 t.h_size;
  Array.blit t.h_arg 0 arg 0 t.h_size;
  t.h_tf <- tf;
  t.h_meta <- meta;
  t.h_arg <- arg

let shrink_heap t cap =
  let ncap = cap / 2 in
  t.h_tf <- Array.sub t.h_tf 0 ncap;
  t.h_meta <- Array.sub t.h_meta 0 ncap;
  t.h_arg <- Array.sub t.h_arg 0 ncap

let heap_push t tf meta arg =
  if t.h_size = Array.length t.h_tf then grow_heap t;
  let htf = t.h_tf and hmeta = t.h_meta and harg = t.h_arg in
  (* hole-based sift-up *)
  let j = ref t.h_size in
  t.h_size <- t.h_size + 1;
  let continue = ref true in
  while !continue && !j > 0 do
    let p = (!j - 1) / 2 in
    let pt = Array.unsafe_get htf p in
    if pt > tf || (pt = tf && Array.unsafe_get hmeta p > meta) then begin
      Array.unsafe_set htf !j pt;
      Array.unsafe_set hmeta !j (Array.unsafe_get hmeta p);
      Array.unsafe_set harg !j (Array.unsafe_get harg p);
      j := p
    end
    else continue := false
  done;
  Array.unsafe_set htf !j tf;
  Array.unsafe_set hmeta !j meta;
  Array.unsafe_set harg !j arg

(* remove the root: move the last element's hole down from the top *)
let heap_remove_root t =
  let n = t.h_size - 1 in
  t.h_size <- n;
  if n > 0 then begin
    let htf = t.h_tf and hmeta = t.h_meta and harg = t.h_arg in
    let lt = Array.unsafe_get htf n and lmeta = Array.unsafe_get hmeta n in
    let j = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !j) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let lt' = Array.unsafe_get htf l and rt = Array.unsafe_get htf r in
            if
              rt < lt'
              || (rt = lt' && Array.unsafe_get hmeta r < Array.unsafe_get hmeta l)
            then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get htf c in
        if ct < lt || (ct = lt && Array.unsafe_get hmeta c < lmeta) then begin
          Array.unsafe_set htf !j ct;
          Array.unsafe_set hmeta !j (Array.unsafe_get hmeta c);
          Array.unsafe_set harg !j (Array.unsafe_get harg c);
          j := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set htf !j (Array.unsafe_get htf n);
    Array.unsafe_set hmeta !j (Array.unsafe_get hmeta n);
    Array.unsafe_set harg !j (Array.unsafe_get harg n)
  end;
  let cap = Array.length t.h_tf in
  if cap > heap_initial_capacity && n <= cap / 4 then shrink_heap t cap

(* ---- posting ---- *)

(* The queue-peak gauge needs [max pending] over the engine's lifetime.
   Pending only rises on a post, and while staging (not running) it rises
   monotonically — so the staged path skips the check entirely and [run]
   samples pending once on entry; only posts made during dispatch (heap
   path) check per post. *)
let post t ~at k arg =
  if at < Array.unsafe_get t.fcells 0 then
    invalid_arg "Engine.schedule: time in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let meta = (seq lsl kind_bits) lor k in
  if t.running then begin
    (* empty-heap fast path: the common shape is one in-flight completion
       event at a time (capacity is never below heap_initial_capacity) *)
    if t.h_size = 0 then begin
      Array.unsafe_set t.h_tf 0 at;
      Array.unsafe_set t.h_meta 0 meta;
      Array.unsafe_set t.h_arg 0 arg;
      t.h_size <- 1
    end
    else heap_push t at meta arg;
    let p = pending t in
    if p > t.queue_peak then t.queue_peak <- p
  end
  else begin
    (* staged bulk-load path; meta (i.e. seq) ascends with append order,
       so order only breaks on a strictly earlier time than the previous
       append (neg_infinity when the run is empty, so the first append
       never trips it) *)
    let n = t.s_len in
    if n = Array.length t.s_tf then grow_staging t;
    if at < Array.unsafe_get t.fcells 1 then t.s_sorted <- false;
    Array.unsafe_set t.fcells 1 at;
    Array.unsafe_set t.s_tf n at;
    Array.unsafe_set t.s_meta n meta;
    Array.unsafe_set t.s_arg n arg;
    t.s_len <- n + 1
  end

let post_after t ~delay k arg =
  if delay < 0. then invalid_arg "Engine.after: negative delay";
  post t ~at:(now t +. delay) k arg

let slab_alloc t f =
  if t.free_top = 0 then begin
    let cap = Array.length t.slab in
    let ncap = if cap = 0 then initial_capacity else 2 * cap in
    let nslab = Array.make ncap nothing in
    Array.blit t.slab 0 nslab 0 cap;
    t.slab <- nslab;
    let nfree = Array.make ncap 0 in
    for i = 0 to ncap - cap - 1 do
      nfree.(i) <- ncap - 1 - i
    done;
    t.free <- nfree;
    t.free_top <- ncap - cap
  end;
  t.free_top <- t.free_top - 1;
  let i = t.free.(t.free_top) in
  t.slab.(i) <- f;
  i

let schedule t ~at f = post t ~at closure_kind (slab_alloc t f)
let after t ~delay f = post_after t ~delay closure_kind (slab_alloc t f)

(* ---- execution ---- *)

(* Mirror per-engine tallies into the process-wide registry.  Done once
   per [run], not per event: the registry cells are atomic and both
   operations (add, max) are commutative, so concurrent engines on worker
   domains produce the same final registry values as any serial order. *)
let mirror t =
  if t.processed > t.mirrored then begin
    Telemetry.add m_dispatched (t.processed - t.mirrored);
    t.mirrored <- t.processed
  end;
  if t.queue_peak > 0 then
    Telemetry.set_max g_queue_peak (float_of_int t.queue_peak)

let run ?(until = infinity) t =
  if not t.s_sorted then begin
    (* compact the unconsumed tail to the front, then sort it once *)
    if t.s_head > 0 then begin
      let n = t.s_len - t.s_head in
      Array.blit t.s_tf t.s_head t.s_tf 0 n;
      Array.blit t.s_meta t.s_head t.s_meta 0 n;
      Array.blit t.s_arg t.s_head t.s_arg 0 n;
      t.s_head <- 0;
      t.s_len <- n
    end;
    sort_staging t
  end;
  let p = pending t in
  if p > t.queue_peak then t.queue_peak <- p;
  t.running <- true;
  (* The staged lanes cannot move during dispatch — posts from handlers
     go to the heap — so they are hoisted out of the loop; the heap lanes
     are reloaded each event because a handler's post may grow them.
     [t.s_head] is kept current before each handler call (handlers read
     [pending]); [np] counts dispatches in a register and is flushed to
     [t.processed] when the loop exits — nothing observes the counter
     mid-run.  The unsafe accesses are guarded by have_s / have_h, and a
     [kind] is valid by construction (the type is abstract). *)
  let s_tf = t.s_tf and s_meta = t.s_meta and s_arg = t.s_arg in
  let s_len = t.s_len in
  let rec loop sh np =
    let have_s = sh < s_len and have_h = t.h_size > 0 in
    if not (have_s || have_h) then np
    else begin
      let from_s =
        have_s
        && ((not have_h)
           ||
           let st = Array.unsafe_get s_tf sh
           and ht = Array.unsafe_get t.h_tf 0 in
           st < ht
           || (st = ht
              && Array.unsafe_get s_meta sh < Array.unsafe_get t.h_meta 0))
      in
      let tm =
        if from_s then Array.unsafe_get s_tf sh else Array.unsafe_get t.h_tf 0
      in
      if tm > until then np
      else begin
        Array.unsafe_set t.fcells 0 tm;
        if from_s then begin
          t.s_head <- sh + 1;
          (Array.unsafe_get t.handlers
             (Array.unsafe_get s_meta sh land kind_mask))
            (Array.unsafe_get s_arg sh);
          loop (sh + 1) (np + 1)
        end
        else begin
          let k = Array.unsafe_get t.h_meta 0 land kind_mask
          and a = Array.unsafe_get t.h_arg 0 in
          heap_remove_root t;
          (Array.unsafe_get t.handlers k) a;
          loop sh (np + 1)
        end
      end
    end
  in
  t.processed <- t.processed + loop t.s_head 0;
  t.running <- false;
  recycle_staging t;
  mirror t

