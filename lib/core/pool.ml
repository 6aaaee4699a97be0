(* A small work-stealing pool of OCaml 5 domains.

   Every batch is a flat array of independent tasks: a serving session
   draining its inbox, or one region lane of a runtime wave. Tasks share
   no mutable word (sessions share only the immutable plan; a wave's
   lanes own disjoint arena slots and buffer their boundary effects),
   never block, and never spawn further tasks — async re-entries wait for
   the task's own loop or a later batch. That shape lets the pool be much
   simpler than a general scheduler:

   - Each [run] distributes the task array round-robin into per-worker
     queues. A queue is an immutable slice of the task array plus an
     [Atomic.t] cursor; taking a task is one [Atomic.fetch_and_add] and a
     bounds check, so owners and thieves race lock-free without loss or
     duplication.
   - A worker drains its own queue, then probes the other queues in a
     seeded pseudo-random order, stealing from whichever still has work.
     The seed makes steal schedules reproducible: the interleaving checker
     replays many seeds and requires identical observable traces (the
     per-(session,source) FIFO argument — see DESIGN.md — says the traces
     cannot depend on which domain ran a task, and the seeds let a test
     actually vary that).
   - Workers are persistent: spawned once at [create], parked on a
     condition variable between runs, released by an epoch bump. [run] is
     a barrier — it returns only after every task of this batch finished.

   No dependency on the serving layer: tasks are [int -> unit] closures
   (the argument is the executing worker's index, used by callers to bill
   per-domain stats). *)

type worker_stats = {
  ws_tasks : int;  (** Tasks this worker executed (own + stolen). *)
  ws_steals : int;  (** Tasks taken from another worker's queue. *)
  ws_idle_probes : int;
      (** Steal probes that found the victim's queue empty — a unitless
          proxy for idle time (the pool never sleeps mid-run, it probes). *)
}

(* One worker's view of the current batch. [queues.(w)] is the slice of
   tasks initially assigned to worker [w]; [cursors.(w)] indexes the next
   unclaimed task in that slice. *)
type batch = {
  queues : (int -> unit) array array;
  cursors : int Atomic.t array;
  remaining : int Atomic.t;  (* tasks not yet finished (not just claimed) *)
  order : int array array;  (* order.(w) = seeded victim probe order for w *)
}

type t = {
  p_domains : int;
  mutable p_workers : Domain.id Domain.t array;
      (* the [p_domains - 1] spawned ones; filled right after [create]
         allocates the record (workers capture the record itself) *)
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable p_epoch : int;  (* bumped once per [run]; workers wait for it *)
  mutable p_batch : batch option;
  mutable p_closing : bool;
  mutable p_running : bool;
  p_error : exn option Atomic.t;  (* first task exception, re-raised by run *)
  p_tasks : int array;  (* per-worker lifetime counters, owner-written *)
  p_steals : int array;
  p_idle_probes : int array;
}

let domains t = t.p_domains

(* Deterministic LCG so steal schedules depend only on the seed, never on
   wall-clock or allocation addresses. *)
let lcg s = ((s * 0x2545F4914F6CDD1D) + 0x9E3779B97F4A7C1) land max_int

(* A seeded permutation of the other workers' indices: worker [w]'s victim
   probe order. Fisher-Yates with the LCG stream. *)
let victim_order ~seed ~domains w =
  let victims = Array.init domains Fun.id in
  (* remove self by swapping w to the end and shrinking *)
  victims.(w) <- domains - 1;
  victims.(domains - 1) <- w;
  let n = domains - 1 in
  let order = Array.sub victims 0 n in
  let s = ref (lcg (seed + (w * 7919) + 1)) in
  for i = n - 1 downto 1 do
    s := lcg !s;
    let j = !s mod (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

(* Claim the next task of [q]/[cursor]: lock-free, returns [None] when the
   queue is drained. Over-claiming is impossible — fetch_and_add hands out
   each index exactly once; indices past the end are simply discarded. *)
let take queues cursors v =
  let q = queues.(v) in
  let i = Atomic.fetch_and_add cursors.(v) 1 in
  if i < Array.length q then Some q.(i) else None

let record_error t exn =
  (* Keep the first error; later ones lose the race and are dropped (the
     batch still runs to completion so [run]'s barrier stays simple). *)
  ignore (Atomic.compare_and_set t.p_error None (Some exn))

(* Run batch [b] as worker [w] until no queue has work. Returns when
   the worker can no longer find a task; the batch is globally done only
   when [b.remaining] hits 0 (another worker may still be finishing a
   claimed task). *)
let work t b w =
  let tasks = ref 0 and steals = ref 0 and idle = ref 0 in
  let exec f =
    (try f w with exn -> record_error t exn);
    incr tasks;
    ignore (Atomic.fetch_and_add b.remaining (-1))
  in
  let rec own () =
    match take b.queues b.cursors w with
    | Some f ->
      exec f;
      own ()
    | None -> steal 0
  and steal i =
    if i < Array.length b.order.(w) then begin
      let v = b.order.(w).(i) in
      match take b.queues b.cursors v with
      | Some f ->
        incr steals;
        exec f;
        (* after a successful steal, the victim may have more: restart the
           probe sweep from our own (now surely empty) queue's victims *)
        steal 0
      | None ->
        incr idle;
        steal (i + 1)
    end
  in
  own ();
  t.p_tasks.(w) <- t.p_tasks.(w) + !tasks;
  t.p_steals.(w) <- t.p_steals.(w) + !steals;
  t.p_idle_probes.(w) <- t.p_idle_probes.(w) + !idle

(* Body of a spawned worker domain: park until the epoch moves, run the
   published batch, repeat; exit when the pool closes. *)
let worker_loop t w =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.p_lock;
    while t.p_epoch = !seen && not t.p_closing do
      Condition.wait t.p_cond t.p_lock
    done;
    let epoch = t.p_epoch and closing = t.p_closing in
    let batch = t.p_batch in
    Mutex.unlock t.p_lock;
    if epoch <> !seen then begin
      seen := epoch;
      Option.iter (fun b -> work t b w) batch;
      loop ()
    end
    else if not closing then loop ()
  in
  loop ()

let create ?domains () =
  let n =
    match domains with
    | Some n ->
      if n < 1 then invalid_arg "Pool.create: domains must be >= 1";
      n
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      p_domains = n;
      p_workers = [||];
      p_lock = Mutex.create ();
      p_cond = Condition.create ();
      p_epoch = 0;
      p_batch = None;
      p_closing = false;
      p_running = false;
      p_error = Atomic.make None;
      p_tasks = Array.make n 0;
      p_steals = Array.make n 0;
      p_idle_probes = Array.make n 0;
    }
  in
  (* The calling domain is worker 0; spawn the other n-1. They capture
     [t] itself, so the workers array must be assigned into the same
     record, not a copy. *)
  t.p_workers <-
    Array.init (n - 1) (fun i ->
        Domain.spawn (fun () ->
            worker_loop t (i + 1);
            Domain.self ()));
  t

let run ?(seed = 0) t tasks =
  if t.p_closing then invalid_arg "Pool.run: pool is closed";
  if t.p_running then invalid_arg "Pool.run: already running a batch";
  let total = Array.length tasks in
  if total = 0 then ()
  else begin
    t.p_running <- true;
    let n = t.p_domains in
    (* Round-robin deal, rotated by the seed so the initial placement —
       not just the steal order — varies across seeds. *)
    let rot = if n = 0 then 0 else lcg seed mod n in
    let per = Array.make n 0 in
    Array.iteri (fun i _ -> per.((i + rot) mod n) <- per.((i + rot) mod n) + 1) tasks;
    let queues = Array.map (fun k -> Array.make k (fun _ -> ())) per in
    let fill = Array.make n 0 in
    Array.iteri
      (fun i f ->
        let w = (i + rot) mod n in
        queues.(w).(fill.(w)) <- f;
        fill.(w) <- fill.(w) + 1)
      tasks;
    let b =
      {
        queues;
        cursors = Array.init n (fun _ -> Atomic.make 0);
        remaining = Atomic.make total;
        order = Array.init n (fun w -> victim_order ~seed ~domains:n w);
      }
    in
    (* Publish the batch and participate as worker 0, then spin for
       stragglers — a worker that claimed a task just before we drained
       everything may still be running it. cpu_relax keeps the spin
       polite. Then retire the batch and re-raise the first captured task
       exception. *)
    Mutex.lock t.p_lock;
    t.p_batch <- Some b;
    t.p_epoch <- t.p_epoch + 1;
    Condition.broadcast t.p_cond;
    Mutex.unlock t.p_lock;
    work t b 0;
    while Atomic.get b.remaining > 0 do
      Domain.cpu_relax ()
    done;
    Mutex.lock t.p_lock;
    t.p_batch <- None;
    Mutex.unlock t.p_lock;
    t.p_running <- false;
    match Atomic.exchange t.p_error None with
    | Some exn -> raise exn
    | None -> ()
  end

let worker_stats t =
  Array.init t.p_domains (fun w ->
      {
        ws_tasks = t.p_tasks.(w);
        ws_steals = t.p_steals.(w);
        ws_idle_probes = t.p_idle_probes.(w);
      })

let reset_worker_stats t =
  Array.fill t.p_tasks 0 t.p_domains 0;
  Array.fill t.p_steals 0 t.p_domains 0;
  Array.fill t.p_idle_probes 0 t.p_domains 0

let total_steals t = Array.fold_left ( + ) 0 t.p_steals

let close t =
  if not t.p_closing then begin
    Mutex.lock t.p_lock;
    t.p_closing <- true;
    Condition.broadcast t.p_cond;
    Mutex.unlock t.p_lock;
    Array.iter (fun d -> ignore (Domain.join d)) t.p_workers
  end
