open Effect
open Effect.Deep

type 'a cont = ('a, unit) continuation

(* The handler's answer rides in the effect, so a suspension allocates no
   handler closure, and [yield]'s effect is one static value. *)
type _ Effect.t += Suspend : ('a cont -> unit) option -> 'a Effect.t

exception Already_running
exception Not_running
exception Stuck of string

type policy =
  | Fifo
  | Seeded_random of int
  | Pct of { seed : int; depth : int }
  | Replay of int list

(* ------------------------------------------------------------------ *)
(* Runnable pool.

   An arrival-ordered sequence of thread segments supporting O(1) push-back,
   O(1) pop-front (the FIFO fast path) and indexed removal that preserves the
   arrival order of the remaining segments (the chaos policies). Backed by
   sliding arrays: [head] is the index of the first live slot. *)

(* A continuation captured once and never resumed: the filler of the
   pool's continuation slots. A thread resumed with [()] queues its own
   continuation, not a closure over it, so a [yield] allocates only what
   [perform] does. *)
let no_cont : (unit, unit) continuation =
  let module M = struct
    type _ Effect.t += Capture : unit Effect.t
  end in
  let captured : (unit, unit) continuation option ref = ref None in
  match_with perform M.Capture
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | M.Capture ->
            Some (fun (k : (a, unit) continuation) -> captured := Some k)
          | _ -> None);
    };
  Option.get !captured

module Pool = struct
  (* Each segment is a thunk or a continuation to resume with [()] (the
     other slot holds its filler), kept with its Pct priority (drawn at
     push time, so the random stream is a pure function of (seed, push
     sequence) and independent of pick order) in parallel arrays: a push
     allocates nothing, and the priorities stay unboxed. *)
  type t = {
    mutable thunks : (unit -> unit) array;
    mutable conts : (unit, unit) continuation array;
    mutable prios : float array;
    mutable head : int;
    mutable len : int;
  }

  let idle () = ()

  let create () =
    {
      thunks = Array.make 64 idle;
      conts = Array.make 64 no_cont;
      prios = Array.make 64 0.0;
      head = 0;
      len = 0;
    }

  let length p = p.len

  let clear p =
    Array.fill p.thunks 0 (Array.length p.thunks) idle;
    Array.fill p.conts 0 (Array.length p.conts) no_cont;
    p.head <- 0;
    p.len <- 0

  let push p thunk k prio =
    (if p.head + p.len >= Array.length p.thunks then begin
       (* Out of room on the right: slide back to 0, growing if the live
          region itself is close to capacity. *)
       let cap = Array.length p.thunks in
       if 2 * (p.len + 1) <= cap then begin
         Array.blit p.thunks p.head p.thunks 0 p.len;
         Array.blit p.conts p.head p.conts 0 p.len;
         Array.blit p.prios p.head p.prios 0 p.len;
         Array.fill p.thunks p.len p.head idle;
         Array.fill p.conts p.len p.head no_cont
       end
       else begin
         let thunks = Array.make (2 * cap) idle in
         let conts = Array.make (2 * cap) no_cont in
         let prios = Array.make (2 * cap) 0.0 in
         Array.blit p.thunks p.head thunks 0 p.len;
         Array.blit p.conts p.head conts 0 p.len;
         Array.blit p.prios p.head prios 0 p.len;
         p.thunks <- thunks;
         p.conts <- conts;
         p.prios <- prios
       end;
       p.head <- 0
     end);
    p.thunks.(p.head + p.len) <- thunk;
    p.conts.(p.head + p.len) <- k;
    p.prios.(p.head + p.len) <- prio;
    p.len <- p.len + 1

  let prio p i = p.prios.(p.head + i)
  let set_prio p i v = p.prios.(p.head + i) <- v

  (* Remove the [i]-th runnable, the others keeping their relative order,
     and run it. *)
  let run_take p i =
    let j = p.head + i in
    let thunk = p.thunks.(j) and k = p.conts.(j) in
    if i = 0 then begin
      p.thunks.(j) <- idle;
      p.conts.(j) <- no_cont;
      p.head <- p.head + 1
    end
    else begin
      let last = p.head + p.len - 1 in
      Array.blit p.thunks (j + 1) p.thunks j (p.len - i - 1);
      Array.blit p.conts (j + 1) p.conts j (p.len - i - 1);
      Array.blit p.prios (j + 1) p.prios j (p.len - i - 1);
      p.thunks.(last) <- idle;
      p.conts.(last) <- no_cont
    end;
    p.len <- p.len - 1;
    if p.len = 0 then p.head <- 0;
    if k == no_cont then thunk () else continue k ()
end

(* Live policy state: the seeded PRNG streams and, for [Pct], the priority
   floor and remaining priority-change points. *)
type pstate =
  | P_fifo
  | P_random of Random.State.t
  | P_pct of {
      rng : Random.State.t;
      mutable change_points : int list; (* ascending switch counts *)
      mutable floor : float; (* next demotion priority; only decreases *)
    }
  | P_replay of int list ref

type state = {
  pool : Pool.t;
  mutable timers : (float * int, unit cont) Pqueue.t;
  mutable timer_seq : int;
  mutable clock : float;
  mutable live : bool;
  mutable spawned : int;
  mutable switches : int;
  mutable blocked_seq : int;
  blocked : (int, string) Hashtbl.t;
      (* wait sites of threads currently suspended with ?site; survives the
         end of [run] so [run_value] can name them in a Stuck report *)
  mutable anon_blocked : int;
      (* threads currently suspended WITHOUT a site; counted so Stuck
         reports never silently under-count the parked threads *)
  mutable pstate : pstate;
  mutable decisions : int list; (* chosen pool indices, reversed *)
  mutable recording : bool;
  mutable helper : (helper * unit Domain.t) option;
      (* spawned by the run's first [offload], joined when the run ends *)
  mutable offloading : bool;  (* this run has spawned a helper *)
  inflight : (unit, unit) continuation Queue.t;
      (* the callers of outstanding offloads, in submission order *)
  mutable collected : int;  (* offloads whose caller was made runnable *)
  mutable offloads : int;
}

(* The run's helper domain and its two hand-offs. Jobs go in under
   [h_lock]; an idle helper spins on [h_queued] for the next one, then
   waits on [h_cond]. The helper runs them in order and counts them on
   [h_finished], so the run's domain knows which of its [inflight]
   resumptions are due; [h_done_cond] wakes a scheduler that has nothing
   else to run. The helper allocates nothing for the hand-offs but a
   job's outcome: every size of object it keeps past a minor collection
   costs it a major heap pool of its own. *)
and helper = {
  h_jobs : (unit -> unit) Queue.t;
  h_queued : int Atomic.t;
  h_lock : Mutex.t;
  h_cond : Condition.t;  (* signalled under [h_lock]: a job or [h_stop] *)
  h_stop : bool Atomic.t;  (* the run is ending: return when idle *)
  h_finished : int Atomic.t;
  h_done_lock : Mutex.t;
  h_done_cond : Condition.t;
}

type 'a outcome =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace
  | Moved of (unit, unit) continuation
      (* the rest of the function, stopped at its first Cml operation *)

let compare_timer (t1, s1) (t2, s2) =
  match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c

let st =
  {
    pool = Pool.create ();
    timers = Pqueue.empty ~compare:compare_timer;
    timer_seq = 0;
    clock = 0.0;
    live = false;
    spawned = 0;
    switches = 0;
    blocked_seq = 0;
    blocked = Hashtbl.create 16;
    anon_blocked = 0;
    pstate = P_fifo;
    decisions = [];
    recording = false;
    helper = None;
    offloading = false;
    inflight = Queue.create ();
    collected = 0;
    offloads = 0;
  }

let running () = st.live
let now () = st.clock
let spawned_count () = st.spawned
let switch_count () = st.switches
let decision_log () = List.rev st.decisions
let offload_count () = st.offloads

(* Scheduler state belongs to the run's own domain. An offloaded function
   runs on the helper, where a Cml operation would race the scheduler, so
   [home] moves it back first: it performs [Migrate], which the offload's
   own handler on the helper answers by handing the rest of the function,
   as a continuation, to the run's domain ([offload]). [offloading] is set
   before the first helper starts, so a run that never offloads pays one
   load; one that does pays a domain-local read ([Domain.self] is a C
   call). *)
let on_helper = Domain.DLS.new_key (fun () -> false)

type _ Effect.t += Migrate : unit Effect.t

let home () = if st.offloading && Domain.DLS.get on_helper then perform Migrate

(* Run one thread segment under the effect handler. A [Suspend (Some f)]
   effect stops the segment and hands the continuation to [f]; the segment
   also ends when the thread returns. *)
let exec (thunk : unit -> unit) : unit =
  match_with thunk ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend f -> f
          | _ -> None);
    }

let push thunk k =
  match st.pstate with
  | P_pct p -> Pool.push st.pool thunk k (Random.State.float p.rng 1.0)
  | P_fifo | P_random _ | P_replay _ -> Pool.push st.pool thunk k 0.0

let push_thunk thunk = push thunk no_cont
let push_cont k = push Pool.idle k

let spawn f =
  home ();
  st.spawned <- st.spawned + 1;
  push_thunk (fun () -> exec f)

let suspend_with ?site eff =
  if not st.live then raise Not_running;
  home ();
  match site with
  | None ->
    (* Count anonymous suspensions so deadlock reports can still account for
       threads parked on unnamed channels. *)
    st.anon_blocked <- st.anon_blocked + 1;
    let v = perform eff in
    st.anon_blocked <- st.anon_blocked - 1;
    v
  | Some s ->
    (* Register the wait site for the duration of the suspension: if the
       thread is never resumed, the entry survives and deadlock reports can
       say where it was parked. *)
    let token = st.blocked_seq in
    st.blocked_seq <- token + 1;
    Hashtbl.replace st.blocked token s;
    let v = perform eff in
    Hashtbl.remove st.blocked token;
    v

let suspend ?site f = suspend_with ?site (Suspend (Some f))

let blocked_sites () =
  let named =
    Hashtbl.fold (fun token site acc -> (token, site) :: acc) st.blocked []
    |> List.sort compare |> List.map snd
  in
  named @ List.init (max 0 st.anon_blocked) (fun _ -> "<anonymous>")

let resume (k : 'a cont) (v : 'a) =
  home ();
  push_thunk (fun () -> continue k v)

let yield_effect = Suspend (Some push_cont)
let yield () = suspend_with yield_effect

let wake_at time =
  suspend (fun k ->
      let seq = st.timer_seq in
      st.timer_seq <- seq + 1;
      st.timers <- Pqueue.insert st.timers (time, seq) k)

let sleep d =
  if not st.live then raise Not_running;
  if d <= 0.0 then yield () else wake_at (st.clock +. d)

let sleep_until t =
  if not st.live then raise Not_running;
  if t <= st.clock then yield () else wake_at t

(* How many switches a Pct priority inversion may wait for. The change
   points are drawn uniformly from [1; pct_horizon]; longer runs simply see
   no further inversions, which is the usual finite-depth PCT approximation. *)
let pct_horizon = 4096

let set_policy policy =
  (match policy with
  | Fifo ->
    st.pstate <- P_fifo;
    st.recording <- false
  | Seeded_random seed ->
    st.pstate <- P_random (Random.State.make [| 0x5eed; seed |]);
    st.recording <- true
  | Pct { seed; depth } ->
    let rng = Random.State.make [| 0x9c7; seed |] in
    let change_points =
      List.init (max 0 depth) (fun _ -> 1 + Random.State.int rng pct_horizon)
      |> List.sort_uniq compare
    in
    st.pstate <- P_pct { rng; change_points; floor = 0.0 };
    st.recording <- true
  | Replay log ->
    st.pstate <- P_replay (ref log);
    st.recording <- false);
  st.decisions <- []

(* Index of the highest-priority runnable, earliest arrival winning ties. *)
let best_prio_index pool =
  let n = Pool.length pool in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if Pool.prio pool i > Pool.prio pool !best then best := i
  done;
  !best

(* Choose which runnable executes next. [switch] is the 1-based count of the
   decision being made; only consulted by Pct's change points. *)
let pick switch =
  let n = Pool.length st.pool in
  match st.pstate with
  | P_fifo -> 0
  | P_random rng -> Random.State.int rng n
  | P_pct p ->
    (match p.change_points with
    | c :: rest when c <= switch ->
      (* Priority inversion: demote the current front-runner below every
         other priority ever drawn, then re-select. *)
      p.change_points <- rest;
      p.floor <- p.floor -. 1.0;
      Pool.set_prio st.pool (best_prio_index st.pool) p.floor
    | _ -> ());
    best_prio_index st.pool
  | P_replay l -> (
    match !l with
    | [] -> 0
    | i :: rest ->
      l := rest;
      if i >= 0 && i < n then i else 0)

let reset () =
  Probe.clear ();
  Pool.clear st.pool;
  st.timers <- Pqueue.empty ~compare:compare_timer;
  st.timer_seq <- 0;
  st.clock <- 0.0;
  st.spawned <- 0;
  st.switches <- 0;
  st.blocked_seq <- 0;
  Hashtbl.reset st.blocked;
  st.anon_blocked <- 0;
  st.offloading <- false;
  st.offloads <- 0

(* ------------------------------------------------------------------ *)
(* Offload: real CPU work on the run's helper domain.

   [offload f] suspends only its caller and hands [f] to the helper; once
   the helper has counted it finished, [run] pushes the caller's
   resumption into the pool when it next looks. No virtual time passes:
   while an offload is outstanding, [run] neither advances the clock nor
   ends. The caller's continuation never leaves the run's domain; [f] and
   its result cross, through the atomics and locks below, and so does the
   rest of [f] when it calls a Cml operation on the helper ([home]). *)

(* An idle helper spins for the next job for [spin_ns], then blocks
   until one is queued; a scheduler with nothing to run likewise spins for
   a finished job, then blocks. Neither spins longer: on a host busier
   than its cores, a domain spinning for work takes a core from the one
   with work, and a preempted one holds up every stop-the-world
   collection until it runs again. Beside one busy-looping process on a
   2-vCPU host, perfbench gui_async (76-78k events/s and a mouse p50 of
   1.3-1.9 us at the single-domain parent) fell to 2.7k events/s and a
   1 ms p50 with a 20 ms spin, to 20k and 1.3 ms with 2 ms, and read 26k
   and 66-92 us with 500 us. Shorter is not better on a quiet host: each
   wake of a blocked helper costs the hand-off a futex round trip, and a
   blocked domain makes each minor collection of the others dearer (it
   is woken to join), so the window covers the 0.5 ms between the key
   rounds of gui_async (a 50 us window read a mouse p90 of 3.3-4.7 us
   there, against 2.2-2.9 us). *)
let spin_ns = 500_000
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Spin until [ready ()] or [spin_ns] have passed; whether it is ready. *)
let spin ready =
  let t0 = now_ns () in
  let n = ref 0 in
  while (not (ready ())) && (!n land 63 <> 0 || now_ns () - t0 < spin_ns) do
    Domain.cpu_relax ();
    incr n
  done;
  ready ()

let helper_loop h =
  let ready () = Atomic.get h.h_queued > 0 || Atomic.get h.h_stop in
  let rec loop () =
    if not (spin ready) then begin
      Mutex.lock h.h_lock;
      while not (ready ()) do
        Condition.wait h.h_cond h.h_lock
      done;
      Mutex.unlock h.h_lock
    end;
    Mutex.lock h.h_lock;
    match Queue.take_opt h.h_jobs with
    | None -> Mutex.unlock h.h_lock (* stopped, and nothing is queued *)
    | Some job ->
      Atomic.decr h.h_queued;
      Mutex.unlock h.h_lock;
      job ();
      Atomic.incr h.h_finished;
      Mutex.lock h.h_done_lock;
      Condition.signal h.h_done_cond;
      Mutex.unlock h.h_done_lock;
      loop ()
  in
  loop ()

(* Make every finished offload's caller runnable, oldest first. *)
let collect_done h =
  let finished = Atomic.get h.h_finished in
  while st.collected < finished do
    st.collected <- st.collected + 1;
    push_cont (Queue.take st.inflight)
  done

(* Queue [job] on the run's helper, spawning it first if need be. *)
let submit job =
  let h =
    match st.helper with
    | Some (h, _) -> h
    | None ->
      let h =
        {
          h_jobs = Queue.create ();
          h_queued = Atomic.make 0;
          h_lock = Mutex.create ();
          h_cond = Condition.create ();
          h_stop = Atomic.make false;
          h_finished = Atomic.make 0;
          h_done_lock = Mutex.create ();
          h_done_cond = Condition.create ();
        }
      in
      st.collected <- 0;
      st.offloading <- true;
      st.helper <-
        Some
          ( h,
            Domain.spawn (fun () ->
                Domain.DLS.set on_helper true;
                helper_loop h) );
      h
  in
  Mutex.lock h.h_lock;
  Queue.push job h.h_jobs;
  Atomic.incr h.h_queued;
  Condition.signal h.h_cond;
  Mutex.unlock h.h_lock

(* [f] runs under a handler of its own, which answers [home]'s [Migrate]
   on the helper by stopping [f] there and handing its continuation back.
   The caller then finishes [f] itself, on the run's domain: [f]'s
   further effects pass this handler by and reach the caller's thread's,
   as if [f] had been called inline. *)
let offload f =
  if not st.live then raise Not_running;
  home ();
  let outcome = ref Pending in
  let handler =
    {
      retc = (fun v -> outcome := Done v);
      exnc = (fun e -> outcome := Failed (e, Printexc.get_raw_backtrace ()));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Migrate ->
            Some (fun (k : (a, unit) continuation) -> outcome := Moved k)
          | _ -> None);
    }
  in
  perform
    (Suspend
       (Some
          (fun k ->
            submit (fun () -> match_with f () handler);
            Queue.push k st.inflight;
            st.offloads <- st.offloads + 1)));
  let rec result () =
    match !outcome with
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Moved k ->
      outcome := Pending;
      continue k ();
      result ()
    | Pending -> assert false
  in
  result ()

(* Nothing is runnable and an offload is outstanding: wait for it, without
   touching the clock. *)
let await_done h =
  let ready () = Atomic.get h.h_finished > st.collected in
  if not (spin ready) then begin
    Mutex.lock h.h_done_lock;
    while not (ready ()) do
      Condition.wait h.h_done_cond h.h_done_lock
    done;
    Mutex.unlock h.h_done_lock
  end;
  collect_done h

(* Join the helper once the jobs already queued have run; the resumptions
   of callers that will never resume are dropped. *)
let join_helper () =
  match st.helper with
  | None -> ()
  | Some (h, d) ->
    Mutex.lock h.h_lock;
    Atomic.set h.h_stop true;
    Condition.signal h.h_cond;
    Mutex.unlock h.h_lock;
    Domain.join d;
    st.helper <- None;
    Queue.clear st.inflight

(* The scheduler's state is process-global, so [run] claims it first with
   one compare-and-set: a second [run], nested or on another domain, is
   refused before it touches [st]. [st.live] mirrors the claim for the hot
   [running] checks. [at_end] runs once the run is quiescent, before the
   claim is released. *)
let claimed = Atomic.make false

let run_until_quiet ?(policy = Fifo) ?(max_switches = max_int) ~at_end main =
  if not (Atomic.compare_and_set claimed false true) then raise Already_running;
  let finish () =
    st.live <- false;
    join_helper ();
    st.offloading <- false;
    Probe.clear ();
    Pool.clear st.pool;
    Atomic.set claimed false
  in
  let rec loop () =
    (match st.helper with
    | Some (h, _) when not (Queue.is_empty st.inflight) -> collect_done h
    | Some _ | None -> ());
    if Pool.length st.pool > 0 then begin
      let idx = pick (st.switches + 1) in
      if st.recording then st.decisions <- idx :: st.decisions;
      st.switches <- st.switches + 1;
      if st.switches > max_switches then
        raise (Stuck (Printf.sprintf "exceeded %d context switches" max_switches));
      (match !Probe.current with
      | None -> ()
      | Some p -> p.on_switch st.switches);
      Pool.run_take st.pool idx;
      loop ()
    end
    else
      match st.helper with
      | Some (h, _) when not (Queue.is_empty st.inflight) ->
        await_done h;
        loop ()
      | Some _ | None -> (
        match Pqueue.pop_min st.timers with
        | Some ((time, _), k, rest) ->
          st.timers <- rest;
          if time > st.clock then st.clock <- time;
          push_cont k;
          loop ()
        | None -> ())
  in
  Fun.protect ~finally:finish (fun () ->
      reset ();
      set_policy policy;
      st.live <- true;
      st.spawned <- 1;
      (* the main thread *)
      push_thunk (fun () -> exec main);
      loop ();
      at_end ())

let run ?policy ?max_switches main =
  run_until_quiet ?policy ?max_switches ~at_end:ignore main

(* Name the threads still parked on channels so a deadlock (e.g. from
   bounded-mailbox backpressure) is diagnosable, not just detectable. *)
let stuck_detail = function
  | [] -> "main thread blocked forever"
  | sites ->
    let shown = 8 in
    let listed = List.filteri (fun i _ -> i < shown) sites in
    let suffix =
      let n = List.length sites in
      if n > shown then Printf.sprintf ", ... (%d more)" (n - shown) else ""
    in
    Printf.sprintf "main thread blocked forever; %d thread(s) still waiting: %s%s"
      (List.length sites)
      (String.concat ", " listed)
      suffix

let run_value ?policy ?max_switches main =
  let result = ref None and sites = ref [] in
  (* The blocked sites are read while this run still holds the scheduler,
     so another run cannot have reset them. *)
  run_until_quiet ?policy ?max_switches
    ~at_end:(fun () -> if !result = None then sites := blocked_sites ())
    (fun () -> result := Some (main ()));
  match !result with
  | Some v -> v
  | None -> raise (Stuck (stuck_detail !sites))
