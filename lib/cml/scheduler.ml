open Effect
open Effect.Deep

type 'a cont = ('a, unit) continuation

type _ Effect.t += Suspend : ('a cont -> unit) -> 'a Effect.t

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
   arrival order of the remaining segments (the chaos policies). Backed by a
   sliding array: [head] is the index of the first live slot. *)

type item = {
  thunk : unit -> unit;
  mutable prio : float;
      (* Pct priority; drawn at push time so the random stream is a pure
         function of (seed, push sequence) and independent of pick order. *)
}

module Pool = struct
  type t = {
    mutable arr : item option array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { arr = Array.make 64 None; head = 0; len = 0 }
  let length p = p.len

  let clear p =
    Array.fill p.arr 0 (Array.length p.arr) None;
    p.head <- 0;
    p.len <- 0

  let push p it =
    (if p.head + p.len >= Array.length p.arr then begin
       (* Out of room on the right: slide back to 0, growing if the live
          region itself is close to capacity. *)
       let cap = Array.length p.arr in
       let newcap = if 2 * (p.len + 1) <= cap then cap else 2 * cap in
       let na = if newcap = cap then p.arr else Array.make newcap None in
       Array.blit p.arr p.head na 0 p.len;
       if na == p.arr then Array.fill na p.len p.head None;
       p.arr <- na;
       p.head <- 0
     end);
    p.arr.(p.head + p.len) <- Some it;
    p.len <- p.len + 1

  let get p i =
    match p.arr.(p.head + i) with
    | Some it -> it
    | None -> invalid_arg "Scheduler.Pool.get"

  (* Remove the [i]-th runnable; the others keep their relative order. *)
  let take p i =
    let it = get p i in
    if i = 0 then begin
      p.arr.(p.head) <- None;
      p.head <- p.head + 1
    end
    else begin
      Array.blit p.arr (p.head + i + 1) p.arr (p.head + i) (p.len - i - 1);
      p.arr.(p.head + p.len - 1) <- None
    end;
    p.len <- p.len - 1;
    if p.len = 0 then p.head <- 0;
    it
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
}

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
  }

let running () = st.live
let now () = st.clock
let spawned_count () = st.spawned
let switch_count () = st.switches
let decision_log () = List.rev st.decisions

(* Run one thread segment under the effect handler. A [Suspend f] effect
   stops the segment and hands the continuation to [f]; the segment also ends
   when the thread returns. *)
let exec (thunk : unit -> unit) : unit =
  match_with thunk ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend f -> Some (fun (k : (a, unit) continuation) -> f k)
          | _ -> None);
    }

let push_thunk thunk =
  let prio =
    match st.pstate with
    | P_pct p -> Random.State.float p.rng 1.0
    | P_fifo | P_random _ | P_replay _ -> 0.0
  in
  Pool.push st.pool { thunk; prio }

let spawn f =
  st.spawned <- st.spawned + 1;
  push_thunk (fun () -> exec f)

let suspend ?site f =
  if not st.live then raise Not_running;
  match site with
  | None ->
    (* Count anonymous suspensions so deadlock reports can still account for
       threads parked on unnamed channels. *)
    st.anon_blocked <- st.anon_blocked + 1;
    let v = perform (Suspend f) in
    st.anon_blocked <- st.anon_blocked - 1;
    v
  | Some s ->
    (* Register the wait site for the duration of the suspension: if the
       thread is never resumed, the entry survives and deadlock reports can
       say where it was parked. *)
    let token = st.blocked_seq in
    st.blocked_seq <- token + 1;
    Hashtbl.replace st.blocked token s;
    let v = perform (Suspend f) in
    Hashtbl.remove st.blocked token;
    v

let blocked_sites () =
  let named =
    Hashtbl.fold (fun token site acc -> (token, site) :: acc) st.blocked []
    |> List.sort compare |> List.map snd
  in
  named @ List.init (max 0 st.anon_blocked) (fun _ -> "<anonymous>")

let resume (k : 'a cont) (v : 'a) = push_thunk (fun () -> continue k v)
let yield () = suspend (fun k -> resume k ())

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
    if (Pool.get pool i).prio > (Pool.get pool !best).prio then best := i
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
      (Pool.get st.pool (best_prio_index st.pool)).prio <- p.floor
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
  st.anon_blocked <- 0

(* The scheduler's state is process-global, so [run] claims it first with
   one compare-and-set: a second [run], nested or on another domain, is
   refused before it touches [st]. [st.live] mirrors the claim for the hot
   [running] checks. *)
let claimed = Atomic.make false

let run ?(policy = Fifo) ?(max_switches = max_int) main =
  if not (Atomic.compare_and_set claimed false true) then raise Already_running;
  let finish () =
    st.live <- false;
    Probe.clear ();
    Pool.clear st.pool;
    Atomic.set claimed false
  in
  let rec loop () =
    if Pool.length st.pool > 0 then begin
      let idx = pick (st.switches + 1) in
      if st.recording then st.decisions <- idx :: st.decisions;
      let segment = (Pool.take st.pool idx).thunk in
      st.switches <- st.switches + 1;
      if st.switches > max_switches then
        raise (Stuck (Printf.sprintf "exceeded %d context switches" max_switches));
      (match !Probe.current with
      | None -> ()
      | Some p -> p.on_switch st.switches);
      segment ();
      loop ()
    end
    else
      match Pqueue.pop_min st.timers with
      | Some ((time, _), k, rest) ->
        st.timers <- rest;
        if time > st.clock then st.clock <- time;
        push_thunk (fun () -> continue k ());
        loop ()
      | None -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      reset ();
      set_policy policy;
      st.live <- true;
      st.spawned <- 1;
      (* the main thread *)
      push_thunk (fun () -> exec main);
      loop ())

let run_value ?policy ?max_switches main =
  let result = ref None in
  run ?policy ?max_switches (fun () -> result := Some (main ()));
  match !result with
  | Some v -> v
  | None ->
    (* Name the threads still parked on channels so a deadlock (e.g. from
       bounded-mailbox backpressure) is diagnosable, not just detectable. *)
    let detail =
      match blocked_sites () with
      | [] -> "main thread blocked forever"
      | sites ->
        let shown = 8 in
        let listed = List.filteri (fun i _ -> i < shown) sites in
        let suffix =
          let n = List.length sites in
          if n > shown then Printf.sprintf ", ... (%d more)" (n - shown) else ""
        in
        Printf.sprintf
          "main thread blocked forever; %d thread(s) still waiting: %s%s"
          (List.length sites)
          (String.concat ", " listed)
          suffix
    in
    raise (Stuck detail)
