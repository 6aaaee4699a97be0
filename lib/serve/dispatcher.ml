(* Multi-session event routing over one shared compiled plan.

   The dispatcher is the serving counterpart of the runtime's global event
   dispatcher (Fig. 11), generalised by a session id: external events are
   routed [(session, source)] and dispatched strictly in arrival order, so
   per-source ordering within a session is the global FIFO order restricted
   to that session — the paper's ordering guarantee, per session. Async and
   delay boundaries re-enter through the same queue (via [Session.env]),
   which relaxes ordering between a session's async subgraph and its
   synchronous part exactly as the single-session runtime does, while two
   different sessions never synchronise on anything at all.

   Delays use a virtual clock: the heap orders (due time, sequence) and
   [drain] advances [now] to each due time once the ready queue is empty —
   the same deterministic timer semantics as the Cml scheduler's wheel,
   without running a scheduler. Everything here is synchronous and
   single-threaded; no Cml.run is needed, which is what lets felmc serve
   sessions (and the benches churn 10k of them) from plain code. *)

module Signal = Elm_core.Signal
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Fuse = Elm_core.Fuse
module Compile = Elm_core.Compile
module Runtime = Elm_core.Runtime
module Upgrade = Elm_core.Upgrade
module Exec = Elm_core.Exec
module Pool = Elm_core.Pool
module Pqueue = Cml.Pqueue

type delayed = {
  dl_sid : int;
  dl_node : int;  (* the delay node to wake *)
  dl_slot : int;  (* its value slot *)
  dl_value : Obj.t;
}

type 'a t = {
  mutable d_root : 'a Signal.t;
      (* the (possibly fused) graph all sessions run; [upgrade_all] swaps
         it together with the plan between event waves *)
  mutable d_plan : Compile.plan;
  d_fuse : bool;  (* replayed on the replacement graph at upgrade *)
  d_env : Session.env;
  d_sessions : (int, 'a Session.t) Hashtbl.t;
  d_ready : (int * int) Queue.t;  (* (session id, source id), FIFO *)
  d_delays : ((float * int), delayed) Pqueue.t ref;
  d_now : float ref;  (* virtual clock, advanced by drain *)
  d_tracer : Trace.t option;
  d_policy : Runtime.error_policy;
  d_capacity : int option;
  d_history : int option;
  d_pool : Pool.t option;  (* present: [drain] fans out over domains *)
  mutable d_draining : bool;  (* lifecycle is frozen while [drain] runs *)
  mutable d_domain_stats : Stats.t array;
      (* per-worker-slot accumulators, grown lazily to the pool width *)
  mutable d_next_sid : int;
  mutable d_opened : int;
  mutable d_closed : int;
  mutable d_routed : int;  (* external injections accepted *)
  mutable d_upgrades : int;  (* upgrade_all calls: the mutation occurrence *)
}

type accounting = {
  live : int;
  opened : int;
  closed : int;
  routed : int;
  idle : int;
  pending_events : int;
  pending_delays : int;
}

let create ?tracer ?(on_node_error = Runtime.Propagate) ?queue_capacity
    ?history ?(fuse = true) ?pool root =
  let root = if fuse then Fuse.fuse_cached root else root in
  let plan = Compile.plan_of root in
  let sessions = Hashtbl.create 64 in
  let ready = Queue.create () in
  let delays =
    ref (Pqueue.empty ~compare:(fun (a : float * int) b -> compare a b))
  in
  let seq = ref 0 in  (* tie-break: equal due times stay FIFO *)
  let now = ref 0.0 in
  (* Both hooks run coordinator-side, from [Session.flush] after a round's
     tasks have finished, so they touch the shared queue and heap from one
     domain only. *)
  let env =
    {
      Session.env_fire =
        (fun ~sid ~source ->
          match Hashtbl.find_opt sessions sid with
          | Some s when not (Session.closed s) ->
            Session.mark_pending s;
            Queue.push (sid, source) ready
          | Some _ | None -> ());
      env_delay =
        (fun ~sid ~node ~slot ~seconds v ->
          match Hashtbl.find_opt sessions sid with
          | Some s when not (Session.closed s) ->
            Session.mark_pending_delay s;
            incr seq;
            delays :=
              Pqueue.insert !delays
                (!now +. seconds, !seq)
                { dl_sid = sid; dl_node = node; dl_slot = slot; dl_value = v }
          | Some _ | None -> ());
    }
  in
  {
    d_root = root;
    d_plan = plan;
    d_fuse = fuse;
    d_env = env;
    d_sessions = sessions;
    d_ready = ready;
    d_delays = delays;
    d_now = now;
    d_tracer = tracer;
    d_policy = on_node_error;
    d_capacity = queue_capacity;
    d_history = history;
    d_pool = pool;
    d_draining = false;
    d_domain_stats = [||];
    d_next_sid = 0;
    d_opened = 0;
    d_closed = 0;
    d_routed = 0;
    d_upgrades = 0;
  }

let root d = d.d_root
let plan d = d.d_plan
let now d = !(d.d_now)
let pool d = d.d_pool
let domain_stats d = d.d_domain_stats

let fresh_sid d =
  let sid = d.d_next_sid in
  d.d_next_sid <- sid + 1;
  sid

(* Lifecycle mutates the sessions table, which a drain reads throughout;
   nothing in a drain can legitimately call these (it runs no user code),
   so a violation is a programming error. *)
let check_not_draining d what =
  if d.d_draining then
    invalid_arg (Printf.sprintf "Serve.Dispatcher.%s: drain running" what)

let open_session d =
  check_not_draining d "open_session";
  let sid = fresh_sid d in
  let s =
    Session.open_session ~sid ~env:d.d_env ?tracer:d.d_tracer
      ~on_node_error:d.d_policy ?queue_capacity:d.d_capacity
      ?history:d.d_history d.d_root
  in
  Hashtbl.replace d.d_sessions sid s;
  d.d_opened <- d.d_opened + 1;
  s

let clone d src =
  check_not_draining d "clone";
  let sid = fresh_sid d in
  let s = Session.clone ~sid src in
  Hashtbl.replace d.d_sessions sid s;
  d.d_opened <- d.d_opened + 1;
  s

let close d s =
  check_not_draining d "close";
  if not (Session.closed s) then begin
    Session.close s;
    Hashtbl.remove d.d_sessions (Session.id s);
    d.d_closed <- d.d_closed + 1
  end

let find d sid = Hashtbl.find_opt d.d_sessions sid

(* Value first, routing second: the step pops the value its ready-queue
   entry promised. One accepted injection = exactly one future [step]. *)
let try_inject d s input v =
  if Session.offer s input v then begin
    Session.mark_pending s;
    Queue.push (Session.id s, Signal.id input) d.d_ready;
    d.d_routed <- d.d_routed + 1;
    true
  end
  else false

let inject d s input v =
  if not (try_inject d s input v) then raise Session.Queue_full

(* ------------------------------------------------------------------ *)
(* Live upgrade.

   Admission is wave-boundary only: [check_not_draining] rejects an
   upgrade while pool workers are stepping, and the synchronous drains
   never call out to user code between steps, so every session's arena is
   a consistent cut when we get here. Pending work survives: queued input
   values transfer inside [Session.upgrade], and the global ready queue
   and delay heap are rewritten below under the patch's node map — an
   upgrade drops no accepted event unless its source was detached with
   the subgraph that owned it (in which case the matching pending
   counters come down, keeping the accounting invariant exact).

   The shared plan cache is invalidated and reseeded: the old root's plan
   entry and its fusion memo are dead the moment sessions stop serving
   it, and a stale fusion memo would keep resolving future [fuse_cached]
   calls on that graph to the pre-upgrade composite (both memos share the
   cache generation that [Compile.clear_plan_cache] bumps). *)

let upgrade_all ?migrate ?mutate d new_root =
  check_not_draining d "upgrade_all";
  d.d_upgrades <- d.d_upgrades + 1;
  let occ = d.d_upgrades in
  let planted spec =
    match (mutate : Runtime.mutation option) with
    | Some m when m = spec occ -> true
    | _ -> false
  in
  let stale_map = planted (fun n -> Runtime.Stale_slot_map n) in
  let skip_migration = planted (fun n -> Runtime.Skip_migration n) in
  let leak_mailbox = planted (fun n -> Runtime.Leak_seam_mailbox n) in
  Compile.clear_plan_cache ();
  let new_root = if d.d_fuse then Fuse.fuse_cached new_root else new_root in
  let new_plan = Compile.plan_of new_root in
  let patch = Upgrade.diff ?migrate d.d_plan new_plan in
  Hashtbl.iter
    (fun _ s -> Session.upgrade ~stale_map ~skip_migration ~leak_mailbox s patch)
    d.d_sessions;
  (* Ready queue: matched sources keep their FIFO positions under their
     new node ids; wakes of detached sources are dropped with their
     pending counters. *)
  let entries = List.of_seq (Queue.to_seq d.d_ready) in
  Queue.clear d.d_ready;
  List.iter
    (fun (sid, src) ->
      match Upgrade.node_of_old patch src with
      | Some src' -> Queue.push (sid, src') d.d_ready
      | None -> (
        match find d sid with
        | Some s -> Session.drop_pending s
        | None -> ()))
    entries;
  (* Delay heap: rebuilt under new node/slot ids, preserving (due, seq)
     keys so virtual-time order is unchanged. In-flight values of
     detached delay nodes are released with their pending counters.
     (The drains run to quiescence, so the heap is empty at every legal
     upgrade point today; the remap is kept exact anyway for any future
     partial-drain mode.) *)
  let rec drain_heap acc =
    match Pqueue.pop_min !(d.d_delays) with
    | None -> List.rev acc
    | Some (key, dl, rest) ->
      d.d_delays := rest;
      drain_heap ((key, dl) :: acc)
  in
  List.iter
    (fun (key, dl) ->
      match Upgrade.node_of_old patch dl.dl_node with
      | Some node' ->
        let slot' =
          (* a matched node's slot is matched with it *)
          match Upgrade.new_slot_of_old patch dl.dl_slot with
          | Some sl -> sl
          | None -> assert false
        in
        d.d_delays :=
          Pqueue.insert !(d.d_delays) key
            { dl with dl_node = node'; dl_slot = slot' }
      | None -> (
        match find d dl.dl_sid with
        | Some s -> Session.drop_pending_delay s
        | None -> ()))
    (drain_heap []);
  d.d_root <- new_root;
  d.d_plan <- new_plan;
  patch

let upgrades d = d.d_upgrades

(* ------------------------------------------------------------------ *)
(* Drain.

   One drain is a sequence of rounds. A round deals the ready FIFO into
   per-session inboxes, takes every dealt wake, runs the resulting work,
   then flushes each session's buffered boundary effects coordinator-side:
   async re-entries land at the tail of the ready FIFO (the next round),
   delays in the heap. Once a round finds nothing ready, the earliest due
   delays are delivered — all heap entries at the minimum due time, at
   most one per session — and the next round starts.

   Only the per-session restriction of the FIFO is observable (sessions
   share no mutable state), and every placement realises the same one:
   a session's wakes are taken in dealt order, its re-entries queue
   behind them, and a second same-due delay of one session waits for the
   round after, where a one-event-at-a-time drain would also have run
   everything the first one caused before popping it. The placement
   follows from the dispatcher's [pool]: without one each runnable
   session steps its wakes inline, with one each runnable session is one
   task (pinned to one domain for the round).

   Per-session traces are therefore bit-identical for every placement,
   seed and domain count — the serve tests and bench B18 gate exactly
   this. *)

let ensure_domain_stats d n =
  if Array.length d.d_domain_stats < n then
    d.d_domain_stats <-
      Array.init n (fun i ->
          if i < Array.length d.d_domain_stats then d.d_domain_stats.(i)
          else Stats.create ())

(* Deal the ready FIFO into per-session inboxes, returning the sessions
   that became runnable in first-seen order (deterministic: depends only
   on queue contents). *)
let deal d =
  let runnable = ref [] in
  while not (Queue.is_empty d.d_ready) do
    let sid, source = Queue.pop d.d_ready in
    match find d sid with
    | Some s ->
      if not (Session.has_wakes s) then runnable := s :: !runnable;
      Session.wake_push s source
    | None -> ()
  done;
  List.rev !runnable

(* Deliver the earliest batch of due delays (see above) into session
   inboxes, advancing the virtual clock; returns the sessions made
   runnable, in heap order. Called only when every inbox is empty, so an
   inbox holding a wake marks a session already served this batch: its
   next entry stays in the heap, and everything behind it with it. *)
let rec deliver_due_delays d =
  match Pqueue.min !(d.d_delays) with
  | None -> []
  | Some ((due, _), _) ->
    if due > !(d.d_now) then d.d_now := due;
    let rec collect acc =
      match Pqueue.pop_min !(d.d_delays) with
      | Some ((due', _), dl, rest) when due' = due -> (
        match find d dl.dl_sid with
        | Some s when Session.has_wakes s -> acc
        | found -> (
          d.d_delays := rest;
          match found with
          | Some s ->
            Session.deliver_delayed s ~slot:dl.dl_slot dl.dl_value;
            Session.mark_pending s;
            Session.wake_push s dl.dl_node;
            collect (s :: acc)
          | None -> collect acc))
      | Some _ | None -> acc
    in
    (* a batch of closed sessions' entries delivers nothing: go on *)
    match collect [] with [] -> deliver_due_delays d | batch -> List.rev batch

(* Run one round's work on the dispatcher's placement; returns the number
   of wakes taken. *)
let run_round d ~seed runnable =
  match d.d_pool with
  | None -> List.fold_left (fun n s -> n + Session.step_wakes s) 0 runnable
  | Some pool ->
    let taken = Atomic.make 0 in
    Pool.run ~seed pool
      (Array.of_list
         (List.map
            (fun s w ->
              let before = Stats.copy (Session.stats s) in
              ignore (Atomic.fetch_and_add taken (Session.step_wakes s));
              Stats.add_delta d.d_domain_stats.(w) ~before
                ~after:(Session.stats s))
            runnable));
    Atomic.get taken

let drain ?(seed = 0) d =
  check_not_draining d "drain";
  (match d.d_pool with
  | Some p -> ensure_domain_stats d (Pool.domains p)
  | None -> ());
  let rec rounds i taken = function
    | [] -> (
      match deliver_due_delays d with
      | [] -> taken
      | next -> rounds (i + 1) taken next)
    | runnable ->
      let n = run_round d ~seed:(seed + i) runnable in
      List.iter Session.flush runnable;
      rounds (i + 1) (taken + n) (deal d)
  in
  d.d_draining <- true;
  match rounds 0 0 (deal d) with
  | taken ->
    d.d_draining <- false;
    taken
  | exception e ->
    d.d_draining <- false;
    raise e

let accounting d =
  let idle = ref 0 and pend = ref 0 and pendd = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      if Session.is_idle s then incr idle;
      pend := !pend + Session.pending s;
      pendd := !pendd + Session.pending_delays s)
    d.d_sessions;
  {
    live = Hashtbl.length d.d_sessions;
    opened = d.d_opened;
    closed = d.d_closed;
    routed = d.d_routed;
    idle = !idle;
    pending_events = !pend;
    pending_delays = !pendd;
  }

let iter_sessions d f = Hashtbl.iter (fun _ s -> f s) d.d_sessions

let pp_accounting ppf a =
  Format.fprintf ppf
    "live=%d opened=%d closed=%d routed=%d idle=%d pending=%d delays=%d"
    a.live a.opened a.closed a.routed a.idle a.pending_events a.pending_delays
