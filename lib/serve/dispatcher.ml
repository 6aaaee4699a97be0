(* Multi-session event routing over one shared compiled plan.

   The dispatcher is the serving counterpart of the runtime's global event
   dispatcher (Fig. 11), generalised by a session id: external events are
   routed [(session, source)] and dispatched strictly in arrival order, so
   per-source ordering within a session is the global FIFO order restricted
   to that session — the paper's ordering guarantee, per session. Async and
   delay boundaries re-enter through the same queue, which relaxes ordering
   between a session's async subgraph and its synchronous part exactly as
   the single-session runtime does, while two different sessions never
   synchronise on anything at all.

   Fig. 11's dispatcher is one algorithm over many instances, and so is
   this one: the plan, the configuration (policy, capacity, tracer,
   history cap) and the boundary wiring — one [Exec] hooks record, called
   with the session as its context — exist once here, and a session is a
   row (see Row): its instance, change log, inbox and counters. The
   session protocol (open, clone, close, route, step, flush, upgrade) is
   this module's own; Session only reads rows.

   A wake is one item, its source and its value, from the moment it is
   admitted — an injection, an async re-entry, a due delay — to the op
   that writes the value: it waits in its session's inbox (the
   per-session restriction of the FIFO) and becomes one [Exec.step].
   The ready FIFO holds session references, not ids: a session joins it
   when its inbox was empty, so routing and draining never look a
   session up by id.

   The rows sit in one table in id order, which is opening order: ids
   only grow, so opening appends. A closed row stays as a hole until the
   holes number as many as the live rows, or until the next whole-table
   walk ([upgrade_all], [accounting]); either squeezes them out in place.
   Every walk thus goes through the sessions in the order they were
   opened, and the table holds at most twice the live rows.

   Delays use a virtual clock: the one Delay_heap of every path orders
   (due time, emitting epoch, delay node) and [drain] advances [now] to
   each due time once the ready queue is empty — the runtimes' timer
   semantics, without running a scheduler. Everything here is synchronous and
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
module Delay_heap = Elm_core.Delay_heap

(* The virtual clock: the due time of the latest delay delivered. *)
type clock = { mutable now : float }

type 'a t = {
  mutable d_root : 'a Signal.t;
      (* the (possibly fused) graph all sessions run; [upgrade_all] swaps
         it together with the plan between event waves *)
  mutable d_plan : Compile.plan;
  d_fuse : bool;  (* replayed on the replacement graph at upgrade *)
  d_hooks : 'a Row.t Exec.hooks;  (* every session's boundary wiring *)
  mutable d_rows : 'a Row.t array;
      (* rows [0, d_count) in id order, live ones and holes; the slots
         after them are [spare] *)
  mutable d_count : int;
  d_ready : 'a Row.t Queue.t;
      (* sessions with inbox wakes, in the order their first wake came *)
  d_delays : 'a Row.t Delay_heap.t;  (* each entry's context: its session *)
  d_clock : clock;  (* advanced by drain *)
  d_tracer : Trace.t option;
  d_policy : Runtime.error_policy;
  d_capacity : int option;  (* bounds each session's inbox, for injections *)
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

(* Route one wake with its value: into the session's inbox, and the
   session onto the ready FIFO if the inbox was empty. *)
let route ready (s : _ Row.t) source value =
  if Queue.is_empty s.r_inbox then Queue.push s ready;
  Queue.push (source, value) s.r_inbox

(* The sessions' boundary hooks, one record per dispatcher: a session's
   flush hands itself to them as the context. Both run coordinator-side,
   after a round's tasks have finished, so they touch the ready FIFO and
   the heap from one domain only. Displays never reach them — a session's
   lane writes its change log directly (see Row) — and sessions have no
   observer. *)
let hooks ready delays clock =
  {
    Exec.fire =
      (fun (s : _ Row.t) source v -> if not s.r_closed then route ready s source v);
    delay =
      (fun s ~node ~epoch ~seconds v ->
        if not s.r_closed then begin
          s.r_pending_delays <- s.r_pending_delays + 1;
          Delay_heap.push delays ~due:(clock.now +. seconds) ~epoch ~node s v
        end);
    display = (fun _ ~epoch:_ ~changed:_ _ -> ());
    observe = (fun _ ~node:_ ~epoch:_ ~changed:_ -> ());
  }

let create ?tracer ?(on_node_error = Runtime.Propagate) ?queue_capacity
    ?history ?(fuse = true) ?pool root =
  (match queue_capacity with
  | Some n when n < 1 ->
    invalid_arg "Serve.Dispatcher.create: queue_capacity must be >= 1"
  | _ -> ());
  (match history with
  | Some n when n < 0 -> invalid_arg "Serve.Dispatcher.create: negative history"
  | _ -> ());
  let root = if fuse then Fuse.fuse_cached root else root in
  let ready = Queue.create ()
  and delays = Delay_heap.create ()
  and clock = { now = 0.0 } in
  {
    d_root = root;
    d_plan = Compile.plan_of root;
    d_fuse = fuse;
    d_hooks = hooks ready delays clock;
    d_rows = [||];
    d_count = 0;
    d_ready = ready;
    d_delays = delays;
    d_clock = clock;
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
let now d = d.d_clock.now
let pool d = d.d_pool
let domain_stats d = d.d_domain_stats

(* Lifecycle writes the rows a drain is stepping (an upgrade, every row's
   instance); nothing in a drain can legitimately call these (it runs no
   user code), so a violation is a programming error. *)
let check_not_draining d what =
  if d.d_draining then
    invalid_arg (Printf.sprintf "Serve.Dispatcher.%s: drain running" what)

(* A spare slot of the row table: never read (every read is below
   [d_count]), and an immediate, so it keeps no closed row alive. *)
let spare () : _ Row.t = Obj.magic 0

let live d = d.d_opened - d.d_closed

(* A whole-table walk: [f] visits the live rows in id order while the
   holes are squeezed out in place. Each live row swaps places with the
   first hole before it, so if [f] raises, the table still holds every
   row once, the live ones in id order. *)
let walk d f =
  let rows = d.d_rows and n = ref 0 in
  for i = 0 to d.d_count - 1 do
    let s = rows.(i) in
    if not s.Row.r_closed then begin
      rows.(i) <- rows.(!n);
      rows.(!n) <- s;
      incr n;
      f s
    end
  done;
  Array.fill rows !n (d.d_count - !n) (spare ());
  d.d_count <- !n

(* A row with inbox wakes (re)joins the ready FIFO. *)
let requeue d (s : _ Row.t) =
  if not (Queue.is_empty s.r_inbox) then Queue.push s d.d_ready

(* A session's instance of [pl]: trace rows offset by its id, displays
   written straight to its sink, everything else the dispatcher's. (The
   display closure is written out rather than a partial application of
   [Row.display], which would also reach that function's static closure
   and so count it in the session's footprint.) *)
let make_exec d ~sid ~stats ~sink ~epoch pl arena =
  Exec.create ?tracer:d.d_tracer
    ~offset:(sid * Compile.id_stride pl)
    ?label:(Option.map (fun _ -> Printf.sprintf "s%d:" sid) d.d_tracer)
    ~display:(fun ~epoch ~changed v -> Row.display sink ~epoch ~changed v)
    ~policy:d.d_policy ~stats ~epoch pl arena

(* Shared by [open_session] and [clone]: a new row, appended. *)
let add_row d ~stats ~sink ~arena ~epoch pl =
  let sid = d.d_next_sid in
  d.d_next_sid <- sid + 1;
  let s =
    {
      Row.r_id = sid;
      r_exec = make_exec d ~sid ~stats ~sink ~epoch pl arena;
      r_sink = sink;
      r_inbox = Queue.create ();
      r_pending_delays = 0;
      r_dropped = 0;
      r_closed = false;
    }
  in
  if d.d_count = Array.length d.d_rows then
    d.d_rows <- Array.append d.d_rows (Array.make (max 16 d.d_count) (spare ()));
  d.d_rows.(d.d_count) <- s;
  d.d_count <- d.d_count + 1;
  d.d_opened <- d.d_opened + 1;
  s

let open_session d =
  check_not_draining d "open_session";
  let latest = Signal.default d.d_root in
  let sink = { Runtime.latest; rev = []; count = 0; cap = d.d_history } in
  add_row d ~stats:(Stats.create ()) ~sink
    ~arena:(Compile.new_arena d.d_plan) ~epoch:0 d.d_plan

(* Cloning snapshots a quiescent session: with nothing pending, every
   value/stamp/state word of the instance lives in the arena (the inbox
   is empty and the dispatcher holds nothing for it), so [clone_arena]
   captures the whole observable state. In-flight events would live half in
   the dispatcher's queues and half in the arena — there is no consistent
   cut — hence the idleness requirement. *)
let clone d (src : _ Row.t) =
  check_not_draining d "clone";
  if src.r_closed then invalid_arg "Serve.Dispatcher.clone: session is closed";
  if not (Session.is_idle src) then
    invalid_arg "Serve.Dispatcher.clone: session has in-flight events";
  let x = src.r_exec in
  add_row d
    ~stats:(Stats.copy (Exec.stats x))
    ~sink:{ src.r_sink with latest = src.r_sink.latest }
    ~arena:(Compile.clone_arena (Exec.arena x))
    ~epoch:(Exec.epoch x) (Exec.plan x)

let close d (s : _ Row.t) =
  check_not_draining d "close";
  if not s.r_closed then begin
    s.r_closed <- true;
    (* Drop queued wakes, so a closed session pins no event payloads. *)
    Queue.clear s.r_inbox;
    d.d_closed <- d.d_closed + 1;
    if d.d_count - live d >= live d then walk d ignore
  end

(* One accepted injection = one inbox wake = exactly one future step. The
   capacity bounds the inbox (every wake waiting, whatever its source),
   but only external injections are refused: async and delay re-entries
   come from the session's own step path, where refusing one could
   deadlock a drain. *)
let try_inject : type i. 'a t -> 'a Row.t -> i Signal.t -> i -> bool =
 fun d s input v ->
  if s.r_closed then invalid_arg "Serve.Dispatcher: session is closed";
  let id = Signal.id input in
  let sl = Compile.slot d.d_plan id in
  (match Signal.kind input with
  | Signal.Input when sl >= 0 -> ()
  | Signal.Input ->
    invalid_arg
      (Printf.sprintf "Serve.Dispatcher: %s (node %d) is not part of this plan"
         (Signal.name input) id)
  | _ ->
    invalid_arg
      (Printf.sprintf "Serve.Dispatcher: %s (node %d) is not an input"
         (Signal.name input) id));
  match d.d_capacity with
  | Some cap when Queue.length s.r_inbox >= cap ->
    s.r_dropped <- s.r_dropped + 1;
    false
  | _ ->
    route d.d_ready s id (Obj.repr v);
    d.d_routed <- d.d_routed + 1;
    true

let inject d s input v =
  if not (try_inject d s input v) then raise Session.Queue_full

(* ------------------------------------------------------------------ *)
(* Live upgrade.

   Admission is wave-boundary only: [check_not_draining] rejects an
   upgrade while pool workers are stepping, and the synchronous drains
   never call out to user code between steps, so every session's arena is
   a consistent cut when we get here. Pending work survives: inbox wakes,
   each with its value, move in [upgrade_row], and the delay heap is
   rewritten below under the patch's node map — an upgrade drops no
   accepted event unless its source was detached with the subgraph that
   owned it (the wake goes, and with it the session's pending count).

   The shared plan cache is invalidated and reseeded: the old root's plan
   entry and its fusion memo are dead the moment sessions stop serving
   it, and a stale fusion memo would keep resolving future [fuse_cached]
   calls on that graph to the pre-upgrade composite (both memos share the
   cache generation that [Compile.clear_plan_cache] bumps). *)

(* Swap one live session onto the patch's plan, between event waves.
   Matched slots carry value/stamp (via the patch's migrations), attached
   slots seed from defaults. Inbox wakes keep their order and their values
   under their new source ids; wakes of detached sources are dropped. *)
let upgrade_row d ?mutate patch (s : _ Row.t) =
  let old = s.r_exec in
  s.r_exec <-
    make_exec d ~sid:s.r_id ~stats:(Exec.stats old) ~sink:s.r_sink
      ~epoch:(Exec.epoch old) (Upgrade.new_plan patch)
      (Upgrade.remap ?mutate patch (Exec.arena old));
  let wakes = Queue.copy s.r_inbox in
  Queue.clear s.r_inbox;
  (* The planted Leak_seam_mailbox bug: the inbox is forgotten, wakes and
     values together, so events accepted before the upgrade are never
     dispatched and the replayed trace diverges. *)
  match mutate with
  | Some (Upgrade.Leak_seam_mailbox _) -> ()
  | Some (Stale_slot_map _ | Skip_migration _) | None ->
    Queue.iter
      (fun (src, v) ->
        match Upgrade.node_of_old patch src with
        | Some src' -> Queue.push (src', v) s.r_inbox
        | None -> ())
      wakes

let upgrade_all ?migrate ?mutate d new_root =
  check_not_draining d "upgrade_all";
  d.d_upgrades <- d.d_upgrades + 1;
  (* The planted bug lands on its nth upgrade only. *)
  let mutate =
    match mutate with
    | Some (Upgrade.Stale_slot_map n | Skip_migration n | Leak_seam_mailbox n)
      when n = d.d_upgrades ->
      mutate
    | Some _ | None -> None
  in
  Compile.clear_plan_cache ();
  let new_root = if d.d_fuse then Fuse.fuse_cached new_root else new_root in
  let new_plan = Compile.plan_of new_root in
  let patch = Upgrade.diff ?migrate d.d_plan new_plan in
  (* Each row's new instance and arena are built in id order, so they lie
     in memory in the order later drains step them. The same walk
     rebuilds the ready FIFO from the rows with inbox wakes: only the
     order within one session is observable, and an inbox the upgrade
     emptied (every wake's source detached) leaves the FIFO, so the
     session's next wake queues it once again rather than twice. *)
  Queue.clear d.d_ready;
  walk d (fun s ->
      upgrade_row d ?mutate patch s;
      requeue d s);
  (* Delay heap: rewritten under the new node ids. In-flight values of
     detached delay nodes are released with their pending counters. (A
     drain runs to quiescence unless a node's exception aborts it, so the
     heap is empty at every upgrade point but that one.) *)
  Delay_heap.remap d.d_delays (fun (s : _ Row.t) node ->
      let node' = Upgrade.node_of_old patch node in
      if node' = None && not s.r_closed then
        s.r_pending_delays <- s.r_pending_delays - 1;
      node');
  d.d_root <- new_root;
  d.d_plan <- new_plan;
  patch

let upgrades d = d.d_upgrades

(* ------------------------------------------------------------------ *)
(* Drain.

   One drain is a sequence of rounds. A round takes the sessions on the
   ready FIFO, takes every wake in their inboxes, runs the resulting work,
   then flushes each session's buffered boundary effects coordinator-side:
   async re-entries land in inboxes again and their sessions on the ready
   FIFO (the next round), delays in the heap. Once a round finds nothing
   ready, the earliest due delays are delivered — all heap entries at the
   minimum due time, at most one per session — and the next round starts.

   Only the per-session restriction of the FIFO is observable (sessions
   share no mutable state), and every placement realises the same one:
   a session's wakes are taken in arrival order, its re-entries queue
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

(* Deliver the earliest batch of due delays (see above) into session
   inboxes, advancing the virtual clock. Called only when every inbox is
   empty, so an inbox holding a wake marks a session already served this
   batch: its next entry stays in the heap, and everything behind it with
   it. A batch of closed sessions' entries delivers nothing: go on. *)
let rec deliver_due_delays d =
  let h = d.d_delays in
  let due = Delay_heap.min_due h in
  if due < infinity then begin
    if due > d.d_clock.now then d.d_clock.now <- due;
    let rec collect () =
      if Delay_heap.min_due h = due then begin
        let s = Delay_heap.top h in
        if s.r_closed || Queue.is_empty s.r_inbox then begin
          if not s.r_closed then s.r_pending_delays <- s.r_pending_delays - 1;
          (* A due delay re-enters as an async fire does. *)
          Delay_heap.pop h d.d_hooks.fire;
          collect ()
        end
      end
    in
    collect ();
    if Queue.is_empty d.d_ready then deliver_due_delays d
  end

(* Take every inbox wake of a session and run it at once on its instance's
   sequential lane ([Exec.step]), buffering boundary effects for [flush].
   A closed session still on the ready FIFO has an empty inbox ([close]
   cleared it). Returns the number taken. *)
let step_wakes (s : _ Row.t) =
  let n = Queue.length s.r_inbox in
  while not (Queue.is_empty s.r_inbox) do
    let source, value = Queue.pop s.r_inbox in
    Exec.step s.r_exec ~source ~value
  done;
  n

(* Apply a session's buffered async/delay re-entries, with the session as
   the hooks' context. *)
let flush d (s : _ Row.t) = Exec.flush s.r_exec d.d_hooks s

(* Never written: [add_delta ~after:no_counters] subtracts. *)
let no_counters = Stats.create ()

(* Run one round's work on the dispatcher's placement; returns the number
   of wakes taken. A pool task bills its session's step to the worker's
   slot as (after - before) without a snapshot: the slot gives up the
   session's counters before the step and takes them back after. *)
let run_round d ~seed runnable =
  match d.d_pool with
  | None -> Queue.fold (fun n s -> n + step_wakes s) 0 runnable
  | Some pool ->
    let taken = Atomic.make 0 in
    Pool.run ~seed pool
      (Array.of_seq
         (Seq.map
            (fun (s : _ Row.t) w ->
              let ds = d.d_domain_stats.(w) and st = Exec.stats s.r_exec in
              Stats.add_delta ds ~before:st ~after:no_counters;
              ignore (Atomic.fetch_and_add taken (step_wakes s));
              Stats.merge ds st)
            (Queue.to_seq runnable)));
    Atomic.get taken

let drain ?(seed = 0) d =
  check_not_draining d "drain";
  (match d.d_pool with
  | Some p -> ensure_domain_stats d (Pool.domains p)
  | None -> ());
  let runnable = Queue.create () in
  let rec rounds i taken =
    if Queue.is_empty d.d_ready then deliver_due_delays d;
    if Queue.is_empty d.d_ready then taken
    else begin
      Queue.transfer d.d_ready runnable;
      let n = run_round d ~seed:(seed + i) runnable in
      Queue.iter (flush d) runnable;
      Queue.clear runnable;
      rounds (i + 1) (taken + n)
    end
  in
  d.d_draining <- true;
  match rounds 0 0 with
  | taken ->
    d.d_draining <- false;
    taken
  | exception e ->
    (* A node's exception (Propagate) aborts the round. Its sessions keep
       the wakes they did not take, back on the ready FIFO, and hand over
       what their finished steps buffered, so a later drain goes on where
       this one stopped. *)
    Queue.iter (requeue d) runnable;
    Queue.iter (flush d) runnable;
    d.d_draining <- false;
    raise e

let accounting d =
  let idle = ref 0 and pend = ref 0 and pendd = ref 0 in
  walk d (fun s ->
      if Session.is_idle s then incr idle;
      pend := !pend + Queue.length s.Row.r_inbox;
      pendd := !pendd + s.Row.r_pending_delays);
  {
    live = live d;
    opened = d.d_opened;
    closed = d.d_closed;
    routed = d.d_routed;
    idle = !idle;
    pending_events = !pend;
    pending_delays = !pendd;
  }

let pp_accounting ppf a =
  Format.fprintf ppf
    "live=%d opened=%d closed=%d routed=%d idle=%d pending=%d delays=%d"
    a.live a.opened a.closed a.routed a.idle a.pending_events a.pending_delays
