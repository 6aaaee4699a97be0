(* One live instance of a shared compiled plan.

   A session is the serving layer's unit of isolation: the plan (op arrays,
   slot layout, reachability — see Compile) is shared read-only across
   every session of one graph shape; everything a session mutates lives in
   its own arena, its own pending-value queues and its own counters.
   Opening a session is therefore ~an array copy, and two sessions can
   never observe each other's foldp state because no mutable word is
   reachable from both.

   Sessions are fully synchronous: no threads, no mailboxes, no Cml
   scheduler. All execution is the session's [Exec] instance; the session
   adds what serving needs around it: the display sink, the wake inbox the
   dispatcher routes into, lifecycle counters and live upgrade. Async taps
   re-enter through the dispatcher's ready queue ([env_fire]) and delay
   taps through its virtual delay heap ([env_delay]), preserving the
   paper's boundary semantics: order is maintained within the synchronous
   part and within each async subgraph, but not between them. *)

module Signal = Elm_core.Signal
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Compile = Elm_core.Compile
module Exec = Elm_core.Exec
module Runtime = Elm_core.Runtime
module Upgrade = Elm_core.Upgrade

exception Queue_full

type 'a sink = {
  mutable k_current : 'a;
  mutable k_rev_changes : (int * 'a) list;  (* (epoch, value), newest first *)
  mutable k_n_changes : int;
  k_history : int option;
}

(* Boundary re-entries go back to the dispatcher with the session itself,
   so routing them needs no lookup by id. *)
type 'a env = {
  env_fire : 'a t -> source:int -> unit;
  env_delay : 'a t -> node:int -> slot:int -> seconds:float -> Obj.t -> unit;
}

(* [s_exec] is mutable for exactly one writer: [upgrade], which swaps a
   session onto a new plan's instance between event waves. The sink,
   stats and epoch persist — an upgraded session keeps its history. *)
and 'a t = {
  s_id : int;
  s_env : 'a env;
  s_policy : Runtime.error_policy;
  mutable s_exec : Exec.t;
  s_capacity : int option;
  s_tracer : Trace.t option;
  s_sink : 'a sink;
  mutable s_hooks : Exec.hooks;
      (* set once by [build], right after the record exists: the hooks
         hand the session itself to [s_env] *)
  s_inbox : int Queue.t;
      (* source-id wakes routed to this session, in arrival order: the
         per-session restriction of the dispatcher's FIFO *)
  mutable s_pending : int;  (* routed events not yet stepped *)
  mutable s_pending_delays : int;  (* values in the dispatcher's heap *)
  mutable s_dropped : int;  (* injections refused by a full queue *)
  mutable s_closed : bool;
}

(* Bounded newest-first history, as in Runtime: capped at [2*cap]
   transiently and truncated back to [cap]. *)
let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let record_change k epoch v =
  k.k_current <- v;
  match k.k_history with
  | Some 0 -> ()
  | None ->
    k.k_rev_changes <- (epoch, v) :: k.k_rev_changes;
    k.k_n_changes <- k.k_n_changes + 1
  | Some cap ->
    if k.k_n_changes + 1 > 2 * cap then begin
      k.k_rev_changes <- take cap ((epoch, v) :: k.k_rev_changes);
      k.k_n_changes <- cap
    end
    else begin
      k.k_rev_changes <- (epoch, v) :: k.k_rev_changes;
      k.k_n_changes <- k.k_n_changes + 1
    end

(* The change log is written straight from the session's lane, on
   whichever domain runs the session's task: the sink is this session's
   alone, so there is a single writer whatever the placement. *)
let sink_display (type r) (sink : r sink) ~epoch ~changed v =
  if changed then record_change sink epoch (Obj.obj v : r)

(* The hooks a session starts with, until [build] ties its own to it (a
   recursive record definition would cost every open a dummy block and a
   copy). *)
let no_hooks =
  {
    Exec.fire = ignore;
    delay = (fun ~node:_ ~slot:_ ~seconds:_ _ -> ());
    display = (fun ~epoch:_ ~changed:_ _ -> ());
    observe = (fun ~node:_ ~epoch:_ ~changed:_ -> ());
  }

let make_exec ~sid ~policy ~tracer ~stats ~sink ~epoch pl arena =
  Exec.create ?tracer
    ~offset:(sid * Compile.id_stride pl)
    ?label:(Option.map (fun _ -> Printf.sprintf "s%d:" sid) tracer)
    ~display:(sink_display sink) ~policy ~stats ~epoch pl arena

(* Shared by [open_session] and [clone]: everything but the arena and the
   sink contents. *)
let build : type r.
    sid:int ->
    env:r env ->
    policy:Runtime.error_policy ->
    capacity:int option ->
    tracer:Trace.t option ->
    stats:Stats.t ->
    sink:r sink ->
    arena:Compile.arena ->
    epoch:int ->
    plan:Compile.plan ->
    r t =
 fun ~sid ~env ~policy ~capacity ~tracer ~stats ~sink ~arena ~epoch ~plan ->
  let s =
    {
      s_id = sid;
      s_env = env;
      s_policy = policy;
      s_exec = make_exec ~sid ~policy ~tracer ~stats ~sink ~epoch plan arena;
      s_capacity = capacity;
      s_tracer = tracer;
      s_sink = sink;
      s_hooks = no_hooks;
      s_inbox = Queue.create ();
      s_pending = 0;
      s_pending_delays = 0;
      s_dropped = 0;
      s_closed = false;
    }
  in
  s.s_hooks <-
    {
      no_hooks with
      Exec.fire = (fun source -> env.env_fire s ~source);
      delay =
        (fun ~node ~slot ~seconds v -> env.env_delay s ~node ~slot ~seconds v);
      display = sink_display sink;
    };
  s

let open_session ~sid ~env ?tracer ?(on_node_error = Runtime.Propagate)
    ?queue_capacity ?history root =
  (match queue_capacity with
  | Some n when n < 1 ->
    invalid_arg "Serve.Session.open_session: queue_capacity must be >= 1"
  | _ -> ());
  (match history with
  | Some n when n < 0 ->
    invalid_arg "Serve.Session.open_session: negative history"
  | _ -> ());
  let pl = Compile.plan_of root in
  let sink =
    {
      k_current = Signal.default root;
      k_rev_changes = [];
      k_n_changes = 0;
      k_history = history;
    }
  in
  build ~sid ~env ~policy:on_node_error ~capacity:queue_capacity ~tracer
    ~stats:(Stats.create ()) ~sink ~arena:(Compile.new_arena pl) ~epoch:0
    ~plan:pl

(* Cloning snapshots a quiescent session: with nothing pending, every
   value/stamp/state word of the instance lives in the arena (the queues
   are empty and the dispatcher holds nothing for it), so [clone_arena]
   captures the whole observable state. In-flight events would live half in
   the dispatcher's queues and half in the arena — there is no consistent
   cut — hence the idleness requirement. *)
let clone ~sid src =
  if src.s_closed then invalid_arg "Serve.Session.clone: session is closed";
  if src.s_pending > 0 || src.s_pending_delays > 0 then
    invalid_arg "Serve.Session.clone: session has in-flight events";
  (* a fresh (mutable) sink starting from the parent's contents *)
  let sink = { src.s_sink with k_current = src.s_sink.k_current } in
  let x = src.s_exec in
  build ~sid ~env:src.s_env ~policy:src.s_policy ~capacity:src.s_capacity
    ~tracer:src.s_tracer
    ~stats:(Stats.copy (Exec.stats x))
    ~sink
    ~arena:(Compile.clone_arena (Exec.arena x))
    ~epoch:(Exec.epoch x) ~plan:(Exec.plan x)

let close s =
  s.s_closed <- true;
  (* Drop queued values so a closed session pins no event payloads. *)
  Array.iter
    (function Some q -> Queue.clear q | None -> ())
    (Exec.queues s.s_exec)

(* Deliver an external value for [input]. The caller (Dispatcher.inject)
   routes the matching ready-queue entry; value first, routing second, so
   the step finds the value waiting — the same protocol as the runtime's
   input push. Returns [false] (and counts a drop) when the input's bounded
   queue is full. *)
let offer : type i. 'a t -> i Signal.t -> i -> bool =
 fun s input v ->
  if s.s_closed then invalid_arg "Serve.Session: session is closed";
  (match Signal.kind input with
  | Signal.Input -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Serve.Session: %s (node %d) is not an input"
         (Signal.name input) (Signal.id input)));
  match Compile.slot_of (Exec.plan s.s_exec) (Signal.id input) with
  | None ->
    invalid_arg
      (Printf.sprintf "Serve.Session: %s (node %d) is not part of this plan"
         (Signal.name input) (Signal.id input))
  | Some sl -> (
    let q = Exec.queue s.s_exec sl in
    match s.s_capacity with
    | Some cap when Exec.bounded s.s_exec sl && Queue.length q >= cap ->
      s.s_dropped <- s.s_dropped + 1;
      false
    | _ ->
      Queue.push (Obj.repr v) q;
      true)

(* Take every inbox wake and run it at once on the sequential lane
   ([Exec.step]). A closed session consumes its wakes without effect.
   Returns the number taken. *)
let step_wakes s =
  let n = Queue.length s.s_inbox in
  while not (Queue.is_empty s.s_inbox) do
    let source = Queue.pop s.s_inbox in
    s.s_pending <- s.s_pending - 1;
    if not s.s_closed then Exec.step s.s_exec ~source
  done;
  n

let flush s = Exec.flush s.s_exec s.s_hooks

(* A delayed value coming back from the dispatcher's heap: park it in the
   delay node's (unbounded) queue; the dispatcher routes the wake. *)
let deliver_delayed s ~slot v =
  s.s_pending_delays <- s.s_pending_delays - 1;
  if not s.s_closed then Exec.push s.s_exec slot v

(* Dispatcher bookkeeping hooks. *)
let mark_pending s = s.s_pending <- s.s_pending + 1
let mark_pending_delay s = s.s_pending_delays <- s.s_pending_delays + 1

(* An inbox wake / heap entry discarded across an upgrade (its source was
   detached): the matching future step/delivery will never happen, so the
   counter comes down here instead. *)
let drop_pending s = s.s_pending <- s.s_pending - 1
let drop_pending_delay s = s.s_pending_delays <- s.s_pending_delays - 1

(* Swap this session onto a new plan's layout. Called by
   [Dispatcher.upgrade_all] between event waves — never mid-step, so the
   arena is a consistent cut. Matched slots carry value/stamp (via the
   patch's migrations), attached slots seed from defaults, and pending
   values queued on matched source slots transfer to the new instance's
   queues (a transfer may transiently overfill a bounded queue; upgrades
   never drop accepted events). Inbox wakes keep their order under their
   new source ids; wakes of detached sources go with their pending
   counters. The sink, stats and epoch persist — an upgraded session keeps
   its change history and its epoch numbering. *)
let upgrade ?(stale_map = false) ?(skip_migration = false)
    ?(leak_mailbox = false) s patch =
  if not s.s_closed then begin
    let old = s.s_exec in
    let np = Upgrade.new_plan patch in
    let arena =
      Upgrade.remap ~stale_map ~skip_migration patch (Exec.arena old)
    in
    let x =
      make_exec ~sid:s.s_id ~policy:s.s_policy ~tracer:s.s_tracer
        ~stats:(Exec.stats old) ~sink:s.s_sink ~epoch:(Exec.epoch old) np
        arena
    in
    (* [leak_mailbox] is the planted Leak_seam_mailbox bug: the old seam
       mailboxes (pending-value queues) are forgotten instead of
       transferred, so the ready-queue entries the dispatcher remaps
       promise values that are no longer there — the next drain pops an
       empty queue and the no-deadlock oracle trips. *)
    if not leak_mailbox then
      Array.iteri
        (fun old_sl q ->
          match (q, Upgrade.new_slot_of_old patch old_sl) with
          | Some q, Some nsl when (Exec.queues x).(nsl) <> None ->
            Queue.transfer q (Exec.queue x nsl)
          | _ -> ())
        (Exec.queues old);
    s.s_exec <- x;
    let wakes = Queue.copy s.s_inbox in
    Queue.clear s.s_inbox;
    Queue.iter
      (fun src ->
        match Upgrade.node_of_old patch src with
        | Some src' -> Queue.push src' s.s_inbox
        | None -> drop_pending s)
      wakes
  end

let wake_push s source = Queue.push source s.s_inbox
let has_wakes s = not (Queue.is_empty s.s_inbox)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let id s = s.s_id
let current s = s.s_sink.k_current

let changes s =
  let l =
    match s.s_sink.k_history with
    | None -> s.s_sink.k_rev_changes
    | Some cap -> take cap s.s_sink.k_rev_changes
  in
  List.rev l

let stats s = Exec.stats s.s_exec
let epoch s = Exec.epoch s.s_exec
let pending s = s.s_pending
let pending_delays s = s.s_pending_delays
let dropped s = s.s_dropped
let closed s = s.s_closed
let is_idle s = s.s_pending = 0 && s.s_pending_delays = 0

let pp_stats ppf s = Stats.pp_labeled (Printf.sprintf "s%d" s.s_id) ppf (stats s)

(* The session's own memory: arena + queues + history + counters. The plan
   is deliberately not behind any of these roots, so the number
   approximates the marginal footprint of one more idle session. *)
let footprint_words s =
  Obj.reachable_words
    (Obj.repr
       ( Exec.arena s.s_exec,
         Exec.queues s.s_exec,
         s.s_sink.k_rev_changes,
         Exec.stats s.s_exec ))
