(** One live instance of a shared compiled plan.

    A session is the serving layer's unit of isolation: the
    {!Elm_core.Compile.plan} (op arrays, slot layout, reachability) is
    shared read-only across every session of one graph shape, while
    everything a session mutates — its arena, pending-value queues,
    counters, change history — is its own. Opening a session is ~an array
    copy; no threads, mailboxes or channels are created, and two sessions
    can never observe each other's [foldp] state because no mutable word
    is reachable from both.

    Sessions are driven synchronously by a {!Dispatcher}, which owns the
    ready queue and the virtual delay heap; use that module to open, route
    and drain. The functions marked {e dispatcher protocol} below are the
    seam between the two and are not meant for application code. *)

module Signal = Elm_core.Signal
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Compile = Elm_core.Compile
module Exec = Elm_core.Exec
module Runtime = Elm_core.Runtime
module Upgrade = Elm_core.Upgrade

exception Queue_full
(** Raised by [Dispatcher.inject] when the target input's bounded queue is
    full (see [queue_capacity]). *)

type 'a t

type 'a env = {
  env_fire : 'a t -> source:int -> unit;
      (** An async boundary fired inside the session: register a fresh
          event for [source] on the dispatcher's ready queue. *)
  env_delay : 'a t -> node:int -> slot:int -> seconds:float -> Obj.t -> unit;
      (** A delay boundary fired: schedule the value for [slot] of the
          session on the dispatcher's virtual delay heap, waking [node]
          [seconds] later. *)
}
(** The session's view of its dispatcher: how boundary re-entries get back
    into the event stream, carrying the session itself. *)

(** {1 Lifecycle} *)

val open_session :
  sid:int ->
  env:'a env ->
  ?tracer:Trace.t ->
  ?on_node_error:Runtime.error_policy ->
  ?queue_capacity:int ->
  ?history:int ->
  'a Signal.t ->
  'a t
(** Open a fresh session of the graph rooted at the given (built, already
    fused if desired) signal, against the cached plan ({!Compile.plan_of}).
    [queue_capacity] bounds each {e input}'s pending-value queue (async and
    delay queues stay unbounded — their producers run on the session's own
    step path). [history] caps the retained change log as in
    [Runtime.start]. *)

val clone : sid:int -> 'a t -> 'a t
(** Snapshot a {e quiescent} session ([is_idle] true): arena, current
    value, change history and counters are copied; fresh empty queues.
    Every arena slot is plain data ({!Compile.clone_arena}), so the clone
    continues exactly as its parent would, fused plan or not. Raises
    [Invalid_argument] if the session is closed or has in-flight events
    (there is no consistent cut through a half-dispatched event). *)

val close : 'a t -> unit
(** Mark the session closed and drop its queued values. Subsequent routed
    events are ignored; [offer] raises. *)

(** {1 State} *)

val id : 'a t -> int
val current : 'a t -> 'a

val changes : 'a t -> (int * 'a) list
(** Changes of the root, oldest first, stamped with the session-local
    epoch. Two sessions fed the same per-source event sequence produce
    bit-identical change lists — the B17 isolation oracle. *)

val stats : 'a t -> Stats.t
val epoch : 'a t -> int

val pending : 'a t -> int
(** Events routed to this session and not yet stepped. *)

val pending_delays : 'a t -> int
(** Values waiting in the dispatcher's delay heap for this session. *)

val dropped : 'a t -> int
(** Injections refused because a bounded input queue was full. *)

val closed : 'a t -> bool

val is_idle : 'a t -> bool
(** No pending events and no pending delays: the session is exactly the
    contents of its arena (clonable, and its footprint is stable). *)

val footprint_words : 'a t -> int
(** Heap words reachable from the session's mutable parts (arena, queues,
    history, counters) — the marginal memory of one more session; the
    shared plan is not included. *)

val pp_stats : Format.formatter -> 'a t -> unit
(** The session's counters prefixed with its id (["s3: events=..."]), so
    many sessions can report through one sink without colliding rows. *)

(** {1 Dispatcher protocol}

    Called by {!Dispatcher}; applications route through it instead. *)

val offer : 'a t -> 'i Signal.t -> 'i -> bool
(** Queue an external value for the given input node. Returns [false] (and
    counts a drop) when the input's bounded queue is full. Raises
    [Invalid_argument] if the node is not an input of the session's plan
    or the session is closed. The caller is responsible for routing the
    matching ready-queue entry {e after} a [true] return. *)

val deliver_delayed : 'a t -> slot:int -> Obj.t -> unit
(** A delayed value coming due: park it in the delay node's queue; the
    dispatcher routes the wake. *)

val mark_pending : 'a t -> unit
val mark_pending_delay : 'a t -> unit

val drop_pending_delay : 'a t -> unit
(** A delay-heap entry discarded across an upgrade (its delay node was
    detached): the matching future delivery will never happen, so the
    pending counter comes down here. *)

val upgrade :
  ?stale_map:bool ->
  ?skip_migration:bool ->
  ?leak_mailbox:bool ->
  'a t ->
  Upgrade.patch ->
  unit
(** Swap the session onto the patch's new plan: remap the arena
    ({!Upgrade.remap}), rebuild queues and the execution context against
    the new slot layout, transfer pending values queued on matched source
    slots, move inbox wakes to their matched sources' new ids (wakes of
    detached sources are released with their pending counters),
    re-register trace rows under the new id stride. The change
    history, stats and epoch numbering persist. Called by
    [Dispatcher.upgrade_all] between event waves; the flags plant the
    mutation-catalogue upgrade bugs and are not for applications. *)

val wake_push : 'a t -> int -> unit
(** Append a source-id wake to the session's inbox — the per-session
    restriction of the dispatcher's FIFO. Touched by the coordinator
    between rounds, or by the one task that takes the session's wakes;
    never concurrently. *)

val has_wakes : 'a t -> bool

val step_wakes : 'a t -> int
(** Take every inbox wake and run each to completion on the session's
    {!Exec} instance ({!Exec.step}: epoch, counters, the source's
    schedule), buffering its boundary effects for {!flush}.
    Closed sessions consume their wakes without effect. Returns the
    number of wakes taken. *)

val flush : 'a t -> unit
(** Apply the session's buffered boundary effects ({!Exec.flush}): async
    fires and delays go to the dispatcher through the session's {!env}.
    (Displays are not buffered: the session's lane writes the change
    history directly.) *)

