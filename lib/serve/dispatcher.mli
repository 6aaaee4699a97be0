(** Multi-session event routing over one shared compiled plan.

    The serving counterpart of the runtime's global event dispatcher
    (Fig. 11), generalised by a session id: external events are routed
    [(session, source)] and dispatched strictly in arrival order, so
    per-source ordering {e within} a session is preserved while sessions
    never synchronise with each other. Async and delay boundaries re-enter
    through the same queue, relaxing ordering between a session's async
    subgraph and its synchronous part exactly as the single-session
    runtime does.

    It is one algorithm over many instances: the compiled plan, the
    options given to {!create} and the boundary wiring exist once per
    dispatcher, and each session is a row of it — its arena, counters,
    inbox and change log ({!Session} reads them). Opening, cloning,
    feeding, draining, upgrading and closing a session all go through
    this module. The rows sit in one table in id order, which is the
    order the sessions were opened, and every walk over all sessions
    ({!upgrade_all}, {!accounting}) goes in that order.

    A wake is one item, a source and its value, from the moment it is
    admitted (an injection, an async re-entry, a due delay) until the
    step that writes the value into the source's slot: it waits in its
    session's inbox, the per-session restriction of the FIFO. Nothing
    else holds a pending value.

    Everything is synchronous and single-threaded on a virtual clock —
    no [Cml.run] required:

    {[
      let d = Dispatcher.create root in
      let a = Dispatcher.open_session d in
      let b = Dispatcher.open_session d in
      Dispatcher.inject d a keyboard 'x';
      ignore (Dispatcher.drain d);
      assert (Session.current a <> Session.current b)  (* a moved, b did not *)
    ]} *)

module Signal = Elm_core.Signal
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Compile = Elm_core.Compile
module Runtime = Elm_core.Runtime
module Upgrade = Elm_core.Upgrade
module Pool = Elm_core.Pool

type 'a t

val create :
  ?tracer:Trace.t ->
  ?on_node_error:Runtime.error_policy ->
  ?queue_capacity:int ->
  ?history:int ->
  ?fuse:bool ->
  ?pool:Pool.t ->
  'a Signal.t ->
  'a t
(** Build (or fetch from the plan cache) the compiled plan for the graph
    rooted here and create an empty dispatcher over it. [fuse] (default
    true) runs {!Elm_core.Fuse.fuse_cached} first; {!clone} and
    {!upgrade_all} are exact either way. The options hold for every
    session of this dispatcher and are stored once, here:
    [on_node_error] supervises each session's nodes (a [Restart] budget
    is per session and node); [queue_capacity] bounds each session's
    inbox — every wake waiting there, whatever its source — against
    external injections only (an async or delay re-entry comes from the
    session's own step path and is never refused, since refusing it
    could deadlock a drain); [history] caps each
    session's retained change log as in [Runtime.start]. A shared
    [tracer] gets per-session node ids (offset by [Compile.id_stride]),
    so rows never collide. [pool] makes {!drain} run sessions
    concurrently. Raises [Invalid_argument] on a [queue_capacity] below 1
    or a negative [history]. *)

val root : 'a t -> 'a Signal.t
(** The graph all sessions run (after fusion, if enabled) — use its input
    nodes with {!inject}. *)

val plan : 'a t -> Compile.plan

(** {1 Session lifecycle} *)

val open_session : 'a t -> 'a Session.t
(** Open a fresh session at the graph's defaults: ~an array copy against
    the shared plan; no threads or channels. *)

val clone : 'a t -> 'a Session.t -> 'a Session.t
(** Snapshot a {e quiescent} session ({!Session.is_idle}) under a fresh
    id: arena, current value, change history and counters are copied;
    a fresh empty inbox. Every arena slot is plain data
    ({!Compile.clone_arena}), so the clone continues exactly as its
    parent would, fused plan or not. Raises [Invalid_argument] if the
    session is closed or has in-flight events (there is no consistent cut
    through a half-dispatched event). *)

val close : 'a t -> 'a Session.t -> unit
(** Close the session: the inbox is dropped, its wakes and their values
    together, so a closed session pins no event payload; later events for
    the session are ignored. The dispatcher may still hold the closed row
    itself for a while: it leaves a hole in the session table, squeezed
    out once the holes number as many as the open sessions, or at the next
    {!upgrade_all} or {!accounting}. *)

(** {1 Routing} *)

val inject : 'a t -> 'a Session.t -> 'i Signal.t -> 'i -> unit
(** Queue one external event for the given session and input node; it is
    dispatched by the next {!drain}, after everything already queued.
    Raises {!Session.Queue_full} when the session's bounded inbox is full,
    [Invalid_argument] if the node is not an input of the plan or the
    session is closed. *)

val try_inject : 'a t -> 'a Session.t -> 'i Signal.t -> 'i -> bool
(** Like {!inject} but returns [false] (counting a drop against the
    session) instead of raising on a full inbox. *)

val drain : ?seed:int -> 'a t -> int
(** Dispatch queued events until quiescence, advancing the virtual clock
    through due delayed values once nothing is ready. Returns the number
    of events dispatched.

    A drain runs in rounds: take the sessions on the ready FIFO (a wake
    waits in its session's inbox; the FIFO holds each session with wakes
    once, in the order of its first), run every inbox wake, then flush
    each session's buffered async/delay re-entries (they queue for the
    next round); when
    nothing is ready, deliver the earliest due delayed values — at most
    one per session, in heap order. Where the work runs follows from
    {!create}: inline without a pool, else one task per runnable session
    on the {!Pool} (a session's wakes are pinned to one domain). [seed]
    selects the pool's deal/steal schedule. Per-session change traces and
    counter totals are bit-identical for every placement, seed and domain
    count — the interleaving oracles in the test suite and bench B18
    check exactly this. Session lifecycle calls ([open_session]/[clone]/
    [close]/[upgrade_all]) are rejected while a drain is running. *)

(** {1 Live upgrade} *)

val upgrade_all :
  ?migrate:Upgrade.migration list ->
  ?mutate:Upgrade.mutation ->
  'a t ->
  'a Signal.t ->
  Upgrade.patch
(** Swap every live session onto the graph rooted at the replacement
    signal, between event waves. The replacement is fused iff the
    dispatcher was created with [~fuse:true], the shared plan cache (and
    the fusion memos with it) is invalidated and reseeded with the new
    plan, and the patch ({!Upgrade.diff} against the current plan, with
    the caller's [migrate] list) is applied to each session in id order —
    its arena remapped ({!Upgrade.remap}), its instance rebuilt against
    the new slot layout, its inbox wakes moved with their values to their
    matched sources' new ids, trace rows re-registered; its change
    history, counters and epoch numbering persist — then the delay heap's
    entries move to their matched new node ids. Wakes and delays of detached
    sources are released (and leave the pending counts with them), so
    the accounting stays exact and no accepted event of a surviving
    subgraph is dropped. An identity
    upgrade (structurally equal replacement, no migrations) is observably
    a no-op at any drain point.

    Admission is wave-boundary only: raises [Invalid_argument] during a
    drain; drains never run user code, so calling this between [drain]s
    always sees consistent arenas.

    [mutate] plants one of the upgrade bugs of the mutation-testing
    catalogue ({!Upgrade.mutation}); the occurrence [n] counts
    [upgrade_all] calls on this dispatcher. Not for applications. *)

val upgrades : 'a t -> int
(** Number of upgrades applied over this dispatcher's lifetime. *)

val pool : 'a t -> Pool.t option

val domain_stats : 'a t -> Stats.t array
(** Per-worker-slot counter accumulators: slot [w] holds the work executed
    by pool worker [w] across drains (attributed via
    {!Elm_core.Stats.add_delta} snapshots around each task). Merging all
    slots with {!Elm_core.Stats.merge} reproduces the sessions' event,
    message and elision totals. Empty until the first drain over a
    pool. *)

val now : 'a t -> float
(** The virtual clock: the due time of the latest delayed value
    delivered. *)

(** {1 Accounting} *)

type accounting = {
  live : int;  (** Currently open sessions. *)
  opened : int;  (** Sessions ever opened (including clones). *)
  closed : int;
  routed : int;  (** External injections accepted. *)
  idle : int;  (** Live sessions with nothing in flight. *)
  pending_events : int;  (** Routed events not yet dispatched. *)
  pending_delays : int;  (** Values waiting in the delay heap. *)
}

val accounting : 'a t -> accounting
val pp_accounting : Format.formatter -> accounting -> unit
