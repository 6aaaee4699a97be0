(** The one executor for a compiled plan instance.

    An [Exec.t] is one running instance of a {!Compile.plan} over one
    arena: its epoch counter, its counters and its failure handlers. It
    implements the paper's Fig. 11 dispatch step once for every compiled
    execution: [Runtime.start ~backend:Compiled] and every serving
    session.

    A wake is a source and its value, and it stays one item: the
    {!Compile.round} it becomes carries the value to the source member
    that writes it. A wake is taken in three phases. {!step} or {!admit}
    assigns the epoch, looks up the source's {!Compile.schedule} and
    bills every per-event counter it determines (messages included).
    Epochs follow the order of those calls, made on whatever thread
    raises the event ([Runtime.inject], an async fire or a due delay
    applied through the {!hooks}, a serving dispatcher's drain): no queue
    of the executor's own orders them. A hook may admit while {!flush} or
    {!step_lane} applies effects. The schedule lies in one region, or has
    one part per region it touches when [async] branches read the source
    ({!Compile.schedule}), and its ops then run on a {e lane}: a
    {!Compile.exec} record, plain data over the instance's arena with its
    own counters, failure handlers and effect queue. The whole schedule
    runs at once on the instance's sequential lane ({!step}), a split
    source's parts one after the other in region order; otherwise each
    part is queued as a round on its region's lane — one lane per region
    — in one of two placements: {e waves} ([admit ~waves:true]), whose
    active lanes {!run_lanes} runs inline or as one flat {!Pool.run}
    batch, or {e lanes}, one caller thread per region taking one round at
    a time ({!step_lane}). An instance uses one placement.

    Running never performs a boundary effect: ops append async fires and
    delay schedules (each with its value), displays and observed
    emissions to their lane's effect queue as {!Compile.effect}s. They
    are applied to the caller's {!hooks}, with the caller's context: by
    {!flush} in admission epoch order, the order a one-event-at-a-time
    dispatcher would have produced whatever ran where (which is why a
    wave's lanes need no order among themselves),
    or by {!step_lane} right after their round. Only displays may bypass
    the queue, into a [~display] sink given at {!create}. *)

type error_policy =
  | Propagate  (** A raising node function aborts the run (the default). *)
  | Isolate
      (** The failing round emits [No_change] of the last good value;
          counted in {!Stats.t.node_failures}. *)
  | Restart of int
      (** Like [Isolate], and the first [n] failures per node also
          re-initialise its state ([foldp] accumulator, composite step),
          counted in {!Stats.t.node_restarts}. *)
(** Per-node supervision; re-exported as [Runtime.error_policy]. *)

val handler :
  policy:error_policy ->
  stats:Stats.t ->
  tracer:Trace.t option ->
  node:int ->
  Compile.handler
(** The failure handler of one node (trace id [node]): under [Propagate]
    it re-raises the user's exception unchanged (with its backtrace);
    otherwise it bills the failure (and a restart) into [stats] and
    answers whether to re-seed the node's state. Create one per node: a
    [Restart] budget lives in the returned closure. Every backend takes
    its handlers from here; under [Propagate] an instance's lanes share
    the plan's {!Compile.propagate_handlers}. *)

type t

val create :
  ?tracer:Trace.t ->
  ?offset:int ->
  ?label:string ->
  ?observe:bool ->
  ?display:(epoch:int -> changed:bool -> Obj.t -> unit) ->
  policy:error_policy ->
  stats:Stats.t ->
  epoch:int ->
  Compile.plan ->
  Compile.arena ->
  t
(** An instance over [arena], numbering its next wake [epoch + 1] and
    billing [stats]. [offset] is added to
    node ids in trace rows and [label] prefixes the region rows' names
    (registered with [tracer] here). [observe] buffers one
    {!hooks.observe} call per node emission.
    [display], when given, receives the root's emissions directly from
    the lane that runs the root's region instead of through {!flush}
    (after the tracer's display row, when traced): it must be safe to
    call from that lane's domain (a per-instance log, say). Opening an
    instance builds the sequential lane's record; region lanes are built
    by the first {!admit}. *)

val plan : t -> Compile.plan
val arena : t -> Compile.arena
val stats : t -> Stats.t

val epoch : t -> int
(** The epoch of the last admitted wake. *)

val step : t -> source:int -> value:Obj.t -> unit
(** Admit one wake of [source] carrying its new [value] and run its
    schedule at once on the sequential lane. *)

val admit :
  t -> waves:bool -> source:int -> value:Obj.t -> wake:(int -> unit) -> unit
(** Admit one wake of [source] carrying [value], queue its round on the
    lane of each region it touches and call [wake i] with each such
    region's index (not at all for a source that wakes no region).
    [waves] picks the placement, which the first admission fixes: waves,
    whose lanes {!run_lanes} runs, or lanes, each stepped by
    {!step_lane} on the caller's domain and billing {!stats} directly. *)

val run_lanes : ?pool:Pool.t -> ?seed:int -> t -> dstats:Stats.t array -> unit
(** Run every lane's admitted rounds, each lane's in epoch order: as one
    {!Pool.run} batch on [pool] ([seed] picks its deal) when several
    lanes are active, otherwise inline. Lanes share no mutable word and
    effects wait for {!flush}, so the order is unobservable. A lane's
    counters are also added to [dstats] at the index of the worker that
    ran it (0 inline). *)

type 'c hooks = {
  fire : 'c -> int -> Obj.t -> unit;
      (** An async boundary fired: a new event for it, with its value. *)
  delay : 'c -> node:int -> epoch:int -> seconds:float -> Obj.t -> unit;
      (** A delay boundary fired at [epoch]: register an event for [node],
          with the value, [seconds] later (a {!Delay_heap} entry). *)
  display : 'c -> epoch:int -> changed:bool -> Obj.t -> unit;
      (** The root's emission for one round that reached it (unless the
          instance has a [~display] sink). *)
  observe : 'c -> node:int -> epoch:int -> changed:bool -> unit;
      (** One node emission (only with [~observe:true]). *)
}
(** Where {!flush} sends the boundary effects. Every call gets the context
    the caller passed to {!flush} or {!step_lane}, so one hooks record
    serves any number of instances: a serving dispatcher builds one and
    passes each session as the context. *)

val step_lane : t -> int -> 'c hooks -> 'c -> unit
(** [step_lane x i hooks c] runs the oldest round {!admit} queued on
    region [i]'s lane, then applies that round's effects to [hooks] as {!flush}
    would, so a display or an async fire leaves as soon as its region ran.
    Lanes need no {!flush}.

    The offload rule: on a host with more than one core
    ([Domain.recommended_domain_count]), a region of an untraced instance
    that holds no display times its first 8 rounds on the monotonic
    clock. If the cheapest took more than 20 us, each later round runs
    through [Cml.Scheduler.offload], on the enclosing run's helper domain:
    only the lane's thread waits, the other lanes keep running, and the
    round's effects and counters are applied here once it returns. A
    region stays inline for good once a round of it uses Cml: a timed
    round that switched Cml threads (a [Cml.sleep] in a lift), so
    virtual-time programs keep their deterministic schedules, or an
    offloaded round that [Cml.Scheduler.home] moved back to the run's
    domain to finish there. Such a region's lane bills scratch counters,
    merged into {!stats} after every round. Call it from a thread of
    [Cml.run].
    @raise Queue.Empty if region [i] has no admitted round. *)

val flush : t -> 'c hooks -> 'c -> unit
(** [flush x hooks c] applies every buffered effect to [hooks] with
    context [c] (async fires also bill
    {!Stats.t.async_events}, displays the tracer's display row), in
    admission epoch order; merge the region lanes' counters into
    {!stats}. *)

val private_words : t -> Obj.t -> int
(** [private_words x v]: the heap words reachable from [v] (which may
    reach [x]) that the instance does not share — everything but what its
    plan, tracer and error policy reach. A serving session's footprint. *)
