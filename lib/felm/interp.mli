(** Stage two: running extracted signal graphs on the concurrent runtime.

    This is the executable form of the paper's Fig. 10 translation: each
    {!Sgraph} node becomes an {!Elm_core.Signal} node (one thread, one
    output channel), the program's inputs become injectable sources, and a
    {!Trace} plays the external environment on the virtual clock. *)

type outcome = {
  displays : (float * Value.t) list;
      (** Every change shown by the display loop, with virtual times. *)
  final : Value.t;  (** Last displayed value (or the pure result). *)
  stats : Elm_core.Stats.t option;  (** [None] for non-reactive programs. *)
  skipped_events : int;
      (** Trace events naming inputs the program never uses. *)
}

val build_signals :
  Program.t -> Sgraph.t -> (int, Value.t Elm_core.Signal.t) Hashtbl.t
(** Instantiate the extracted graph as engine signal nodes (every [lift]
    becomes {!Elm_core.Signal.lift_list}), keyed by {!Sgraph} node id.
    Exposed so tools (e.g. [felmc graph --fused]) can inspect or render the
    signal graph without running it. *)

val run :
  ?policy:Cml.Scheduler.policy ->
  ?backend:Elm_core.Runtime.backend ->
  ?mode:Elm_core.Runtime.mode ->
  ?memoize:bool ->
  ?tracer:Elm_core.Trace.t ->
  ?fuse:bool ->
  ?on_node_error:Elm_core.Runtime.error_policy ->
  ?queue_capacity:int ->
  ?domains:int ->
  Program.t ->
  trace:Trace.event list ->
  outcome
(** Type-check is the caller's responsibility; ill-typed programs may raise
    {!Denote.Error}. For a program whose [main] is a simple value, the
    trace is ignored and [displays] is empty. [tracer] is handed to
    {!Elm_core.Runtime.start} (note the two unrelated "trace"s: [~trace]
    is the replayed input events, [?tracer] records the execution), and so
    are [fuse] — interpreted graphs fuse their [lift] chains by default like
    native ones — [on_node_error] (node supervision policy) and
    [queue_capacity] (bounded wake/value mailboxes). [backend] selects the
    runtime execution strategy ({!Elm_core.Runtime.backend}; [felmc run]
    defaults to [Compiled], this API to [Pipelined]). [policy] selects the
    scheduler's interleaving strategy (default {!Cml.Scheduler.Fifo});
    [Seeded_random] / [Pct] replay the schedules the exploration harness
    prints (see [felmc run --sched-seed]). [domains] runs the compiled
    backend in parallel waves
    ([Runtime.start ~domains]; [felmc run --domains=K]). *)

val run_graph :
  ?policy:Cml.Scheduler.policy ->
  ?backend:Elm_core.Runtime.backend ->
  ?mode:Elm_core.Runtime.mode ->
  ?memoize:bool ->
  ?tracer:Elm_core.Trace.t ->
  ?fuse:bool ->
  ?on_node_error:Elm_core.Runtime.error_policy ->
  ?queue_capacity:int ->
  ?domains:int ->
  Program.t ->
  Sgraph.t ->
  Value.t ->
  trace:Trace.event list ->
  outcome
(** Run an already-extracted graph (e.g. one produced by the small-step
    path, {!Eval.normalize} + {!Denote.graph_of_final}). Freezes the
    graph. *)

val run_source :
  ?policy:Cml.Scheduler.policy ->
  ?backend:Elm_core.Runtime.backend ->
  ?mode:Elm_core.Runtime.mode ->
  ?fuse:bool ->
  ?on_node_error:Elm_core.Runtime.error_policy ->
  ?queue_capacity:int ->
  ?domains:int ->
  string ->
  trace:string ->
  outcome
(** Convenience: parse, resolve, type-check and run from source text. *)
