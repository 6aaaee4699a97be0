(** Counters instrumenting a runtime instance.

    These back the paper's efficiency claims: push-based evaluation avoids
    needless recomputation (Sections 1-2), and [No_change] propagation is the
    memoization that makes this observable. [recomputations] counts the extra
    function applications performed when memoization is disabled (the
    pull-style baseline of experiment B3).

    Affected-cone dispatch (see {!Runtime.dispatch}) adds the second family
    of counters: [elided_messages] are the [No_change] node emissions a
    flooding dispatcher would have paid and the cone dispatcher compressed
    into epoch gaps, so [messages + elided_messages] always equals the flood
    total, and [notified_nodes] counts dispatcher wakeups actually sent. *)

type t = {
  mutable events : int;  (** Events dispatched by the global dispatcher. *)
  mutable messages : int;  (** Edge messages actually sent by node threads. *)
  mutable elided_messages : int;
      (** Flood-equivalent [No_change] emissions skipped by cone dispatch:
          per event, the nodes outside the affected cone. Invariant:
          [messages + elided_messages = node_count * events]. *)
  mutable notified_nodes : int;
      (** Wakeups delivered by the dispatcher (cone sizes summed over
          events; [node_count * events] under flood dispatch). *)
  mutable applications : int;
      (** Lifted-function applications triggered by a [Change]. *)
  mutable recomputations : int;
      (** Applications forced only by [memoize:false] (all-[No_change] rounds). *)
  mutable fold_steps : int;  (** [foldp] accumulator updates. *)
  mutable async_events : int;
      (** Events originating from [async] nodes: async re-entries only, on
          every path. A due [delay] value re-enters as an event too, but
          is not counted here. *)
  mutable switches : int;
      (** Scheduler context-switch count sampled at the last dispatched or
          displayed message; divide by [events] for switches per event. *)
  mutable fused_nodes : int;
      (** Nodes eliminated by the {!Fuse} pass before instantiation: set
          once at {!Runtime.start}. Invariant:
          [fused_nodes + node_count = original node count], and the elision
          invariant [messages + elided_messages = node_count * events] holds
          for the {e fused} node count. *)
  mutable compiled_regions : int;
      (** Synchronous regions instantiated by the {!Compile} backend: set
          once at {!Runtime.start}; 0 on pipelined runtimes. Per-node
          counters for region members are accounted through the region
          ([messages]/[elided_messages] still balance the elision
          invariant over the {e member} count, and the tracer reports one
          span per region step rather than stale zero rows per member). *)
  mutable region_steps : int;
      (** Region step-function executions (compiled backend): one per
          region wakeup, where the pipelined backend would have paid one
          thread wakeup {e per member node}. *)
  mutable node_failures : int;
      (** Exceptions caught inside node steps by the [Isolate]/[Restart]
          supervision policies (see {!Runtime.error_policy}); each failed
          round still emits a [No_change] of the node's last-good value, so
          the elision invariant is unaffected. Always 0 under [Propagate]. *)
  mutable node_restarts : int;
      (** Node re-initialisations performed by [Restart] (fresh [foldp]
          accumulator / composite step). Bounded by the policy's budget
          summed over failing nodes; at most [node_failures]. *)
}

val create : unit -> t

val pp : Format.formatter -> t -> unit
(** One line: every counter, then the [msg/ev] and [sw/ev] per-event ratios.
    Ratios print as [0.0] on an empty run (no division by zero). *)

val total_computations : t -> int
(** [applications + recomputations]: everything a pull system would pay. *)

val per_event : int -> t -> float
(** [per_event total s] is [total / events] (0 when no events). *)

val copy : t -> t
(** An independent snapshot: mutating the copy never touches the original.
    Used by [Serve.Dispatcher.clone] so a cloned session's counters
    continue from its parent's. *)

val merge : t -> t -> unit
(** [merge dst src] adds every counter of [src] into [dst]. Exact: all
    counters are sums of per-event increments, so per-domain accumulators
    merged into one equal a single-domain run's totals (and the elision
    invariant [messages + elided_messages = node_count * events] survives
    the merge). Counters stay plain ints — a session is pinned to one
    domain while being stepped, so instances are never mutated
    concurrently; merging afterwards is the whole multi-domain story. *)

val add_delta : t -> before:t -> after:t -> unit
(** [add_delta dst ~before ~after] adds [after - before], field-wise, into
    [dst]. [before] and [after] are {!copy} snapshots of the same live
    instance; the pool uses this to attribute a step's work to the domain
    that ran it without disturbing the session's own totals. *)

val pp_labeled : string -> Format.formatter -> t -> unit
(** [pp_labeled label] prints [label: <pp>]. Use one label per instance
    (e.g. ["s3"] for session 3) when several runtimes or sessions report
    through one sink, so their rows do not collide. *)
