(** The compiled backend: synchronous regions as straight-line step
    functions, split into a shared {e plan} and per-instance {e arenas}.

    The paper isolates all asynchrony at explicit [async]/[delay]
    boundaries, so everything between two boundaries is a deterministic
    synchronous region. The pipelined backend (Fig. 10) interprets such a
    region as one cooperative thread per node and one multicast channel per
    edge; this module instead partitions the graph into maximal synchronous
    regions, topologically sorts each, and compiles it to a single op array:
    [foldp] accumulators become arena slots, [No_change] becomes a per-node
    dirty-bit skip, and fan-out/merge become plain sequential reads and
    writes. Async and delay boundaries re-enter as new events, so
    supervision and tracing see region-level spans.

    The compilation result is split in two so many concurrent instances can
    share one graph:

    - The {!plan} is the immutable per-graph-shape template: partitioning,
      topological order, op arrays, slot layout, defaults, reachability.
      Built once and cached ({!plan_of}, keyed on the built graph — pair it
      with {!Fuse.fuse_cached} so fused roots are stable).
    - The {!arena} is everything one instance owns: flat value/stamp/state
      blocks of plain data. {!new_arena} copies the plan's initial blocks;
      {!clone_arena} copies a running instance's, exactly.

    Ops close over slot {e indices}, never over cells, and receive the
    instance's {!exec} context on every run, so one plan drives any number
    of {!Exec} instances: [Runtime.start ~backend:Compiled] and every
    serving session. The context is plain data. A wake is one {!round}
    that carries its source's value from admission to the source member
    that writes it; everything a region does to the outside — async and
    delay re-entries (each with its value), observed emissions, the
    display — it reports as {!effect}s appended to one queue. This module
    holds the partitioning and the op compiler; {!Exec} owns dispatch,
    accounting, supervision and the effects' application.

    A region is also the unit of placement: {!Exec} runs each region on
    its own lane. A source's {!schedule} lies in one region, except where
    an [async] branch reads it: the branch is a region of its own with a
    shadow slot of the source, and a wake queues one round on each
    region it touches. *)

type round = {
  epoch : int;
  source : int;
  value : Obj.t;
      (** The source's new value: the woken source member writes it into
          its slot. Ignored by every other op. *)
}
(** One compiled wake: the epoch it was admitted as, the source it woke
    and that source's value, one item from admission to the op that reads
    it. *)

(** {1 Region partitioning} *)

type region = {
  rg_index : int;  (** Dense index, topological order of first member. *)
  rg_rep : int;
      (** Representative node id — the topologically last member (the
          region's output) — used as the region's id for tracing. *)
  rg_name : string;  (** The representative's name. *)
  rg_members : Signal.packed list;  (** Members in topological order. *)
  rg_member_ids : int list;
}

type plan
(** The compiled template for one graph shape: partitioning, slot layout,
    defaults, op arrays, reachability. Immutable and instance-free — any
    number of runtimes and sessions execute against one plan, each with its
    own {!arena}. *)

val plan : 'a Signal.t -> plan
(** Partition the graph rooted here into synchronous regions (union-find
    over dependency edges, cutting the edge into every [async]/[delay]
    node) and compile each region's op array. A runtime source does not
    glue a {e branch} into its class: a component of the class, joined to
    the rest only through sources, that holds no display and whose every
    async/delay boundary feeds back into the class — the work a display
    hands to [async] ([pair (lift f x) (async (lift slow x))]). A branch
    is a region of its own, with a shadow slot per source it reads from
    another region (see {!shadow_sources}). Pure;
    deterministic for a given graph (regions, members and ops ordered by
    the {!Signal.reachable} topological order). Prefer {!plan_of}, which
    caches the result per graph. *)

val plan_of : 'a Signal.t -> plan
(** [plan root], cached: memoised on the (built, immutable) graph's root
    node, so repeated instantiations of one graph shape — one per user
    session, say — pay the partition + compile cost once. A memoised plan
    stays the one canonical plan of its root, across domains, until
    {!clear_plan_cache}; it is reclaimed with the graph. *)

type cache_stats = {
  hits : int;
  misses : int;  (** Monotonic since process start, unlike [entries]. *)
  entries : int;  (** Plans memoised since the last {!clear_plan_cache}. *)
}

val plan_cache_stats : unit -> cache_stats

val clear_plan_cache : unit -> unit
(** Drop every cached plan (the hit/miss counters keep counting) {e and}
    the {!Fuse.fuse_cached} memos, by bumping the one generation both are
    stamped with — a fusion memo that outlived the plans would keep
    resolving to a fused root whose plan is gone, so every later lookup on
    that graph would miss (or serve a stale graph across a live upgrade).
    The next {!plan_of} per graph recompiles; results are bit-identical —
    plans carry no instance state. *)

val cache_generation : unit -> int
(** The current plan cache generation, bumped by {!clear_plan_cache}.
    {!Fuse.fuse_cached} stamps its memos with it. *)

val regions : plan -> region list
val region_of : plan -> int -> int option
val cuts : plan -> (int * int) list
(** [(inner, async)] dependency edges cut at async/delay boundaries: they
    carry no synchronous round, only dispatcher re-entries. *)

val reach : plan -> Reach.t
(** The reachability analysis computed while planning, shared so runtimes
    and sessions need not re-analyze the graph. *)

val node_count : plan -> int

val id_stride : plan -> int
(** [1 + max node id] of the planned graph: multiply by a session index to
    offset trace/stats node ids so per-session rows in a shared tracer
    never collide (see [Serve.Session]). *)

val sources : plan -> (int * string) list
(** Runtime sources (id, name), topological order. *)

val inputs : plan -> Signal.packed list
(** The graph's [Input] nodes, for wiring external injection. *)

val slot : plan -> int -> int
(** The arena slot assigned to a node id; [-1] when the node is not in the
    plan. Allocates nothing (an injection resolves its input with it). *)

val region_count : plan -> int

val region_rep : plan -> int -> int

(** The representative node id of region [i] (its trace row). *)

val root_region : plan -> int
(** The index of the region holding the root, whose rounds display. *)

val shadow_sources : plan -> int array
(** Shadow slot [node_count plan + k] copies slot [(shadow_sources plan).(k)]
    (a source's): a region that reads a source sitting in another region
    reads its own copy, written in its own round. An arena holds
    [node_count + Array.length shadow_sources] value and stamp slots. *)

val slot_ids : plan -> int array
(** Slot -> node id. The plan's own array — treat as read-only. *)

val slot_names : plan -> string array
(** Slot -> node name. The plan's own array — treat as read-only. *)

val slot_keys : plan -> string array
(** Slot -> structural key: kind + name + dependency keys in the
    deterministic topological order, occurrence-disambiguated for repeated
    identical subtrees. Two builds of the same program produce identical
    key arrays even though their node ids differ — this is the identity
    {!Upgrade.diff} matches slots on across plans. The plan's own array —
    treat as read-only. *)

val defaults : plan -> Obj.t array
(** Slot -> default value, as seeded into fresh arenas. The plan's own
    array — treat as read-only. *)

val state_count : plan -> int
(** Number of extra state slots ([ar_state] length). *)

val state_node : plan -> int -> int
(** Owning node id of a state slot. A [foldp] or [keep_when] node owns one;
    a composite owns one per fused [drop_repeats] cell, contiguous and in
    chain order; other nodes own none. *)

val state_initial : plan -> int -> Obj.t
(** The initial value of a state slot, as seeded into fresh arenas. *)

val group_count : plan -> int
(** Lanes: one per region, so this is {!region_count}. A region is the
    compiled executor's unit of placement — one lane thread per region,
    or one pool task per active region of a wave. Kept as an alias for
    readers of the [compile.groups] metric. *)

val to_dot : ?label:string -> 'a Signal.t -> string
(** Like {!Signal.to_dot}, with each synchronous region drawn as a dashed
    cluster ([felmc graph --compiled]). *)

(** {1 Arenas: per-instance state} *)

type arena = {
  ar_values : Obj.t array;  (** Slot -> the node's last emitted body. *)
  ar_stamps : int array;
      (** Slot -> epoch that last changed it; the dirty bit of a round is
          [stamp = epoch]. *)
  ar_state : Obj.t array;
      (** Extra state slots: [foldp] restart flags, [keep_when] gate history
          and the cells of fused [drop_repeats] stages. All plain data. *)
}
(** Values are [Obj.t] because the graph is heterogeneous; this is safe by
    construction — slot [i] is only ever touched by the ops the plan
    compiled for node [i], inside the typed scope of that node's kind. *)

val new_arena : plan -> arena
(** A fresh instance at the graph's defaults: value and state blocks copied
    from the plan, stamps zeroed. Three array allocations — no graph
    traversal, no closure, thread or channel creation. *)

val clone_arena : arena -> arena
(** Snapshot a {e quiescent} instance: values, stamps and state are copied.
    Every slot is plain data, so the clone continues exactly as its parent
    would, fused or not. *)

(** {1 Execution} *)

type handler = epoch:int -> exn -> bool
(** A node's failure handler, given whatever its user function raised in
    the round of [epoch]: it re-raises the exception (Propagate), or
    records the failure and answers whether to re-seed the node's state
    now ([true] while a Restart budget lasts). The failed round keeps the
    node's last good value. Ops apply user functions directly and call
    the handler only on failure, so supervision allocates nothing. *)

type effect =
  | Fire of { epoch : int; source : int; value : Obj.t }
      (** Async boundary: a new event for [source], carrying [value]. *)
  | Delay of { epoch : int; node : int; seconds : float; value : Obj.t }
      (** Delay boundary: a new event for [node], carrying [value],
          [seconds] later. *)
  | Observe of { epoch : int; node : int; changed : bool }
      (** One member emission, in op order (only with [x_observing]). *)
  | Display of { epoch : int; changed : bool; value : Obj.t }
      (** The root's emission, one per round reaching the root (unless the
          lane has a display sink). *)
(** What a region hands to the world outside it. Each effect carries the
    epoch of the round whose op produced it; none is consumed in that
    round, which is why a caller may apply them after the run. *)

type exec = {
  x_arena : arena;
  x_stats : Stats.t;
  x_fail : handler array;  (** Per slot. *)
  x_effects : effect Queue.t;  (** Appended in op order. *)
  x_observing : bool;
      (** Append an [Observe] per member emission, for an observer. The
          message counters are billed at admission instead, from the
          {!schedule}. *)
  x_display : (epoch:int -> changed:bool -> Obj.t -> unit) option;
      (** When present, the root's emissions go straight here instead of
          as [Display] effects. The only function in the record. *)
}
(** The execution context threaded through every op: plain data, one
    record per lane. Ops read and write the arena, bill [x_stats], call
    [x_fail] on a failure and append every boundary effect to
    [x_effects] — whoever builds the record ({!Exec}, or a test) applies
    them. *)

type op = exec -> round -> unit
(** One compiled step: a member's (read dependency slots, recompute if any
    is dirty this epoch, write its own slot; the root's also displays) or
    an async/delay tap's. *)

type schedule = {
  sc_region : int;
      (** The region the ops belong to (for a split source, the region
          holding its own member); [-1] for none. *)
  sc_root : bool;  (** The root is a member: the wake reaches the display. *)
  sc_ops : op array;  (** Run in order; [[||]] for a split source. *)
  sc_nodes : int array;
      (** Per op, the node it serves: the member's id, or for a tap the
          id of its async/delay node. *)
  sc_parts : schedule array;
      (** [[||]] when the ops lie in one region. For a source that other
          regions read through shadow slots, one schedule per region the
          wake touches, in region order: that region's ops of the cone,
          led by its writer of the source (the source's member op, or
          its shadow writer). *)
}
(** The work of one wake. A source's schedule holds the ops of its
    synchronous cone — its member ops plus the async/delay taps whose
    inner node is in the cone — in plan order. This is the {e clock} of a
    source in Asynchronous Modal FRP: an event advances only what its
    source reaches, with no per-op test. The cone never crosses a cut
    edge, so it sits in one region unless a branch reads the source (see
    {!plan}): then its work is [sc_parts], one round per region, and
    every placement runs them as separate region steps — the sequential
    lane in region order, the region lanes each on its own. No effect of
    one epoch reads another, so their order does not matter. *)

val schedule : plan -> int -> schedule
(** [schedule plan source]: the plan's own record (no allocation); a
    schedule of no ops and region [-1] for a node that is not a source of
    the plan. *)

val propagate : handler
(** The [Propagate] policy's handler: re-raises the user's exception
    unchanged, with its backtrace. *)

val propagate_handlers : plan -> handler array
(** One {!propagate} per slot: the plan's own array, shared as [x_fail] by
    every lane that runs under [Propagate] — treat as read-only. *)
