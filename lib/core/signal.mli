(** Typed signal specifications: the node DAG of the paper's signal graphs.

    A ['a t] is a {e description} of a signal-graph node producing values of
    type ['a]. Nothing runs until {!Runtime.start} instantiates the graph
    (the Fig. 10 translation: one thread per node, one multicast channel per
    node output). Sharing is physical: using the same ['a t] twice gives one
    node with two subscribers, which is the paper's let/multicast semantics.

    Signals of signals are unrepresentable by construction, mirroring the
    FElm type system: the combinators below never produce a
    ['a t t]-shaped graph because node functions are ordinary pure OCaml
    functions over plain values.

    The core combinators are exactly FElm's primitives ({!constant} inputs
    aside): {!lift}..{!lift8}, {!foldp} and {!async}. The remaining
    combinators ({!merge}, {!drop_repeats}, {!sample_on}, ...) reproduce the
    Elm standard library of Section 4 and are definable within the per-event
    [Change]/[No_change] model. *)

type 'a t

(** {1 Construction} *)

val constant : ?name:string -> 'a -> 'a t
(** A source node that never changes: it answers every event notification
    with [No_change default]. *)

val input : ?name:string -> 'a -> 'a t
(** An external input signal with the given default value (every input
    signal "is required to have a default value", Section 3.1). New values
    are pushed with {!Runtime.inject}. *)

val lift : ?name:string -> ('a -> 'b) -> 'a t -> 'b t
(** [lift f s] applies [f] to every value of [s] (FElm's [lift1]). The
    node's default is [f default(s)], computed at construction — defaults
    for inner nodes are "induced" from input defaults, Section 3.1. *)

val lift2 : ?name:string -> ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
(** Combine two signals; recomputes when {e either} changes, synchronously
    with respect to the global event order. *)

val lift3 : ?name:string -> ('a -> 'b -> 'c -> 'd) -> 'a t -> 'b t -> 'c t -> 'd t
val lift4 :
  ?name:string -> ('a -> 'b -> 'c -> 'd -> 'e) -> 'a t -> 'b t -> 'c t -> 'd t -> 'e t

val lift5 :
  ?name:string ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f) ->
  'a t -> 'b t -> 'c t -> 'd t -> 'e t -> 'f t

val lift6 :
  ?name:string ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'g) ->
  'a t -> 'b t -> 'c t -> 'd t -> 'e t -> 'f t -> 'g t

val lift7 :
  ?name:string ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'g -> 'h) ->
  'a t -> 'b t -> 'c t -> 'd t -> 'e t -> 'f t -> 'g t -> 'h t

val lift8 :
  ?name:string ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'g -> 'h -> 'i) ->
  'a t -> 'b t -> 'c t -> 'd t -> 'e t -> 'f t -> 'g t -> 'h t -> 'i t

val lift_list : ?name:string -> ('a list -> 'b) -> 'a t list -> 'b t
(** Homogeneous n-ary lift. Used by the FElm interpreter, whose runtime
    values are untyped. [lift_list f []] is a constant. *)

val foldp : ?name:string -> ('a -> 'b -> 'b) -> 'b -> 'a t -> 'b t
(** [foldp step init s] folds over [s] "from the past" (Section 3.1): on each
    [Change v] of [s] the accumulator becomes [step v acc]; [No_change]
    rounds leave it untouched — which is why [No_change] is a correctness
    requirement, not only memoization. *)

val async : ?name:string -> 'a t -> 'a t
(** The paper's key novelty (Section 3.3.2). [async s] is a {e source} node:
    it answers every notification with [No_change], and whenever [s]
    produces a [Change] it registers a fresh global event carrying that
    value. Event order is maintained within the async subgraph and within
    the rest of the graph, but not between them, so a slow subgraph cannot
    delay the rest of the program.

    The functions of [s]'s subgraph may run on another domain: the
    compiled runtime moves a costly one off the display's domain (the
    offload rule of {!Runtime.start}). They must be domain-safe, sharing
    no unsynchronised mutable state with the rest of the program. *)

(** {1 Elm standard-library combinators (Section 4)} *)

val merge : ?name:string -> 'a t -> 'a t -> 'a t
(** Emit changes from either signal; when both change on the same event the
    left signal wins. Default is the left default. *)

val drop_repeats : ?name:string -> ?eq:('a -> 'a -> bool) -> 'a t -> 'a t
(** Turn [Change v] into [No_change v] when [v] equals the previous value. *)

val sample_on : ?name:string -> 'a t -> 'b t -> 'b t
(** [sample_on ticks s] changes to the current value of [s] whenever [ticks]
    changes. *)

val keep_when : ?name:string -> bool t -> 'a -> 'a t -> 'a t
(** [keep_when gate base s] passes changes of [s] through only while [gate]
    is currently true; starts at [base] when the gate starts closed. Like
    Elm's [keepWhen], when the gate {e becomes} true the most recent value
    of [s] is propagated (rising-edge resync) — for gated event counting
    prefer [count_if ... (sample_on events gate)]. *)

val drop_when : ?name:string -> bool t -> 'a -> 'a t -> 'a t

val count : ?name:string -> 'a t -> int t
(** Number of changes seen (the paper's key-press counter, Section 3.1). *)

val count_if : ?name:string -> ('a -> bool) -> 'a t -> int t

val delay1 : ?name:string -> 'a -> 'a t -> 'a t
(** Shift a signal by one event: emits the previous changed value. *)

val pair : ?name:string -> 'a t -> 'b t -> ('a * 'b) t
(** [lift2 (fun a b -> (a, b))] — the paper's [(,)]. *)

val combine : ?name:string -> 'a t list -> 'a list t
(** Elm's [combine]: a signal of the current values of many signals,
    changing whenever any of them does. *)

val timestamp : ?name:string -> 'a t -> (float * 'a) t
(** Pair each change with the virtual time at which the node processed it. *)

val delay : ?name:string -> float -> 'a t -> 'a t
(** Elm's [delay]: the same changes, [d] seconds later on the virtual
    clock. Like [async], the node is a source — each delayed value re-enters
    through the global dispatcher as a fresh event, so a delayed subgraph
    never blocks the rest of the program. Order among the delayed changes is
    preserved: changes due at the same virtual instant re-enter in the
    order of the epochs that emitted them, then of the delay nodes' ids
    (creation order, so topological), whatever the scheduler does. *)

(** {1 Introspection} *)

type packed = Pack : 'a t -> packed

val filtered : Obj.t
(** What a composite's [comp_step] returns, as [Obj.obj filtered], when a
    fused [drop_repeats] stage dropped the value: a private block no user
    value is physically equal to. Test with [Obj.repr v == filtered]. *)

val id : 'a t -> int
(** Unique node identifier (the paper's [guid]). *)

val name : 'a t -> string
(** Debug name ("lift", "foldp", ... when not user-supplied). *)

val default : 'a t -> 'a
(** The node's default/initial value. *)

val kind_name : 'a t -> string

val deps : 'a t -> packed list
(** Direct dependencies (incoming edges). [async]'s inner signal is reported
    as a dependency here even though at runtime the async node is a source. *)

val is_source : 'a t -> bool
(** True for [input], [constant] and [async] nodes. *)

val reachable : 'a t -> packed list
(** All nodes of the graph rooted here, each once, dependencies before
    dependents (topological order). *)

val to_dot : ?label:string -> 'a t -> string
(** Graphviz rendering in the style of the paper's Figures 7-8: the global
    event dispatcher with dashed edges to all source nodes, solid edges for
    signal flow, async subgraphs visually separated. *)

val dot_escape : string -> string
(** Escape a user-supplied name for use inside a double-quoted DOT string
    (quotes, backslashes, angle brackets, record specials). Shared with
    {!Compile.to_dot}. *)

(** {1 Runtime representation}

    Exposed for {!Runtime}; not intended for application code. *)

type 'a inst = {
  gen : int;  (** Runtime generation this instance belongs to. *)
  out : 'a Event.stamped Cml.Multicast.t;
      (** The node's output channel; messages are epoch-stamped so cone
          dispatch can elide quiescent rounds (see {!Event.stamped}). *)
  push : ('a -> unit) option;  (** Input nodes: deliver an external event. *)
}

type 'a kind =
  | Constant
  | Input
  | Lift1 : ('b -> 'a) * 'b t -> 'a kind
  | Lift2 : ('b -> 'c -> 'a) * 'b t * 'c t -> 'a kind
  | Lift3 : ('b -> 'c -> 'd -> 'a) * 'b t * 'c t * 'd t -> 'a kind
  | Lift4 : ('b -> 'c -> 'd -> 'e -> 'a) * 'b t * 'c t * 'd t * 'e t -> 'a kind
  | Lift_list : ('b list -> 'a) * 'b t list -> 'a kind
  | Foldp : ('b -> 'a -> 'a) * 'b t -> 'a kind
  | Async : 'a t -> 'a kind
  | Delay : float * 'a t -> 'a kind
  | Merge of 'a t * 'a t
  | Drop_repeats of ('a -> 'a -> bool) * 'a t
  | Sample_on : 'b t * 'a t -> 'a kind
  | Keep_when of bool t * 'a t * 'a
  | Composite : ('b, 'a) composite * 'b t -> 'a kind
      (** A fused chain of stateless nodes, produced by {!Fuse.fuse}; never
          built directly by the combinators above. Instantiates as one
          thread and one channel in place of [comp_size] originals. *)

and ('b, 'a) composite = {
  comp_step : Obj.t array -> int -> 'b -> 'a;
      (** [comp_step cells k v] applies the fused chain to [v]. The chain's
          state is explicit: its [j]-th cell is [cells.(k + j)], the only
          memory the step reads or writes, so the caller decides where
          cells live (arena state slots in {!Compile}, a private array per
          pipelined instantiation) and copying them copies the chain. Returns
          {!filtered} (physically) for "no change this round". *)
  comp_cells : Obj.t array;
      (** Initial cell values, one per fused [drop_repeats] (its default),
          input side first. Never mutated: instances copy it, and a
          [Restart] re-seeds from it. *)
  comp_names : string list;
      (** Names of the fused nodes, input side first; the composite's
          display name joins them with ["∘"]. *)
  comp_size : int;  (** How many original nodes the composite replaces. *)
}

val kind : 'a t -> 'a kind
val get_inst : 'a t -> 'a inst option
val set_inst : 'a t -> 'a inst -> unit

val get_fused : 'a t -> gen:int -> 'a t option
(** The cached {!Fuse.fuse} result for the graph rooted at this node, if one
    was computed under plan cache generation [gen] (see
    {!Fuse.fuse_cached}). The slot is stamped with the generation it was
    set under and an older stamp reads as absent, so
    {!Compile.clear_plan_cache} invalidates the fused root together with
    its plan. Compiled-backend state does not live on the nodes at all —
    it lives in per-instance arenas ({!Compile.arena}), which is what lets
    many runtimes and sessions share one graph. *)

val set_fused : 'a t -> gen:int -> 'a t -> unit

type memo = ..
(** Derived data memoised on a node by another module, which adds its own
    constructor (the compiled plan, see {!Compile.plan_of}). *)

val get_memo : 'a t -> memo option
val set_memo : 'a t -> memo -> unit
(** Like the fusion slot, the memo lives as long as the node; its owner
    decides when an entry is stale. *)

(** {2 Fusion support (used by {!Fuse})} *)

val composite : ?name:string -> default:'a -> ('b, 'a) composite -> 'b t -> 'a t
(** A fresh composite node. The default must equal the value the fused chain
    would have settled on from its input's default. *)

val with_kind : 'a t -> 'a kind -> 'a t
(** Copy a node with a new kind (rewired dependencies), keeping its id, name
    and default. The copy has no instance and no pending substitution. *)

val get_subst : 'a t -> pass:int -> 'a t option
(** The node this one was rewritten to during fusion pass [pass], if any.
    The slot is generation-stamped, so stale entries from earlier passes are
    invisible — a graph can be fused many times (one runtime per call). *)

val set_subst : 'a t -> pass:int -> 'a t -> unit
