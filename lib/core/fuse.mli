(** Build-time fusion of stateless signal-node chains.

    [fuse root] rewrites the DAG reachable from [root] so that every maximal
    chain of stateless, single-subscriber interior nodes — {!Signal.lift},
    {!Signal.drop_repeats}, and [lift2]/[lift3]/[lift4]/[lift_list] nodes
    whose other inputs are constants — collapses into one
    {!Signal.kind.Composite} node computing the composition of the chain.

    Fusion barriers, where chains stop: fan-out points (any node with more
    than one subscriber), [foldp], [async], [delay], [merge], [sample_on],
    [keep_when], inputs, constants, and the root (externally referenced by
    the display loop — it may head a chain but never vanishes into one).
    Sharing is therefore preserved: a node used twice is computed once per
    event, fused or not.

    The rewrite is type-preserving and non-destructive: original nodes are
    never mutated (beyond a generation-stamped memo slot), input nodes are
    reused as-is so {!Runtime.inject} on the original handles still works,
    and barrier nodes keep their ids. {!Runtime.start} applies the pass by
    default; the guarantee is that [changes], [current] and [on_change] are
    bit-identical with fusion on and off across [Pipelined]/[Sequential] ×
    [Flood]/[Cone] — provided chain functions take no virtual time (fusing
    serializes a chain into one node, so a chain of {e sleeping} stages
    loses pipelined overlap: values and order still agree, timestamps may
    not). Only message counts, switch counts and thread counts shrink. *)

val fuse : 'a Signal.t -> 'a Signal.t
(** Returns the fused graph's root: the original root node, a rebuilt copy
    of it (same id) with rewritten dependencies, or a composite headed by
    it. Safe to call repeatedly and on overlapping graphs; each call is an
    independent pass. *)

val fuse_cached : 'a Signal.t -> 'a Signal.t
(** Like {!fuse}, but memoised on the root node: repeated calls return the
    {e same} fused graph (physical equality), so downstream caches keyed on
    the fused root — {!Compile.plan_of} — hit. Used by [Runtime.start] and
    the session layer; call plain {!fuse} to force an independent pass.
    The memo shares the plan cache's generation: after
    {!Compile.clear_plan_cache} the next call fuses afresh, so a fused root
    never outlives its plan. *)
