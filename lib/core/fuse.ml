(* Build-time fusion of stateless signal-node chains.

   The Fig. 10 translation pays one thread, one multicast channel, one wakeup
   and one message hop per node per event. A chain of [lift] nodes, though,
   is semantically a single pure function: fusing it into one composite node
   preserves every observable of the runtime ([changes], [current],
   [on_change]) while shrinking messages/event, context switches and thread
   count. This pass rewrites the DAG before [Runtime.start] instantiates it.

   A node is a fusable *stage* when it transforms exactly one upstream
   signal statelessly with respect to the global event order:

   - [Lift1 (f, d)] — step is [fun v -> f v];
   - [Drop_repeats (eq, d)] — step compares against, and updates, its
     one explicit cell (the previous value), starting at the node's
     default;
   - [Lift2/3/4]/[Lift_list] where every dependency but one is a [Constant]
     — constants never change, so their defaults are closed over;
   - an existing [Composite] — composites re-fuse, so repeated passes are
     idempotent.

   Everything else is a barrier: [foldp] (state), [async]/[delay]
   (source-ness: their changes re-enter through the global dispatcher),
   [merge]/[sample_on]/[keep_when] (multiple live inputs), inputs and
   constants (sources). Fan-out is a barrier too: a stage is absorbed into
   the chain above it only when it has exactly one subscriber, so shared
   subgraphs ([let s = lift f x] used twice) keep their single shared node
   and are computed once per event, exactly as unfused. The root is treated
   as externally referenced (the display loop subscribes to it), which is
   why it can head a chain but never disappear into one. *)

module S = Signal

(* One collected stage (or chain of stages): a step from the chain's input
   signal ['b] to the head node's type, plus the initial values of the
   cells it keeps (one per fused [Drop_repeats], input side first). The
   step never closes over state: [step cells k v] finds its cells at
   [cells.(k)] onward, so whoever instantiates the chain owns, copies and
   re-seeds them — a graph can be started, run, cloned and re-started
   without state leaking between instances. *)
type 'a stage =
  | Stage : {
      dep : 'b S.t;
      step : Obj.t array -> int -> 'b -> 'a;  (* or [S.filtered] *)
      cells : Obj.t list;
      names : string list;  (* input side first *)
      size : int;  (* original nodes collapsed so far *)
    }
      -> 'a stage

let is_constant (type a) (s : a S.t) =
  match S.kind s with S.Constant -> true | _ -> false

(* View a single node as a stage, if it is one. *)
let as_stage : type a. a S.t -> a stage option =
 fun s ->
  let pure dep f =
    Some
      (Stage
         {
           dep;
           step = (fun _ _ v -> f v);
           cells = [];
           names = [ S.name s ];
           size = 1;
         })
  in
  match S.kind s with
  | S.Lift1 (f, d) -> pure d f
  | S.Drop_repeats (eq, d) ->
    Some
      (Stage
         {
           dep = d;
           step =
             (fun cells k v ->
               if eq v (Obj.obj cells.(k)) then Obj.obj S.filtered
               else begin
                 cells.(k) <- Obj.repr v;
                 v
               end);
           (* Same initial comparison point as the unfused node: its
              default, which equals the upstream default. *)
           cells = [ Obj.repr (S.default s) ];
           names = [ S.name s ];
           size = 1;
         })
  | S.Lift2 (f, a, b) -> (
    match (is_constant a, is_constant b) with
    | false, true ->
      let bv = S.default b in
      pure a (fun v -> f v bv)
    | true, false ->
      let av = S.default a in
      pure b (fun v -> f av v)
    | _ -> None)
  | S.Lift3 (f, a, b, c) -> (
    match (is_constant a, is_constant b, is_constant c) with
    | false, true, true ->
      let bv = S.default b and cv = S.default c in
      pure a (fun v -> f v bv cv)
    | true, false, true ->
      let av = S.default a and cv = S.default c in
      pure b (fun v -> f av v cv)
    | true, true, false ->
      let av = S.default a and bv = S.default b in
      pure c (fun v -> f av bv v)
    | _ -> None)
  | S.Lift4 (f, a, b, c, d) -> (
    match (is_constant a, is_constant b, is_constant c, is_constant d) with
    | false, true, true, true ->
      let bv = S.default b and cv = S.default c and dv = S.default d in
      pure a (fun v -> f v bv cv dv)
    | true, false, true, true ->
      let av = S.default a and cv = S.default c and dv = S.default d in
      pure b (fun v -> f av v cv dv)
    | true, true, false, true ->
      let av = S.default a and bv = S.default b and dv = S.default d in
      pure c (fun v -> f av bv v dv)
    | true, true, true, false ->
      let av = S.default a and bv = S.default b and cv = S.default c in
      pure d (fun v -> f av bv cv v)
    | _ -> None)
  | S.Lift_list (f, ds) -> (
    (* The felm interpreter lowers every lift to [lift_list], so the unary
       (modulo constants) case matters for fusing interpreted programs. The
       live dependency must appear exactly once. *)
    match List.filter (fun d -> not (is_constant d)) ds with
    | [ d ] ->
      pure d (fun v ->
          f (List.map (fun d' -> if d' == d then v else S.default d') ds))
    | _ -> None)
  | S.Composite (c, d) ->
    Some
      (Stage
         {
           dep = d;
           step = c.S.comp_step;
           cells = Array.to_list c.S.comp_cells;
           names = c.S.comp_names;
           size = c.S.comp_size;
         })
  | S.Constant | S.Input | S.Foldp _ | S.Async _ | S.Delay _ | S.Merge _
  | S.Sample_on _ | S.Keep_when _ ->
    None

(* Cells as a generic block. Never [Array.of_list]: a float first cell
   would make [caml_make_vect] build a flat float array, and a later store
   of a boxed value into it would be reinterpreted as an unboxed double.
   Copies of a generic block ([Array.copy]) stay generic. *)
let cell_block cells =
  let a = Array.make (List.length cells) (Obj.repr 0) in
  List.iteri (fun i c -> a.(i) <- c) cells;
  a

(* Distinguishes substitution slots of this pass from earlier passes.
   Atomic: two domains fusing (different graphs) concurrently must not tear
   the counter into one shared pass id, or their substitution slots would
   alias on any shared node. *)
let pass_counter = Atomic.make 0

let fuse root =
  let pass = Atomic.fetch_and_add pass_counter 1 + 1 in
  let nodes = S.reachable root in
  (* Subscriber (incoming-edge) counts over the original graph. A node used
     twice by the same dependent counts twice — it has two subscriptions. *)
  let subs = Hashtbl.create 64 in
  let bump id =
    Hashtbl.replace subs id
      (1 + Option.value ~default:0 (Hashtbl.find_opt subs id))
  in
  List.iter
    (fun (S.Pack s) -> List.iter (fun (S.Pack d) -> bump (S.id d)) (S.deps s))
    nodes;
  (* The display loop subscribes to the root: it is externally referenced
     and must survive as a node (possibly a composite head, never an
     interior stage). *)
  bump (S.id root);
  let sole_subscriber (type b) (d : b S.t) =
    Hashtbl.find_opt subs (S.id d) = Some 1
  in
  let rec rewrite : type a. a S.t -> a S.t =
   fun s ->
    match S.get_subst s ~pass with
    | Some s' -> s'
    | None ->
      let s' =
        match collect s with
        | Some (Stage { dep; step; cells; names; size }) when size >= 2 ->
          let dep' = rewrite dep in
          S.composite ~default:(S.default s)
            {
              S.comp_step = step;
              comp_cells = cell_block cells;
              comp_names = names;
              comp_size = size;
            }
            dep'
        | _ -> rebuild s
      in
      S.set_subst s ~pass s';
      s'
  (* Collect the maximal stage chain ending at [s]: extend downward through
     dependencies that are themselves stages with [s]'s chain as their only
     subscriber. *)
  and collect : type a. a S.t -> a stage option =
   fun s ->
    match as_stage s with
    | None -> None
    | Some (Stage st) -> (
      if not (sole_subscriber st.dep) then Some (Stage st)
      else
        match collect st.dep with
        | None -> Some (Stage st)
        | Some (Stage lower) ->
          (* The upper stage's cells follow the lower chain's. *)
          let lo = lower.step and hi = st.step in
          let n_lo = List.length lower.cells in
          Some
            (Stage
               {
                 dep = lower.dep;
                 step =
                   (fun cells k v ->
                     let w = lo cells k v in
                     if Obj.repr w == S.filtered then Obj.obj S.filtered
                     else hi cells (k + n_lo) w);
                 cells = lower.cells @ st.cells;
                 names = lower.names @ st.names;
                 size = lower.size + st.size;
               }))
  (* Not a fused chain head: keep the node, rewriting its dependencies.
     Nodes whose dependencies are untouched are reused as-is — in
     particular inputs, so [Runtime.inject] on the original handles still
     works on the fused graph. *)
  and rebuild : type a. a S.t -> a S.t =
   fun s ->
    match S.kind s with
    | S.Constant | S.Input -> s
    | S.Lift1 (f, a) ->
      let a' = rewrite a in
      if a' == a then s else S.with_kind s (S.Lift1 (f, a'))
    | S.Lift2 (f, a, b) ->
      let a' = rewrite a and b' = rewrite b in
      if a' == a && b' == b then s else S.with_kind s (S.Lift2 (f, a', b'))
    | S.Lift3 (f, a, b, c) ->
      let a' = rewrite a and b' = rewrite b and c' = rewrite c in
      if a' == a && b' == b && c' == c then s
      else S.with_kind s (S.Lift3 (f, a', b', c'))
    | S.Lift4 (f, a, b, c, d) ->
      let a' = rewrite a
      and b' = rewrite b
      and c' = rewrite c
      and d' = rewrite d in
      if a' == a && b' == b && c' == c && d' == d then s
      else S.with_kind s (S.Lift4 (f, a', b', c', d'))
    | S.Lift_list (f, ds) ->
      let ds' = List.map (fun (d : _ S.t) -> rewrite d) ds in
      if List.for_all2 ( == ) ds ds' then s
      else S.with_kind s (S.Lift_list (f, ds'))
    | S.Foldp (f, a) ->
      let a' = rewrite a in
      if a' == a then s else S.with_kind s (S.Foldp (f, a'))
    | S.Async a ->
      let a' = rewrite a in
      if a' == a then s else S.with_kind s (S.Async a')
    | S.Delay (d, a) ->
      let a' = rewrite a in
      if a' == a then s else S.with_kind s (S.Delay (d, a'))
    | S.Merge (a, b) ->
      let a' = rewrite a and b' = rewrite b in
      if a' == a && b' == b then s else S.with_kind s (S.Merge (a', b'))
    | S.Drop_repeats (eq, a) ->
      let a' = rewrite a in
      if a' == a then s else S.with_kind s (S.Drop_repeats (eq, a'))
    | S.Sample_on (t, a) ->
      let t' = rewrite t and a' = rewrite a in
      if t' == t && a' == a then s else S.with_kind s (S.Sample_on (t', a'))
    | S.Keep_when (g, a, base) ->
      let g' = rewrite g and a' = rewrite a in
      if g' == g && a' == a then s
      else S.with_kind s (S.Keep_when (g', a', base))
    | S.Composite (c, a) ->
      let a' = rewrite a in
      if a' == a then s else S.with_kind s (S.Composite (c, a'))
  in
  rewrite root

(* Fusion allocates fresh composite nodes on every pass, so two [fuse] calls
   on the same root yield structurally equal but physically distinct graphs —
   which would defeat any cache keyed on the fused root (Compile's plan
   cache). Memoising the pass on the root node itself keeps the fused root
   stable across [Runtime.start] and session-layer calls; the slot dies with
   the graph, so nothing leaks. The memo is stamped with the plan cache
   generation and an older stamp reads as absent, so
   [Compile.clear_plan_cache] drops fused roots and plans together: a memo
   outliving its plan would resolve the graph to a stale fused root (across
   a live upgrade, the pre-upgrade one).

   The memo (and the pass it guards) must be serialised across domains: two
   domains racing through the [None] arm would each run a rewrite and
   publish *different* fused roots (fresh composite nodes, fresh ids) for
   the same graph, so a plan compiled against one would silently not match
   sessions opened against the other. The lock covers the whole
   check-rewrite-publish sequence; the rewrite itself also writes [subst]
   slots on shared nodes, which the same lock protects. *)
let fuse_lock = Mutex.create ()

let fuse_cached root =
  Mutex.lock fuse_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock fuse_lock)
    (fun () ->
      let gen = Compile.cache_generation () in
      match S.get_fused root ~gen with
      | Some f -> f
      | None ->
        let f = fuse root in
        S.set_fused root ~gen f;
        f)
