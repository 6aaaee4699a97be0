type 'a inst = {
  gen : int;
  out : 'a Event.stamped Cml.Multicast.t;
  push : ('a -> unit) option;
}

type memo = ..

type 'a t = {
  node_id : int;
  node_name : string;
  node_default : 'a;
  node_kind : 'a kind;
  mutable node_inst : 'a inst option;
  mutable node_subst : 'a tagged option;
  mutable node_fused : 'a tagged option;
  mutable node_memo : memo option;
}

and 'a tagged = { tag_gen : int; tag_node : 'a t }

and 'a kind =
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

and ('b, 'a) composite = {
  comp_step : Obj.t array -> int -> 'b -> 'a;
      (** [comp_step cells k v]: the fused chain applied to [v], reading and
          writing its cells at [cells.(k)] onward; the {!filtered} sentinel
          means "no change this round". *)
  comp_cells : Obj.t array;
      (** Initial cell values: one per fused [Drop_repeats], input side
          first. Never mutated; instances copy it. *)
  comp_names : string list;  (** Constituent node names, input side first. *)
  comp_size : int;  (** Number of original nodes this composite replaces. *)
}

type packed = Pack : 'a t -> packed

(* A private block: no user value is physically equal to it, so a fused
   step can answer "filtered" in its own return value, allocating nothing
   and never mistaking a user exception for a filtered round. *)
let filtered = Obj.repr (ref ())

let counter = Atomic.make 0

(* The paper's [guid] (Fig. 9). Atomic so graphs may be built from several
   domains concurrently (the serving layer compiles on whichever domain
   first asks for a plan): a torn [incr] would hand two nodes the same id,
   and both the plan cache and the fusion memo key on ids. *)
let fresh_id () = Atomic.fetch_and_add counter 1 + 1

let make ?name ~fallback_name default kind =
  {
    node_id = fresh_id ();
    node_name = (match name with Some n -> n | None -> fallback_name);
    node_default = default;
    node_kind = kind;
    node_inst = None;
    node_subst = None;
    node_fused = None;
    node_memo = None;
  }

let id t = t.node_id
let name t = t.node_name
let default t = t.node_default
let kind t = t.node_kind
let get_inst t = t.node_inst
let set_inst t i = t.node_inst <- Some i

let tagged_get slot gen =
  match slot with
  | Some { tag_gen; tag_node } when tag_gen = gen -> Some tag_node
  | _ -> None

let get_subst t ~pass = tagged_get t.node_subst pass
let set_subst t ~pass s = t.node_subst <- Some { tag_gen = pass; tag_node = s }

(* The cached result of fusing the graph rooted at [t], stamped with the
   plan cache generation it was computed under ([Fuse.fuse_cached]): a
   cache reset makes every older stamp read as absent, so the fused root
   and its plan are invalidated together and the slot dies with the
   graph. *)
let get_fused t ~gen = tagged_get t.node_fused gen
let set_fused t ~gen f = t.node_fused <- Some { tag_gen = gen; tag_node = f }

(* An opaque per-node slot for derived data owned by another module (the
   compiled plan of the graph rooted here, see [Compile.plan_of]). The
   owner defines its own constructor and stamps it with whatever validity
   token it needs; like [node_fused], it dies with the graph. *)
let get_memo t = t.node_memo
let set_memo t m = t.node_memo <- Some m

(* Rebuild a node around a new kind (same id/name/default) when a fusion
   pass rewrites its dependencies. Keeping the id stable makes node
   identities comparable across fused and unfused runs of the same graph;
   ids stay unique because the original node is no longer part of the
   rewritten graph. *)
let with_kind t kind =
  {
    t with
    node_kind = kind;
    node_inst = None;
    node_subst = None;
    node_fused = None;
    node_memo = None;
  }

let constant ?name v = make ?name ~fallback_name:"constant" v Constant

let input ?name v = make ?name ~fallback_name:"input" v Input

let lift ?name f s =
  make ?name ~fallback_name:"lift" (f s.node_default) (Lift1 (f, s))

let lift2 ?name f a b =
  make ?name ~fallback_name:"lift2"
    (f a.node_default b.node_default)
    (Lift2 (f, a, b))

let lift3 ?name f a b c =
  make ?name ~fallback_name:"lift3"
    (f a.node_default b.node_default c.node_default)
    (Lift3 (f, a, b, c))

let lift4 ?name f a b c d =
  make ?name ~fallback_name:"lift4"
    (f a.node_default b.node_default c.node_default d.node_default)
    (Lift4 (f, a, b, c, d))

(* Higher arities are derived by lifting a partially-applied function and
   applying it with [lift2]; the intermediate node is observationally
   transparent. *)
let apply_node ?name g x = lift2 ?name (fun h v -> h v) g x

let lift5 ?name f a b c d e = apply_node ?name (lift4 f a b c d) e
let lift6 ?name f a b c d e g = apply_node ?name (lift5 f a b c d e) g
let lift7 ?name f a b c d e g h = apply_node ?name (lift6 f a b c d e g) h
let lift8 ?name f a b c d e g h i = apply_node ?name (lift7 f a b c d e g h) i

let lift_list ?name f deps =
  make ?name ~fallback_name:"liftn"
    (f (List.map (fun s -> s.node_default) deps))
    (Lift_list (f, deps))

let foldp ?name step init s =
  make ?name ~fallback_name:"foldp" init (Foldp (step, s))

let async ?name s = make ?name ~fallback_name:"async" s.node_default (Async s)

let delay ?name d s = make ?name ~fallback_name:"delay" s.node_default (Delay (d, s))

let merge ?name a b =
  make ?name ~fallback_name:"merge" a.node_default (Merge (a, b))

let drop_repeats ?name ?(eq = ( = )) s =
  make ?name ~fallback_name:"dropRepeats" s.node_default (Drop_repeats (eq, s))

let sample_on ?name ticks s =
  make ?name ~fallback_name:"sampleOn" s.node_default (Sample_on (ticks, s))

let keep_when ?name gate base s =
  let default = if gate.node_default then s.node_default else base in
  make ?name ~fallback_name:"keepWhen" default (Keep_when (gate, s, base))

let drop_when ?name gate base s = keep_when ?name (lift not gate) base s

let count ?name s =
  foldp ~name:(match name with Some n -> n | None -> "count")
    (fun _ c -> c + 1)
    0 s

let count_if ?name pred s =
  foldp ~name:(match name with Some n -> n | None -> "countIf")
    (fun v c -> if pred v then c + 1 else c)
    0 s

let delay1 ?name init s =
  (* Accumulator is (emit, stored): each change emits the previously stored
     value; the first change therefore emits [init]. *)
  let shifted = foldp (fun v (_, stored) -> (stored, v)) (init, init) s in
  lift ?name fst shifted

let pair ?name a b = lift2 ?name (fun x y -> (x, y)) a b

let combine ?name sigs =
  lift_list ~name:(match name with Some n -> n | None -> "combine") Fun.id sigs

let timestamp ?name s = lift ?name (fun v -> (Cml.now (), v)) s

let composite ?name ~default c dep =
  make ?name ~fallback_name:(String.concat "\u{2218}" c.comp_names) default
    (Composite (c, dep))

let kind_name (type a) (t : a t) =
  match t.node_kind with
  | Constant -> "constant"
  | Input -> "input"
  | Lift1 _ -> "lift"
  | Lift2 _ -> "lift2"
  | Lift3 _ -> "lift3"
  | Lift4 _ -> "lift4"
  | Lift_list _ -> "liftn"
  | Foldp _ -> "foldp"
  | Async _ -> "async"
  | Delay _ -> "delay"
  | Merge _ -> "merge"
  | Drop_repeats _ -> "dropRepeats"
  | Sample_on _ -> "sampleOn"
  | Keep_when _ -> "keepWhen"
  | Composite _ -> "composite"

let deps (type a) (t : a t) =
  match t.node_kind with
  | Constant | Input -> []
  | Lift1 (_, a) -> [ Pack a ]
  | Lift2 (_, a, b) -> [ Pack a; Pack b ]
  | Lift3 (_, a, b, c) -> [ Pack a; Pack b; Pack c ]
  | Lift4 (_, a, b, c, d) -> [ Pack a; Pack b; Pack c; Pack d ]
  | Lift_list (_, ds) -> List.map (fun s -> Pack s) ds
  | Foldp (_, s) -> [ Pack s ]
  | Async s -> [ Pack s ]
  | Delay (_, s) -> [ Pack s ]
  | Merge (a, b) -> [ Pack a; Pack b ]
  | Drop_repeats (_, s) -> [ Pack s ]
  | Sample_on (ticks, s) -> [ Pack ticks; Pack s ]
  | Keep_when (gate, s, _) -> [ Pack gate; Pack s ]
  | Composite (_, s) -> [ Pack s ]

let is_source (type a) (t : a t) =
  match t.node_kind with
  | Constant | Input | Async _ | Delay _ -> true
  | Lift1 _ | Lift2 _ | Lift3 _ | Lift4 _ | Lift_list _ | Foldp _ | Merge _
  | Drop_repeats _ | Sample_on _ | Keep_when _ | Composite _ ->
    false

let reachable root =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit (Pack s as p) =
    if not (Hashtbl.mem seen s.node_id) then begin
      Hashtbl.add seen s.node_id ();
      List.iter visit (deps s);
      order := p :: !order
    end
  in
  visit (Pack root);
  List.rev !order

(* Escape a user-supplied name for use inside a double-quoted DOT string.
   Quotes and backslashes would otherwise produce malformed DOT; angle
   brackets and record specials are escaped too so names survive verbatim in
   every Graphviz label context. *)
let dot_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '<' | '>' | '{' | '}' | '|' ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf c
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot ?(label = "signal graph") root =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph signals {\n";
  pr "  label=\"%s\";\n" (dot_escape label);
  pr "  rankdir=TB;\n";
  pr "  dispatcher [label=\"Global Event\\nDispatcher\", shape=box, style=dashed];\n";
  let nodes = reachable root in
  List.iter
    (fun (Pack s) ->
      match s.node_kind with
      | Composite (c, _) ->
        (* A fused chain renders as a single box so the drawing mirrors the
           instantiated runtime: one thread, one channel, [comp_size] former
           nodes. *)
        pr "  n%d [label=\"%s\\n(%d nodes fused)\", shape=box3d];\n" s.node_id
          (dot_escape s.node_name) c.comp_size
      | _ ->
        let shape = if is_source s then "ellipse" else "box" in
        pr "  n%d [label=\"%s\", shape=%s];\n" s.node_id
          (dot_escape s.node_name) shape;
        if is_source s then
          pr "  dispatcher -> n%d [style=dashed];\n" s.node_id)
    nodes;
  List.iter
    (fun (Pack s) ->
      match s.node_kind with
      | Async inner | Delay (_, inner) ->
        (* The inner subgraph reaches the async source node only through the
           dispatcher (Fig. 8(c)): a change becomes a fresh global event. *)
        pr "  n%d -> dispatcher [style=dotted, label=\"new event\"];\n"
          inner.node_id
      | _ ->
        List.iter
          (fun (Pack d) -> pr "  n%d -> n%d;\n" d.node_id s.node_id)
          (deps s))
    nodes;
  pr "}\n";
  Buffer.contents buf
