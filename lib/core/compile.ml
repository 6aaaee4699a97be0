(* The compiled backend: synchronous regions as straight-line step functions,
   split into a shared *plan* and per-instance *arenas*.

   The paper's design isolates all asynchrony at explicit [async]/[delay]
   boundaries, which makes everything between two boundaries a deterministic
   synchronous region: within one global event, the region's nodes fire in
   dependency order with no interleaving freedom that could change the
   result. The pipelined backend (Fig. 10) nevertheless interprets such a
   region as one cooperative thread per node and one multicast channel per
   edge, paying a scheduler switch and a channel hop for every node of every
   event. Here we exploit the determinism instead:

   - [plan] partitions the graph into synchronous regions by union-find
     over dependency edges, *cutting* the edge into every [async]/[delay]
     node (their inner subgraph reaches them only through the global
     dispatcher, so that edge carries no synchronous round), and compiles
     each region to a single array of op templates in topological order.
     A runtime source does not glue an [async] branch into its class: a
     component that reads the class's sources and feeds only its own
     class's boundaries, holding no display, is a region of its own (see
     [branches]). The plan is immutable and carries no instance state: it
     is the per-graph-shape template, built once and cached ([plan_of]).

   - An [arena] is everything one running instance owns: a flat block of
     per-node value/stamp slots plus a few extra state slots ([foldp]
     restart flags, [keep_when] gate history, fused [drop_repeats] cells).
     Every slot is plain immutable data, so opening an instance
     ([new_arena]) and cloning one ([clone_arena]) are both three array
     copies.

   - An op template is [exec -> round -> unit]: it closes over slot
     *indices* and the node's typed functions, never over cells, so the
     same op array drives any number of concurrent arenas. The [exec]
     record is plain data: the instance's arena, counters and failure
     handlers, plus one effect queue. A wake's round carries its source's
     value, which the woken source member writes into its slot; a region
     touches the world outside it only by appending an [effect] (an async
     or delay re-entry with its value, an observed emission, the display)
     for [Exec], the one executor of a plan instance, to apply. A changed
     op allocates nothing of its own: it applies the user function inside
     [match ... with exception] and writes the result into its slot.

   - Each source gets a [schedule]: the ops of its synchronous cone, in
     plan order. A wake runs its source's schedule and nothing else — no
     per-op reachability test. The cone sits in one region, as union-find
     joins every uncut edge, except where branches read the source: each
     such region reads its own shadow slot of the source, and the
     schedule has one part per region it touches, so a lane placement
     queues one round on each. A region is also the unit of placement:
     one lane per region.

   Node state lives in the arena as [Obj.t]: the graph is heterogeneous,
   and moving cells out of the nodes (where a generation-stamped slot
   allowed only one live instance per graph) is the whole point. This is
   type-safe by construction: slot [i] of any arena for a given plan is
   only ever read and written by the ops compiled for node [i], inside the
   typed scope of that node's GADT arm — the plan that assigned the slot
   is the only code that touches it.

   [No_change] becomes a per-node dirty-bit test ([stamp = epoch]) instead
   of a message, and fan-out/merge become plain sequential reads. The one
   real message left per round is the root's display.

   Topological order within a region is inherited from [Signal.reachable]
   (the same deterministic deps-first DFS the pipelined build uses), so a
   compiled round computes exactly what a fully-settled pipelined round
   would: a node's op runs strictly after all its dependency ops, reading
   their freshly-written slots. Async taps are ordered right after their
   inner node's op via a secondary sort key, never before it.

   The module deliberately does not depend on [Runtime] or [Exec]: whoever
   runs a plan hands it an [exec] record and reads the effects back. *)

(* One compiled wake: its epoch, the source it woke and that source's new
   value, travelling together from admission to the op that reads it. *)
type round = {
  epoch : int;
  source : int;
  value : Obj.t;
}

(* ------------------------------------------------------------------ *)
(* Region partitioning *)

type region = {
  rg_index : int;  (* dense index, in topological order of first member *)
  rg_rep : int;
      (* representative node id: the topologically last member (the
         region's output); used as the region's id for tracing *)
  rg_name : string;  (* the representative's name *)
  rg_members : Signal.packed list;  (* in topological order *)
  rg_member_ids : int list;
}

(* ------------------------------------------------------------------ *)
(* Instance state: arena + execution context *)

(* A node's failure handler, called with whatever its user function
   raised: it re-raises (Propagate) or records the failure and answers
   whether to re-seed the node's state now (a Restart budget left). The op
   applies the function directly inside [match ... with exception], so a
   round allocates nothing for supervision under any policy. *)
type handler = epoch:int -> exn -> bool

(* The Propagate policy's handler: the user's own exception, with its
   backtrace, escapes to the caller. *)
let propagate : handler =
 fun ~epoch:_ e ->
  Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())

(* Everything one instance owns. [ar_values.(i)]/[ar_stamps.(i)] are node
   [i]'s last emitted body and the epoch that last changed it (the dirty
   bit is [stamp = epoch]). [ar_state] holds the few per-node extras that
   are not plain last-values: foldp restart flags, keep_when gate history
   and the cells of fused drop_repeats stages — all plain data, so a copy
   of the three arrays is an exact copy of the instance. *)
type arena = {
  ar_values : Obj.t array;
  ar_stamps : int array;
  ar_state : Obj.t array;
}

(* What an op hands to the world outside its region, in op order: an
   async event with its value, a delay, an observer's emission, the root's
   display. Each carries the epoch of the round that produced it. *)
type effect =
  | Fire of { epoch : int; source : int; value : Obj.t }
  | Delay of { epoch : int; node : int; seconds : float; value : Obj.t }
  | Observe of { epoch : int; node : int; changed : bool }
  | Display of { epoch : int; changed : bool; value : Obj.t }

(* The per-instance execution context threaded through every op: plain
   data, one record per lane, not per round. Ops append their boundary
   effects to [x_effects]; the display sink is the one function, for a
   caller that takes displays straight from the lane. *)
type exec = {
  x_arena : arena;
  x_stats : Stats.t;
  x_fail : handler array;  (* per slot *)
  x_effects : effect Queue.t;
  x_observing : bool;  (* append an [Observe] per member emission *)
  x_display : (epoch:int -> changed:bool -> Obj.t -> unit) option;
}

type op = exec -> round -> unit

(* The work of one wake of a source: the ops of its synchronous cone (its
   members, and the async/delay taps whose inner node is in it) in plan
   order. A cone never crosses a cut edge, so it sits in one region unless
   branches read the source: then [sc_parts] splits it by region. *)
type schedule = {
  sc_region : int;  (* -1: the wake runs nothing *)
  sc_root : bool;  (* the root is a member: the wake reaches the display *)
  sc_ops : op array;  (* [||] when split into [sc_parts] *)
  sc_nodes : int array;
      (* per op, the node it serves: the member's id, or for a tap its
         async/delay node's id *)
  sc_parts : schedule array;
      (* [||] when the ops lie in one region; otherwise one schedule per
         region the wake touches, in region order, each led by that
         region's writer of the source *)
}

(* ------------------------------------------------------------------ *)
(* The plan: one immutable compiled template per graph shape *)

type plan = {
  p_regions : region list;
  p_region_of : (int, int) Hashtbl.t;  (* node id -> region index *)
  p_cuts : (int * int) list;
      (* (inner node id, async/delay node id): dependency edges that carry
         no synchronous round and were cut by the partition *)
  p_reach : Reach.t;
  p_nodes : int;  (* slot count = live node count *)
  p_slot_of : (int, int) Hashtbl.t;  (* node id -> slot *)
  p_slot_ids : int array;  (* slot -> node id *)
  p_slot_names : string array;
  p_keys : string array;
      (* slot -> structural key: kind + name + dependency keys, occurrence-
         disambiguated. Node ids are minted fresh per graph build, so two
         builds of the same program share no ids — these keys are the
         stable cross-plan identity live upgrades match slots on. *)
  p_id_stride : int;
      (* 1 + max node id: offset multiplier for per-session trace ids *)
  p_defaults : Obj.t array;  (* slot -> default value *)
  p_state_init : Obj.t array;  (* state slot -> initial value *)
  p_state_node : int array;
      (* state slot -> owning node id (a composite owns one slot per cell,
         contiguous); upgrades remap state through the owner's structural
         key *)
  p_reps : int array;  (* region index -> representative node id *)
  p_schedules : (int, schedule) Hashtbl.t;  (* source id -> its schedule *)
  p_shadow_src : int array;
      (* shadow slot [p_nodes + k] -> the slot of the source it copies *)
  p_root_region : int;  (* the region holding the display *)
  p_sources : (int * string) list;  (* runtime sources, topological order *)
  p_propagate : handler array;
      (* per slot, [propagate]: every Propagate lane's [x_fail] *)
  p_inputs : Signal.packed list;  (* Input nodes, for external injection *)
}

(* Obj.t arrays must never be created from a float seed: [caml_make_vect]
   would specialise the block to a flat float array, and a later store of a
   non-float value would be reinterpreted as an unboxed double. Seeding
   with an immediate and filling afterwards keeps the generic
   representation whatever the signal value types are. *)
let obj_array n fill =
  let a = Array.make n (Obj.repr 0) in
  for i = 0 to n - 1 do
    a.(i) <- fill i
  done;
  a

(* The op bodies' shared steps. A changed node: its new body and this
   round's stamp. *)
let set (x : exec) sl (r : round) v =
  x.x_arena.ar_values.(sl) <- Obj.repr v;
  x.x_arena.ar_stamps.(sl) <- r.epoch;
  true

(* A failed application: the handler re-raises or bills it, and the node
   keeps its last good value, as a quiescent node would. *)
let failed (x : exec) sl (r : round) e =
  ignore (x.x_fail.(sl) ~epoch:r.epoch e);
  false

let applied (x : exec) =
  x.x_stats.Stats.applications <- x.x_stats.Stats.applications + 1

let rec any_dirty ar epoch = function
  | [] -> false
  | sd :: rest -> ar.ar_stamps.(sd) = epoch || any_dirty ar epoch rest

(* Union-find over slots [0, n); path-halving find, arbitrary union. *)
let union_find n =
  let parent = Array.init n Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let r = find p in
      parent.(i) <- r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  (find, union)

(* The region keys of a plan whose classes hold [async]/[delay] seams
   back into themselves. A component of a class (joined to the rest only
   through runtime sources) leaves it as a region of its own, a {e
   branch}, when it holds no display and every async/delay boundary it
   feeds lies in its class: it only reads the class's sources and hands
   its results back through the dispatcher (the §5 shape, [pair (lift f
   x) (async (lift slow x))]). A component with a seam into another class
   stays, and so does a class's last component. A slot's key is its
   class, or for a branch member [-1 - its component]; a source sits with
   the readers its class keeps, or with its first branch reader when its
   class keeps none. Returns the key and, per source slot, its readers'
   keys (newest first): every reader region but the source's own gets a
   shadow slot of it. [deps.(i)] are slot [i]'s synchronous dependency
   slots (none for an async/delay node) and [cuts] the (inner, boundary)
   slot pairs. *)
let branches ~n ~deps ~sources ~root ~find cuts =
  let is_source = Array.make n false in
  List.iter (fun i -> is_source.(i) <- true) sources;
  let comp, join = union_find n in
  Array.iteri
    (fun i ds -> List.iter (fun d -> if not is_source.(d) then join d i) ds)
    deps;
  let stays = Array.make n false in  (* component -> not a branch *)
  List.iter
    (fun (inner, b) -> if find inner <> find b then stays.(comp inner) <- true)
    cuts;
  stays.(comp root) <- true;
  let kept = Array.make n false in  (* class -> keeps a component *)
  for i = 0 to n - 1 do
    if (not is_source.(i)) && stays.(comp i) then kept.(find i) <- true
  done;
  let key i =
    if (not is_source.(i)) && (not stays.(comp i)) && kept.(find i) then
      -1 - comp i
    else find i
  in
  let readers = Array.make n [] in
  Array.iteri
    (fun i ds ->
      List.iter
        (fun d ->
          if is_source.(d) && not (List.mem (key i) readers.(d)) then
            readers.(d) <- key i :: readers.(d))
        ds)
    deps;
  let key i =
    match readers.(i) with
    | _ :: _ as ks when not (List.mem (find i) ks) -> List.hd (List.rev ks)
    | _ -> key i
  in
  (key, readers)

let plan : type r. r Signal.t -> plan =
 fun root ->
  let order = Signal.reachable root in
  let root_id = Signal.id root in
  let reach = Reach.analyze root in
  let n = List.length order in
  let slot_of = Hashtbl.create n in
  List.iteri
    (fun i (Signal.Pack s) -> Hashtbl.replace slot_of (Signal.id s) i)
    order;
  let slot id = Hashtbl.find slot_of id in
  let order_arr = Array.of_list order in
  let slot_ids = Array.map (fun (Signal.Pack s) -> Signal.id s) order_arr in
  let slot_names = Array.map (fun (Signal.Pack s) -> Signal.name s) order_arr in
  (* The synchronous dependency slots of every slot; the edges into
     async/delay nodes are cut. *)
  let cuts = ref [] in
  let deps =
    Array.map
      (fun (Signal.Pack s) ->
        match Signal.kind s with
        | Signal.Async inner | Signal.Delay (_, inner) ->
          cuts := (Signal.id inner, Signal.id s) :: !cuts;
          []
        | _ ->
          List.map (fun (Signal.Pack d) -> slot (Signal.id d)) (Signal.deps s))
      order_arr
  in
  let find, union = union_find n in
  Array.iteri (fun i ds -> List.iter (fun d -> union d i) ds) deps;
  (* The synchronous classes are the regions, unless a class holds a seam
     back into itself: then its branches split off. *)
  let slot_cuts = List.map (fun (inner, b) -> (slot inner, slot b)) !cuts in
  let key, readers =
    if List.for_all (fun (inner, b) -> find inner <> find b) slot_cuts then
      (find, [||])
    else
      branches ~n ~deps ~sources:(List.map slot (Reach.sources reach))
        ~root:(slot root_id) ~find slot_cuts
  in
  let index_of_class = Hashtbl.create 16 in
  let region_at = Array.make n 0 in  (* slot -> region index *)
  let count = ref 0 in
  for i = 0 to n - 1 do
    let k = key i in
    region_at.(i) <-
      (match Hashtbl.find_opt index_of_class k with
      | Some r -> r
      | None ->
        let r = !count in
        incr count;
        Hashtbl.replace index_of_class k r;
        r)
  done;
  let region_of = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace region_of id region_at.(i)) slot_ids;
  let buckets = Array.make !count [] in  (* region index -> members, reversed *)
  Array.iteri
    (fun i p -> buckets.(region_at.(i)) <- p :: buckets.(region_at.(i)))
    order_arr;
  let regions =
    List.init !count (fun i ->
        let rev_members = buckets.(i) in
        let (Signal.Pack rep) = List.hd rev_members in
        let members = List.rev rev_members in
        {
          rg_index = i;
          rg_rep = Signal.id rep;
          rg_name = Signal.name rep;
          rg_members = members;
          rg_member_ids = List.map (fun (Signal.Pack s) -> Signal.id s) members;
        })
  in
  (* ---- template compilation ---- *)
  (* Shadow slots follow the node slots: one per (region, source) pair
     where the region reads a source that sits in another region. A wake
     of the source writes each of them in its region's own round, so two
     regions never share a written slot. *)
  let shadows = ref [] in  (* (region, source id), reversed *)
  Array.iteri
    (fun src ks ->
      List.iter
        (fun k ->
          let r = Hashtbl.find index_of_class k in
          if r <> region_at.(src) then
            shadows := (r, slot_ids.(src)) :: !shadows)
        ks)
    readers;
  let shadows = Array.of_list (List.sort compare !shadows) in
  let shadow_slot = Hashtbl.create 4 in
  Array.iteri (fun k rs -> Hashtbl.replace shadow_slot rs (n + k)) shadows;
  let shadow_src = Array.map (fun (_, src) -> slot src) shadows in
  (* The slot a node reads a dependency from: the dependency's own, or
     the reader region's shadow of it. *)
  let dep_slot ~reader d =
    if Array.length shadows = 0 then slot d
    else
      match Hashtbl.find_opt shadow_slot (Hashtbl.find region_of reader, d) with
      | Some sl -> sl
      | None -> slot d
  in
  let defaults =
    obj_array (n + Array.length shadows) (fun i ->
        let i = if i < n then i else shadow_src.(i - n) in
        let (Signal.Pack s) = order_arr.(i) in
        Obj.repr (Signal.default s))
  in
  let id_stride = Array.fold_left (fun a id -> max a (id + 1)) 1 slot_ids in
  (* Structural keys: the identity a slot keeps when the program is rebuilt
     (node ids are minted fresh per build, so they cannot serve). A key is
     kind + name + the dependency keys, computed deps-first over the same
     deterministic topological order everything else uses; repeated
     identical subtrees are disambiguated by an occurrence counter, which
     matches across builds because the traversal order does. Long keys
     (deep chains nest their whole ancestry) are digested to stay O(1) per
     slot while remaining deterministic. *)
  let keys =
    let key_of = Hashtbl.create n in
    let occurrences = Hashtbl.create n in
    Array.map
      (fun (Signal.Pack s) ->
        let dep_keys =
          List.map
            (fun (Signal.Pack d) -> Hashtbl.find key_of (Signal.id d))
            (Signal.deps s)
        in
        let extra =
          match Signal.kind s with
          | Signal.Delay (d, _) -> Printf.sprintf "@%h" d
          | Signal.Composite (c, _) ->
            "=" ^ String.concat "." c.Signal.comp_names
          | _ -> ""
        in
        let raw =
          Printf.sprintf "%s:%s%s(%s)" (Signal.kind_name s) (Signal.name s)
            extra
            (String.concat "," dep_keys)
        in
        let raw =
          if String.length raw <= 120 then raw
          else
            Printf.sprintf "%s:%s~%s" (Signal.kind_name s) (Signal.name s)
              (Digest.to_hex (Digest.string raw))
        in
        let occ =
          match Hashtbl.find_opt occurrences raw with Some k -> k | None -> 0
        in
        Hashtbl.replace occurrences raw (occ + 1);
        let key = if occ = 0 then raw else Printf.sprintf "%s#%d" raw occ in
        Hashtbl.replace key_of (Signal.id s) key;
        key)
      order_arr
  in
  let n_state = ref 0 in
  let state_inits = ref [] in
  let state_nodes = ref [] in
  let state_slot ~node init =
    let k = !n_state in
    incr n_state;
    state_inits := init :: !state_inits;
    state_nodes := node :: !state_nodes;
    k
  in
  let inputs = ref [] in
  (* Deterministic op order: primary key is the node's global topological
     position, secondary key orders a node's extra ops (async or delay
     taps) right after its member op, in their boundary nodes' order. An
     op is filed under the node whose dirty bit drives it (a member under
     itself, a tap under its inner node), which decides the schedules it
     joins, and it records the node it serves. *)
  let acc = Array.make !count [] in
  let add_op ~node ~serves op =
    let idx = Hashtbl.find region_of node in
    let rank = if node = serves then 0 else 1 + slot serves in
    acc.(idx) <- ((slot node, rank), (node, serves, op)) :: acc.(idx)
  in
  let root_slot = slot root_id in
  (* A member op: computes whether the node changed and, for an observer,
     appends the emission. The root's also sends the display, the one
     real message a region step still has: to the lane's sink if it has
     one, otherwise as an effect. *)
  let member ~id compute =
    let root = id = root_id in
    add_op ~node:id ~serves:id (fun x r ->
        let changed = compute x r in
        let epoch = r.epoch in
        if x.x_observing then
          Queue.push (Observe { epoch; node = id; changed }) x.x_effects;
        if root then begin
          let value = x.x_arena.ar_values.(root_slot) in
          match x.x_display with
          | None -> Queue.push (Display { epoch; changed; value }) x.x_effects
          | Some f -> f ~epoch ~changed value
        end)
  in
  (* A source member writes the round's value: it runs only in its own
     source's schedule, since no other source reaches it. *)
  let source_member ~id =
    let sl = slot id in
    member ~id (fun x r -> set x sl r r.value)
  in
  (* A computing member: recomputes when any dependency slot is dirty this
     epoch, applying the user function directly inside [match ... with
     exception], so a changed op allocates nothing of its own. The emitted
     body a pipelined consumer would cache as [e_last] is exactly
     [ar_values.(slot)]. Each arm reads and writes its own slot inside its
     typed GADT scope, which is what makes the [Obj] erasure safe: no
     other code ever touches that slot. *)
  let build_node : type x. x Signal.t -> unit =
   fun s ->
    let id = Signal.id s in
    let rd d = dep_slot ~reader:id (Signal.id d) in
    match Signal.kind s with
    | Signal.Constant -> source_member ~id
    | Signal.Lift_list (_, []) ->
      (* No incoming edges: behaves as a never-firing constant. *)
      source_member ~id
    | Signal.Input ->
      source_member ~id;
      inputs := Signal.Pack s :: !inputs
    | Signal.Async inner | Signal.Delay (_, inner) ->
      source_member ~id;
      let si = slot (Signal.id inner) in
      let delay =
        match Signal.kind s with Signal.Delay (d, _) -> Some d | _ -> None
      in
      (* The tap replaces the pipelined forwarder thread: ordered right
         after the inner node's op, it sees the freshly written slot and
         registers a new global event per change, at once or after the
         delay — the Fig. 8(c) boundary. [stamp = epoch] iff the inner
         node changed this round. *)
      add_op ~node:(Signal.id inner) ~serves:id (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(si) = r.epoch then
            let epoch = r.epoch and value = ar.ar_values.(si) in
            Queue.push
              (match delay with
              | None -> Fire { epoch; source = id; value }
              | Some seconds -> Delay { epoch; node = id; seconds; value })
              x.x_effects)
    | Signal.Lift1 (f, a) ->
      let sl = slot id and sa = rd a in
      member ~id (fun x r ->
          let ar = x.x_arena in
          ar.ar_stamps.(sa) = r.epoch
          && (applied x;
              match f (Obj.obj ar.ar_values.(sa)) with
              | v -> set x sl r v
              | exception e -> failed x sl r e))
    | Signal.Lift2 (f, a, b) ->
      let sl = slot id
      and sa = rd a
      and sb = rd b in
      member ~id (fun x r ->
          let ar = x.x_arena in
          (ar.ar_stamps.(sa) = r.epoch || ar.ar_stamps.(sb) = r.epoch)
          && (applied x;
              match f (Obj.obj ar.ar_values.(sa)) (Obj.obj ar.ar_values.(sb)) with
              | v -> set x sl r v
              | exception e -> failed x sl r e))
    | Signal.Lift3 (f, a, b, d) ->
      let sl = slot id
      and sa = rd a
      and sb = rd b
      and sd = rd d in
      member ~id (fun x r ->
          let ar = x.x_arena in
          (ar.ar_stamps.(sa) = r.epoch
          || ar.ar_stamps.(sb) = r.epoch
          || ar.ar_stamps.(sd) = r.epoch)
          && (applied x;
              match
                f
                  (Obj.obj ar.ar_values.(sa))
                  (Obj.obj ar.ar_values.(sb))
                  (Obj.obj ar.ar_values.(sd))
              with
              | v -> set x sl r v
              | exception e -> failed x sl r e))
    | Signal.Lift4 (f, a, b, d, e) ->
      let sl = slot id
      and sa = rd a
      and sb = rd b
      and sd = rd d
      and se = rd e in
      member ~id (fun x r ->
          let ar = x.x_arena in
          (ar.ar_stamps.(sa) = r.epoch
          || ar.ar_stamps.(sb) = r.epoch
          || ar.ar_stamps.(sd) = r.epoch
          || ar.ar_stamps.(se) = r.epoch)
          && (applied x;
              match
                f
                  (Obj.obj ar.ar_values.(sa))
                  (Obj.obj ar.ar_values.(sb))
                  (Obj.obj ar.ar_values.(sd))
                  (Obj.obj ar.ar_values.(se))
              with
              | v -> set x sl r v
              | exception e -> failed x sl r e))
    | Signal.Lift_list (f, ds) ->
      let sl = slot id in
      let sds = List.map rd ds in
      member ~id (fun x r ->
          let ar = x.x_arena in
          any_dirty ar r.epoch sds
          && (applied x;
              match f (List.map (fun sd -> Obj.obj ar.ar_values.(sd)) sds) with
              | v -> set x sl r v
              | exception e -> failed x sl r e))
    | Signal.Foldp (f, src) ->
      let sl = slot id and ss = rd src in
      let init = Signal.default s in
      (* A [Restart] re-seeds the accumulator slot at the next fold step —
         the same observable schedule as the pipelined deferral: downstream
         reads keep the last-good value until the restarted fold runs
         again, even in rounds that run the op without a change of its
         source (a quiet dependency). The flag is a plain bool
         state slot, so clones inherit a pending restart faithfully. *)
      let k = state_slot ~node:id (Obj.repr false) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          ar.ar_stamps.(ss) = r.epoch
          && (if (Obj.obj ar.ar_state.(k) : bool) then begin
                ar.ar_state.(k) <- Obj.repr false;
                ar.ar_values.(sl) <- Obj.repr init
              end;
              x.x_stats.Stats.fold_steps <- x.x_stats.Stats.fold_steps + 1;
              match f (Obj.obj ar.ar_values.(ss)) (Obj.obj ar.ar_values.(sl)) with
              | v -> set x sl r (v : x)
              | exception e ->
                if x.x_fail.(sl) ~epoch:r.epoch e then
                  ar.ar_state.(k) <- Obj.repr true;
                false))
    | Signal.Merge (a, b) ->
      let sl = slot id
      and sa = rd a
      and sb = rd b in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(sa) = r.epoch then set x sl r ar.ar_values.(sa)
          else ar.ar_stamps.(sb) = r.epoch && set x sl r ar.ar_values.(sb))
    | Signal.Drop_repeats (eq, src) ->
      let sl = slot id and ss = rd src in
      member ~id (fun x r ->
          let ar = x.x_arena in
          ar.ar_stamps.(ss) = r.epoch
          && (* The user-supplied equality can raise too. *)
          (match
             eq (Obj.obj ar.ar_values.(ss)) (Obj.obj ar.ar_values.(sl) : x)
           with
          | false -> set x sl r ar.ar_values.(ss)
          | true -> false
          | exception e -> failed x sl r e))
    | Signal.Sample_on (ticks, src) ->
      let sl = slot id
      and st = rd ticks
      and ss = rd src in
      member ~id (fun x r ->
          let ar = x.x_arena in
          ar.ar_stamps.(st) = r.epoch && set x sl r ar.ar_values.(ss))
    | Signal.Keep_when (gate, src, _base) ->
      let sl = slot id
      and sg = rd gate
      and ss = rd src in
      (* Tracks the gate across the rounds that reach this node, exactly
         like the pipelined loop's [gate_prev] parameter: emit while open,
         and on the rising edge to resynchronize with the source. *)
      let k = state_slot ~node:id (Obj.repr (Signal.default gate)) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          let gate_now : bool = Obj.obj ar.ar_values.(sg) in
          let rising = gate_now && not (Obj.obj ar.ar_state.(k) : bool) in
          ar.ar_state.(k) <- Obj.repr gate_now;
          gate_now
          && (ar.ar_stamps.(ss) = r.epoch || rising)
          && set x sl r ar.ar_values.(ss))
    | Signal.Composite (comp, dep) ->
      let sl = slot id and sd = rd dep in
      (* The chain's cells are ordinary state slots [k, k + n): plain data,
         copied by [clone_arena] and carried across upgrades like any other
         state. A [Restart] re-seeds them from the composite's initial
         cells, re-seeding every fused stage. A filtering stage answers
         with the [Signal.filtered] sentinel, a value, so nothing a user
         function raises can read as "no change". *)
      let cells = comp.Signal.comp_cells in
      let k = !n_state in
      Array.iter (fun c -> ignore (state_slot ~node:id c)) cells;
      let step = comp.Signal.comp_step in
      member ~id (fun x r ->
          let ar = x.x_arena in
          ar.ar_stamps.(sd) = r.epoch
          && (applied x;
              match step ar.ar_state k (Obj.obj ar.ar_values.(sd)) with
              | w -> Obj.repr w != Signal.filtered && set x sl r (w : x)
              | exception e ->
                if x.x_fail.(sl) ~epoch:r.epoch e then
                  Array.blit cells 0 ar.ar_state k (Array.length cells);
                false))
  in
  List.iter (fun (Signal.Pack s) -> build_node s) order;
  let sort entries =
    List.sort (fun ((k1 : int * int), _) (k2, _) -> compare k1 k2) entries
  in
  let sorted = Array.map sort acc in
  let schedule ~region ~root ?(parts = [||]) entries =
    {
      sc_region = region;
      sc_root = root;
      sc_ops = Array.of_list (List.map (fun (_, (_, _, op)) -> op) entries);
      sc_nodes =
        Array.of_list (List.map (fun (_, (_, serves, _)) -> serves) entries);
      sc_parts = parts;
    }
  in
  (* A region's shadow writers, keyed like the source's own member op. *)
  let writers = Array.make !count [] in
  Array.iteri
    (fun k (r, src) ->
      let sl = n + k in
      writers.(r) <-
        ((slot src, 0), (src, src, fun x r -> ignore (set x sl r r.value)))
        :: writers.(r))
    shadows;
  let root_region = Hashtbl.find region_of root_id in
  (* Per-source schedules, the Asynchronous Modal FRP clock of a source: a
     wake runs exactly the ops whose driving node the source reaches. A
     source read by other regions through shadows has one part per region
     it touches instead, each led by that region's writer of the source:
     its own member op, or a shadow writer. *)
  let schedules = Hashtbl.create 16 in
  List.iter
    (fun src ->
      let in_cone node = Reach.affects reach ~source:src ~node in
      let cone = List.filter (fun (_, (node, _, _)) -> in_cone node) in
      let region = Hashtbl.find region_of src in
      let root = in_cone root_id in
      let others =
        Array.fold_right
          (fun (r, s) acc -> if s = src then r :: acc else acc)
          shadows []
      in
      Hashtbl.replace schedules src
        (match others with
        | [] -> schedule ~region ~root (cone sorted.(region))
        | _ ->
          let touched = List.sort_uniq compare (region :: others) in
          let parts =
            List.map
              (fun r ->
                schedule ~region:r
                  ~root:(root && r = root_region)
                  (cone (sort (sorted.(r) @ writers.(r)))))
              touched
          in
          schedule ~region ~root ~parts:(Array.of_list parts) []))
    (Reach.sources reach);
  let name_of = Hashtbl.create 64 in
  List.iter
    (fun (Signal.Pack s) -> Hashtbl.replace name_of (Signal.id s) (Signal.name s))
    order;
  let sources =
    List.filter_map
      (fun sid -> Option.map (fun nm -> (sid, nm)) (Hashtbl.find_opt name_of sid))
      (Reach.sources reach)
  in
  (* Seeded, then filled: [Array.of_list] would flatten a float first
     initial value into a float array (see [obj_array]). *)
  let state_init = Array.make !n_state (Obj.repr 0) in
  List.iteri (fun i v -> state_init.(i) <- v) (List.rev !state_inits);
  let state_node = Array.of_list (List.rev !state_nodes) in
  {
    p_regions = regions;
    p_region_of = region_of;
    p_cuts = List.rev !cuts;
    p_reach = reach;
    p_nodes = n;
    p_slot_of = slot_of;
    p_slot_ids = slot_ids;
    p_slot_names = slot_names;
    p_keys = keys;
    p_id_stride = id_stride;
    p_defaults = defaults;
    p_state_init = state_init;
    p_state_node = state_node;
    p_reps = Array.of_list (List.map (fun rg -> rg.rg_rep) regions);
    p_schedules = schedules;
    p_shadow_src = shadow_src;
    p_root_region = root_region;
    p_sources = sources;
    p_propagate = Array.make n propagate;
    p_inputs = List.rev !inputs;
  }

let regions pl = pl.p_regions
let region_of pl id = Hashtbl.find_opt pl.p_region_of id
let cuts pl = pl.p_cuts
let reach pl = pl.p_reach
let node_count pl = pl.p_nodes
let id_stride pl = pl.p_id_stride
let sources pl = pl.p_sources
let inputs pl = pl.p_inputs
let slot pl id = try Hashtbl.find pl.p_slot_of id with Not_found -> -1
let propagate_handlers pl = pl.p_propagate
let region_count pl = Array.length pl.p_reps
let region_rep pl i = pl.p_reps.(i)
let root_region pl = pl.p_root_region
let shadow_sources pl = pl.p_shadow_src

let no_schedule =
  {
    sc_region = -1;
    sc_root = false;
    sc_ops = [||];
    sc_nodes = [||];
    sc_parts = [||];
  }

let schedule pl source =
  match Hashtbl.find pl.p_schedules source with
  | sc -> sc
  | exception Not_found -> no_schedule
let slot_ids pl = pl.p_slot_ids
let slot_names pl = pl.p_slot_names
let slot_keys pl = pl.p_keys
let defaults pl = pl.p_defaults
let state_count pl = Array.length pl.p_state_init
let state_node pl k = pl.p_state_node.(k)
let state_initial pl k = pl.p_state_init.(k)
let group_count = region_count

(* ------------------------------------------------------------------ *)
(* Plan cache *)

(* Memoised on the root node itself, as [Fuse.fuse_cached] memoises the
   fused root: graphs are immutable after construction, so a resolved plan
   stays valid for as long as its root is alive, dies with it (test suites
   churning through thousands of generated graphs pin nothing), and is
   never evicted under another domain's feet — every caller agrees on one
   canonical plan per root. [clear_plan_cache] invalidates every memo at
   once by bumping [cache_generation] — the [Fuse.fuse_cached] memos too,
   which are stamped with the same generation.

   Memo reads and writes are serialised by [cache_lock] (several domains
   may resolve the same root). The (pure, allocation-heavy) [plan] build
   itself runs outside the lock; a race that builds the same plan twice
   keeps the first memoised one. *)
type Signal.memo += Plan of int * plan  (* cache generation, plan *)

let cache_lock = Mutex.create ()
let generation = Atomic.make 0
let cache_generation () = Atomic.get generation
let cache_hits = ref 0
let cache_misses = ref 0
let cache_entries = ref 0

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
}

let plan_cache_stats () =
  Mutex.lock cache_lock;
  let s =
    { hits = !cache_hits; misses = !cache_misses; entries = !cache_entries }
  in
  Mutex.unlock cache_lock;
  s

let clear_plan_cache () =
  Mutex.lock cache_lock;
  Atomic.incr generation;
  cache_entries := 0;
  Mutex.unlock cache_lock

(* Call with [cache_lock] held. *)
let memoised root =
  match Signal.get_memo root with
  | Some (Plan (g, pl)) when g = Atomic.get generation -> Some pl
  | _ -> None

let plan_of root =
  Mutex.lock cache_lock;
  match memoised root with
  | Some pl ->
    incr cache_hits;
    Mutex.unlock cache_lock;
    pl
  | None ->
    incr cache_misses;
    Mutex.unlock cache_lock;
    let pl = plan root in
    Mutex.lock cache_lock;
    let pl =
      match memoised root with
      | Some winner -> winner (* another domain built it first: keep theirs *)
      | None ->
        Signal.set_memo root (Plan (Atomic.get generation, pl));
        incr cache_entries;
        pl
    in
    Mutex.unlock cache_lock;
    pl

(* ------------------------------------------------------------------ *)
(* Arenas *)

(* [Array.copy] keeps the generic block representation of its source, so
   copies of [obj_array]-built blocks never turn into flat float arrays. *)
let new_arena pl =
  {
    ar_values = Array.copy pl.p_defaults;
    ar_stamps = Array.make (Array.length pl.p_defaults) 0;
    ar_state = Array.copy pl.p_state_init;
  }

let clone_arena ar =
  {
    ar_values = Array.copy ar.ar_values;
    ar_stamps = Array.copy ar.ar_stamps;
    ar_state = Array.copy ar.ar_state;
  }

(* ------------------------------------------------------------------ *)
(* DOT rendering with region clusters (felmc graph --compiled) *)

let to_dot ?(label = "signal graph (compiled regions)") root =
  let pl = plan_of root in
  let nodes = Signal.reachable root in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph signals {\n";
  pr "  label=\"%s\";\n" (Signal.dot_escape label);
  pr "  rankdir=TB;\n";
  pr "  dispatcher [label=\"Global Event\\nDispatcher\", shape=box, style=dashed];\n";
  List.iter
    (fun rg ->
      let n = List.length rg.rg_members in
      pr "  subgraph cluster_region_%d {\n" rg.rg_index;
      pr "    label=\"region %d: %s (%d node%s, 1 step)\";\n" rg.rg_index
        (Signal.dot_escape rg.rg_name) n (if n = 1 then "" else "s");
      pr "    style=dashed;\n";
      List.iter
        (fun (Signal.Pack s) ->
          match Signal.kind s with
          | Signal.Composite (c, _) ->
            pr "    n%d [label=\"%s\\n(%d nodes fused)\", shape=box3d];\n"
              (Signal.id s)
              (Signal.dot_escape (Signal.name s))
              c.Signal.comp_size
          | _ ->
            let shape = if Signal.is_source s then "ellipse" else "box" in
            pr "    n%d [label=\"%s\", shape=%s];\n" (Signal.id s)
              (Signal.dot_escape (Signal.name s))
              shape)
        rg.rg_members;
      pr "  }\n")
    pl.p_regions;
  List.iter
    (fun (Signal.Pack s) ->
      if Signal.is_source s || Signal.deps s = [] then
        pr "  dispatcher -> n%d [style=dashed];\n" (Signal.id s);
      match Signal.kind s with
      | Signal.Async inner | Signal.Delay (_, inner) ->
        pr "  n%d -> dispatcher [style=dotted, label=\"new event\"];\n"
          (Signal.id inner)
      | _ ->
        List.iter
          (fun (Signal.Pack d) -> pr "  n%d -> n%d;\n" (Signal.id d) (Signal.id s))
          (Signal.deps s))
    nodes;
  pr "}\n";
  Buffer.contents buf
