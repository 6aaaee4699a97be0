module Mailbox = Cml.Mailbox
module Multicast = Cml.Multicast

(* NOTE: [backend] is declared before [mode] on purpose: both have a
   [Pipelined] constructor, and declaration order makes the unqualified
   name keep meaning the execution [mode] everywhere (existing call sites);
   backend positions are annotated and resolved by expected type. *)
type backend =
  | Pipelined
  | Compiled

type mode =
  | Pipelined
  | Sequential

type dispatch =
  | Flood
  | Cone

type error_policy = Exec.error_policy =
  | Propagate
  | Isolate
  | Restart of int

(* One pipelined dispatcher round: the global event number and the source
   that fired it. Under flood dispatch every node receives every round;
   under cone dispatch only the nodes the source can reach do. The value
   travels apart, in the source node's value mailbox (Fig. 10). *)
type round = {
  epoch : int;
  source : int;
}

(* Planted ordering bugs for the schedule-exploration checker (Check.Explore).
   Each breaks the per-event alignment protocol in a way that is invisible to
   a lucky schedule but must be caught by the checker's invariants; [Mutate]
   in lib/check asserts exactly that. The [int] selects the nth occurrence
   (1-based) so a mutation lands mid-run, after the graph has warmed up. *)
type mutation =
  | Drop_no_change of int  (* swallow the nth No_change emission *)
  | Skip_epoch of int  (* stamp the nth emission with its previous epoch *)
  | Reorder_wakeup of int
      (* hold the nth dispatcher wakeup and deliver it after the next round
         bound for the same node: an out-of-order mailbox admit *)

type mut_state = {
  m_spec : mutation;
  mutable m_count : int;
  mutable m_held : (round Mailbox.t * round) option;  (* Reorder_wakeup *)
  m_last_stamp : (int, int) Hashtbl.t;  (* node -> last stamped epoch *)
}

(* A bounded newest-first history and the latest value logged. *)
type ('k, 'a) log = {
  mutable latest : 'a;
  mutable rev : ('k * 'a) list;
  mutable count : int;
  cap : int option;
}

type 'a t = {
  gen : int;
  stats : Stats.t;
  nodes : int;
  changes : (float, 'a) log;
  messages : (float, 'a Event.t) log;
  listeners : (float -> 'a -> unit) Queue.t;
  mutable stopped : bool;
  owned_pool : Pool.t option;
      (* a pool created by [start ~domains:k] (k > 1), closed by [stop];
         a caller-supplied [?pool] is never closed here *)
  d_stats : Stats.t array;
      (* per-worker-slot attribution under wave placement; [[||]]
         otherwise *)
}

(* A runtime's delay timer, on either backend: every pending delayed
   value waits in one Delay_heap and re-enters, once due, in the heap's
   (due, epoch, node) order, so equal-due wakes leave in an order the
   program fixes, not the scheduler. One sleeper is live: a push that
   lowers the heap's minimum below its wake time spawns a new one (the
   old one exits when it wakes), and a sleeper that has re-entered
   everything due sleeps on until the next minimum. *)
type 'a timer = {
  t_heap : 'a Delay_heap.t;
  mutable t_armed : float;  (* the live sleeper's wake time; infinity: none *)
  t_reenter : 'a -> int -> Obj.t -> unit;
}

let new_timer reenter =
  { t_heap = Delay_heap.create (); t_armed = infinity; t_reenter = reenter }

let rec sleeper t at =
  Cml.Scheduler.sleep_until at;
  if t.t_armed = at then begin
    while Delay_heap.min_due t.t_heap <= Cml.now () do
      Delay_heap.pop t.t_heap t.t_reenter
    done;
    t.t_armed <- Delay_heap.min_due t.t_heap;
    if t.t_armed < infinity then sleeper t t.t_armed
  end

let schedule t ~epoch ~node ~seconds x v =
  let due = Cml.now () +. seconds in
  Delay_heap.push t.t_heap ~due ~epoch ~node x v;
  if due < t.t_armed then begin
    t.t_armed <- due;
    Cml.spawn (fun () -> sleeper t due)
  end

type ctx = {
  rt_gen : int;
  memoize : bool;
  c_dispatch : dispatch;
  c_policy : error_policy;
  c_capacity : int option;  (* wake/value mailbox bound; None = unbounded *)
  c_stats : Stats.t;
  c_new_event : int Mailbox.t;
  c_timer : (Obj.t -> unit) timer;  (* entries re-enter through their closure *)
  c_reach : Reach.t;
  c_tracer : Trace.t option;
  c_observer : (node:int -> epoch:int -> changed:bool -> unit) option;
  c_mutate : mut_state option;
  wakeups : (int, round Mailbox.t) Hashtbl.t;
}

(* Runtime generations are minted from an [Atomic.t]: [start] may be
   called concurrently from several domains (pool workers opening
   runtimes), and the previous plain [ref]/[incr] could hand two runtimes
   the same generation — colliding every per-generation driver table in
   lib/std. [fetch_and_add] makes minting a single atomic RMW. *)
let generation = Atomic.make 0
let fresh_generation () = 1 + Atomic.fetch_and_add generation 1

(* Global stop hooks, run (with the runtime's generation) when a runtime
   is stopped. Input-library drivers register one per module to drop their
   per-generation state (held keys, ongoing touches) — without it, session
   churn grows those tables without bound. Mutex-guarded: registration
   happens at module init but may race with [stop] from another domain. *)
let stop_hooks : (int -> unit) list ref = ref []
let stop_hooks_lock = Mutex.create ()

let on_stop f =
  Mutex.lock stop_hooks_lock;
  stop_hooks := f :: !stop_hooks;
  Mutex.unlock stop_hooks_lock

(* [id] identifies the emitting node for the tracer's Node_end record; the
   untraced path is one load and branch, no allocation. The observer (when
   installed) sees the epoch actually stamped on the wire, so a [Skip_epoch]
   mutation is visible to the checker even on edges nobody re-validates. *)
let emit ctx ~id out r msg =
  let drop =
    match ctx.c_mutate with
    | Some ({ m_spec = Drop_no_change n; _ } as m)
      when not (Event.is_change msg) ->
      m.m_count <- m.m_count + 1;
      m.m_count = n
    | _ -> false
  in
  if not drop then begin
    let epoch =
      match ctx.c_mutate with
      | Some ({ m_spec = Skip_epoch n; _ } as m) ->
        m.m_count <- m.m_count + 1;
        let stale =
          match Hashtbl.find_opt m.m_last_stamp id with
          | Some e -> e
          | None -> 0
        in
        Hashtbl.replace m.m_last_stamp id r.epoch;
        if m.m_count = n then stale else r.epoch
      | _ -> r.epoch
    in
    ctx.c_stats.messages <- ctx.c_stats.messages + 1;
    Multicast.send out { Event.epoch; event = msg };
    (match ctx.c_observer with
    | None -> ()
    | Some f -> f ~node:id ~epoch ~changed:(Event.is_change msg));
    match ctx.c_tracer with
    | None -> ()
    | Some tr -> Trace.node_end tr ~node:id ~epoch:r.epoch
  end

(* Admit one round into a node's wakeup mailbox. With a [Reorder_wakeup]
   mutation armed, the nth admit is parked and released just after the next
   round bound for the same node — a genuinely out-of-order delivery. *)
let send_round ctx mb r =
  match ctx.c_mutate with
  | Some ({ m_spec = Reorder_wakeup n; _ } as m) -> (
    match m.m_held with
    | Some (hmb, hr) when hmb == mb ->
      m.m_held <- None;
      Mailbox.send mb r;
      Mailbox.send mb hr
    | _ ->
      m.m_count <- m.m_count + 1;
      if m.m_count = n then m.m_held <- Some (mb, r) else Mailbox.send mb r)
  | _ -> Mailbox.send mb r

(* The node's failure handler (see [Exec.handler]): one per node, so a
   [Restart] budget stays local to it. *)
let supervisor ctx s =
  Exec.handler ~policy:ctx.c_policy ~stats:ctx.c_stats ~tracer:ctx.c_tracer
    ~node:(Signal.id s)

(* An incoming edge, from the receiver's point of view. [last] caches the
   most recent body seen so that rounds the producer elided (its cone did
   not contain the firing source) can be synthesized as [No_change last]
   without any message having been sent. *)
type 'a edge = {
  e_port : 'a Event.stamped Multicast.port;
  e_sources : Reach.set;  (* sources reaching the producer *)
  mutable e_last : 'a;
}

let read_edge ctx e (r : round) =
  let active =
    match ctx.c_dispatch with
    | Flood -> true
    | Cone -> Reach.set_mem r.source e.e_sources
  in
  if active then begin
    let { Event.epoch; event } = Multicast.recv e.e_port in
    if epoch <> r.epoch then
      failwith
        (Printf.sprintf
           "Runtime: edge message for epoch %d while processing epoch %d \
            (per-event alignment violated)"
           epoch r.epoch);
    e.e_last <- Event.body event;
    event
  end
  else Event.No_change e.e_last

(* Every node kind of Fig. 10 is one thread over this loop: take the next
   round, let [step] read the node's inputs and answer it with exactly one
   message, emit that, and carry its body as the node's latest value. The
   kinds differ only in their [step]; node state beyond the latest value
   lives in the step's closure. The wakeup mailbox, registered with the
   dispatcher, receives one [round] per event whose cone contains the
   node; it is named so queue-depth probes can attribute backlog to the
   node. *)
let node ctx s step =
  let id = Signal.id s and name = Signal.name s in
  let out = Multicast.create ~name:(Printf.sprintf "out:%d:%s" id name) () in
  let wake =
    Mailbox.create ?capacity:ctx.c_capacity
      ~name:(Printf.sprintf "wake:%d:%s" id name) ()
  in
  Hashtbl.replace ctx.wakeups id wake;
  (match ctx.c_tracer with
  | None -> ()
  | Some tr -> Trace.register_node tr ~id ~name);
  Cml.spawn (fun () ->
      let rec loop prev =
        let r = Mailbox.recv wake in
        (match ctx.c_tracer with
        | None -> ()
        | Some tr -> Trace.node_start tr ~node:id ~epoch:r.epoch);
        let msg = step r prev in
        emit ctx ~id out r msg;
        loop (Event.body msg)
      in
      loop (Signal.default s));
  { Signal.gen = ctx.rt_gen; out; push = None }

(* Source nodes (inputs, constants, async): the Fig. 10 translation of
   ⟨id, mc, v⟩. A source answers the freshly arrived value, from its value
   mailbox, when the round is its own event, and [No_change] of its latest
   value otherwise (flood dispatch only — under cone dispatch a source is
   woken only by its own events). *)
let source ctx s =
  let value_mb =
    Mailbox.create ?capacity:ctx.c_capacity
      ~name:(Printf.sprintf "value:%d:%s" (Signal.id s) (Signal.name s))
      ()
  in
  let i =
    node ctx s (fun r prev ->
        if r.source = Signal.id s then Event.Change (Mailbox.recv value_mb)
        else Event.No_change prev)
  in
  (value_mb, i)

(* The step of a lift-style node. [round] reads one message per incoming
   edge (real or synthesized) and returns whether any of them changed plus a
   thunk recomputing the node's function on the current input bodies. *)
let lift ctx s round =
  let fail = supervisor ctx s in
  node ctx s (fun r prev ->
      let changed, compute = round r in
      if changed then begin
        ctx.c_stats.applications <- ctx.c_stats.applications + 1;
        match compute () with
        | v -> Event.Change v
        | exception e ->
          ignore (fail ~epoch:r.epoch e);
          Event.No_change prev
      end
      else begin
        if not ctx.memoize then begin
          ctx.c_stats.recomputations <- ctx.c_stats.recomputations + 1;
          match compute () with
          | _ -> ()
          | exception e -> ignore (fail ~epoch:r.epoch e)
        end;
        Event.No_change prev
      end)

let rec build : type b. ctx -> b Signal.t -> b Signal.inst =
 fun ctx s ->
  match Signal.get_inst s with
  | Some i when i.gen = ctx.rt_gen -> i
  | Some _ | None ->
    let i = build_fresh ctx s in
    Signal.set_inst s i;
    i

(* Build the producer of a dependency and subscribe an edge to it. *)
and edge : type b. ctx -> b Signal.t -> b edge =
 fun ctx dep ->
  let i = build ctx dep in
  {
    e_port = Multicast.port i.Signal.out;
    e_sources = Reach.reaching ctx.c_reach (Signal.id dep);
    e_last = Signal.default dep;
  }

and build_fresh : type b. ctx -> b Signal.t -> b Signal.inst =
 fun ctx s ->
  match Signal.kind s with
  | Signal.Constant | Signal.Lift_list (_, []) ->
    (* A source whose event never fires: under cone dispatch it is never
       woken at all; under flood it answers every round with [No_change
       default]. A lift_list of no signals is one: a node loop with no
       incoming edges would spin. *)
    snd (source ctx s)
  | Signal.Input ->
    let value_mb, i = source ctx s in
    let push v =
      (* Value first, notification second: when the dispatcher wakes this
         source's cone, the source thread finds the value waiting. *)
      Mailbox.send value_mb v;
      Mailbox.send ctx.c_new_event (Signal.id s)
    in
    { i with push = Some push }
  | Signal.Lift1 (f, a) ->
    let ea = edge ctx a in
    lift ctx s (fun r ->
        let ma = read_edge ctx ea r in
        (Event.is_change ma, fun () -> f (Event.body ma)))
  | Signal.Lift2 (f, a, b) ->
    let ea = edge ctx a in
    let eb = edge ctx b in
    lift ctx s (fun r ->
        let ma = read_edge ctx ea r in
        let mb = read_edge ctx eb r in
        ( Event.is_change ma || Event.is_change mb,
          fun () -> f (Event.body ma) (Event.body mb) ))
  | Signal.Lift3 (f, a, b, c) ->
    let ea = edge ctx a in
    let eb = edge ctx b in
    let ec = edge ctx c in
    lift ctx s (fun r ->
        let ma = read_edge ctx ea r in
        let mb = read_edge ctx eb r in
        let mc = read_edge ctx ec r in
        ( Event.is_change ma || Event.is_change mb || Event.is_change mc,
          fun () -> f (Event.body ma) (Event.body mb) (Event.body mc) ))
  | Signal.Lift4 (f, a, b, c, d) ->
    let ea = edge ctx a in
    let eb = edge ctx b in
    let ec = edge ctx c in
    let ed = edge ctx d in
    lift ctx s (fun r ->
        let ma = read_edge ctx ea r in
        let mb = read_edge ctx eb r in
        let mc = read_edge ctx ec r in
        let md = read_edge ctx ed r in
        ( Event.is_change ma || Event.is_change mb || Event.is_change mc
          || Event.is_change md,
          fun () ->
            f (Event.body ma) (Event.body mb) (Event.body mc) (Event.body md) ))
  | Signal.Lift_list (f, ds) ->
    let edges = List.map (fun d -> edge ctx d) ds in
    lift ctx s (fun r ->
        let msgs = List.map (fun e -> read_edge ctx e r) edges in
        ( List.exists Event.is_change msgs,
          fun () -> f (List.map Event.body msgs) ))
  | Signal.Foldp (f, src) ->
    let e = edge ctx src in
    let fail = supervisor ctx s in
    (* A [Restart] re-seeds the accumulator with the signal default; the
       flag defers it to the next round, so the failed round's [No_change
       acc] still goes out and downstream caches hold the last-good value
       until the restarted fold produces its next genuine change. *)
    let restart = ref false in
    node ctx s (fun r acc ->
        let acc =
          if !restart then begin
            restart := false;
            Signal.default s
          end
          else acc
        in
        match read_edge ctx e r with
        | Event.Change v -> (
          ctx.c_stats.fold_steps <- ctx.c_stats.fold_steps + 1;
          match f v acc with
          | acc' -> Event.Change acc'
          | exception ex ->
            restart := fail ~epoch:r.epoch ex;
            Event.No_change acc)
        | Event.No_change _ -> Event.No_change acc)
  | Signal.Async inner | Signal.Delay (_, inner) ->
    (* Fig. 10's async translation, shared by [delay]: build the inner
       subgraph normally, then forward each of its changes to a fresh
       source node as a new global event, at once ([async]) or through the
       runtime's delay timer, [d] virtual seconds later. Ordering between
       the subgraph and the rest of the program is thereby relaxed, but
       preserved within each. The forwarder is not a graph node: it
       consumes whatever the inner subgraph emits, at whatever epochs it
       was affected. *)
    let inner_port = Multicast.port (build ctx inner).Signal.out in
    let value_mb, i = source ctx s in
    let source_id = Signal.id s in
    let reenter v =
      Mailbox.send value_mb (Obj.obj v);
      Mailbox.send ctx.c_new_event source_id
    in
    let rec forward () =
      (match (Multicast.recv inner_port, Signal.kind s) with
      | { Event.epoch; event = Event.Change v }, Signal.Delay (d, _) ->
        schedule ctx.c_timer ~epoch ~node:source_id ~seconds:d reenter
          (Obj.repr v)
      | { event = Event.Change v; _ }, _ ->
        ctx.c_stats.async_events <- ctx.c_stats.async_events + 1;
        reenter (Obj.repr v)
      | { event = Event.No_change _; _ }, _ -> ());
      forward ()
    in
    Cml.spawn forward;
    i
  | Signal.Merge (a, b) ->
    let ea = edge ctx a in
    let eb = edge ctx b in
    node ctx s (fun r prev ->
        let ma = read_edge ctx ea r in
        let mb = read_edge ctx eb r in
        match (ma, mb) with
        | Event.Change v, _ | Event.No_change _, Event.Change v ->
          Event.Change v
        | Event.No_change _, Event.No_change _ -> Event.No_change prev)
  | Signal.Drop_repeats (eq, src) ->
    let e = edge ctx src in
    let fail = supervisor ctx s in
    node ctx s (fun r prev ->
        match read_edge ctx e r with
        | Event.Change v -> (
          (* The user-supplied equality can raise too. *)
          match eq v prev with
          | false -> Event.Change v
          | true -> Event.No_change prev
          | exception ex ->
            ignore (fail ~epoch:r.epoch ex);
            Event.No_change prev)
        | Event.No_change _ -> Event.No_change prev)
  | Signal.Sample_on (ticks, src) ->
    let et = edge ctx ticks in
    let es = edge ctx src in
    node ctx s (fun r prev ->
        let mt = read_edge ctx et r in
        let ms = read_edge ctx es r in
        if Event.is_change mt then Event.Change (Event.body ms)
        else Event.No_change prev)
  | Signal.Composite (c, dep) ->
    (* A fused chain (see {!Fuse}): one thread and one channel in place of
       [comp_size] originals. Each instantiation gets its own copy of the
       chain's cells, so stateful stages (fused [drop_repeats]) never leak
       state across runtimes. Composites always memoize — the step is
       stateful, so the [memoize:false] recompute-always baseline cannot
       safely re-run it on quiescent rounds (and [Runtime.start
       ~memoize:false] keeps graphs unfused for exactly that reason). A
       crash anywhere inside the chain isolates (or restarts) the
       composite as a unit: the stages share one step, so partial
       per-stage state cannot be salvaged. [Restart] re-seeds every cell
       from the composite's initial values. *)
    let e = edge ctx dep in
    let cells = Array.copy c.Signal.comp_cells in
    let fail = supervisor ctx s in
    node ctx s (fun r prev ->
        match read_edge ctx e r with
        | Event.Change v -> (
          ctx.c_stats.applications <- ctx.c_stats.applications + 1;
          match c.Signal.comp_step cells 0 v with
          | w when Obj.repr w == Signal.filtered -> Event.No_change prev
          | w -> Event.Change w
          | exception ex ->
            if fail ~epoch:r.epoch ex then
              Array.blit c.Signal.comp_cells 0 cells 0 (Array.length cells);
            Event.No_change prev)
        | Event.No_change _ -> Event.No_change prev)
  | Signal.Keep_when (gate, src, _base) ->
    let eg = edge ctx gate in
    let es = edge ctx src in
    (* Emits while the gate is open, and also on the gate's rising edge so
       the kept signal resynchronizes with its source. *)
    let gate_prev = ref (Signal.default gate) in
    node ctx s (fun r prev ->
        let mg = read_edge ctx eg r in
        let ms = read_edge ctx es r in
        let gate_now = Event.body mg in
        let rising = gate_now && not !gate_prev in
        gate_prev := gate_now;
        if gate_now && (Event.is_change ms || rising) then
          Event.Change (Event.body ms)
        else Event.No_change prev)

(* Bounded history: a newest-first list capped at [2*cap] transiently and
   truncated back to [cap] (amortized O(1) per append). [Some 0] disables
   logging entirely; [None] keeps everything (the seed behaviour). *)
let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let log l k v =
  l.latest <- v;
  match l.cap with
  | Some 0 -> ()
  | Some cap when l.count + 1 > 2 * cap ->
    l.rev <- take cap ((k, v) :: l.rev);
    l.count <- cap
  | Some _ | None ->
    l.rev <- (k, v) :: l.rev;
    l.count <- l.count + 1

let logged l =
  List.rev (match l.cap with None -> l.rev | Some cap -> take cap l.rev)

let new_log cap latest = { latest; rev = []; count = 0; cap }

(* The display side of Fig. 11: record one root emission on the "screen"
   (the runtime record and its listeners). *)
let show rt msg =
  let time = Cml.now () in
  log rt.messages time msg;
  match msg with
  | Event.Change v ->
    log rt.changes time v;
    Queue.iter (fun f -> f time v) rt.listeners
  | Event.No_change _ -> ()

let make_rt ~gen ~stats ~nodes ~history ~owned_pool ~d_stats root =
  let default = Signal.default root in
  {
    gen;
    stats;
    nodes;
    changes = new_log history default;
    messages = new_log history (Event.No_change default);
    listeners = Queue.create ();
    stopped = false;
    owned_pool;
    d_stats;
  }

(* The cml probe is process-wide: install it for this runtime, or clear a
   leftover one so an untraced runtime never records into a stale tracer.
   The scheduler also clears it when the enclosing [Cml.run] finishes. *)
let attach_tracer tracer gen =
  match tracer with
  | Some tr ->
    Trace.set_pid tr gen;
    Trace.attach tr
  | None -> Cml.Probe.clear ()

(* ------------------------------------------------------------------ *)
(* The compiled backend: one [Exec] instance over the plan.

   An event is admitted on the thread that raises it: an input's [push]
   ([inject]), an async fire applied by a lane or a wave, or the delay
   timer's re-entry all call [admit], which fixes the event's epoch (so
   epochs follow the order of those calls, per source the paper's order
   whatever runs where) and queues its rounds. No dispatcher thread or
   [newEvent] mailbox stands between an input and its region: that FIFO is
   the pipelined backend's (Fig. 11). The instance's hooks act as the
   display loop, the async boundary threads and the runtime's delay
   timer. Two placements run the admitted rounds:

   - Lanes (the default): one thread per region, woken once per round
     queued on it. A lane runs one round and applies its effects before
     it takes the next, so a display or async fire leaves as soon as its
     region ran, and a region that charges virtual time ([Cml.sleep]
     inside a lift) holds back only itself — the §5 property of [async].
   - Waves ([~domains]/[~pool]): one wave thread runs every admitted
     round, as one pool batch or inline, flushes the buffered effects in
     admission epoch order and parks until the next admission, so the
     change trace is bit-identical for every domain count and seed (see
     [Exec]; checked by the explorer's Domains mode and bench B19). A
     running wave admits nothing: a wake raised meanwhile (a lift of the
     wave sleeping in virtual time, an async fire being flushed) waits in
     [held] for the flush, so which wave runs a round never depends on
     how far the wave had got.

   [Sequential] keeps one event in flight without a thread of its own: a
   wake raised while an admitted event is in flight waits in [held] too,
   and the in-flight event's display (lanes; only events that reach the
   root are in flight) or its wave's flush (waves; every event, so waves
   keep size one) admits the held wakes in FIFO order, until one is in
   flight again. *)

let start_compiled ~mode ~history ~tracer ~policy ~observer ~fused ~waves
    ~pool ~owned_pool root =
  let pl = Compile.plan_of root in
  let gen = fresh_generation () in
  let stats = Stats.create () in
  attach_tracer tracer gen;
  stats.Stats.fused_nodes <- fused;
  stats.Stats.compiled_regions <- Compile.region_count pl;
  let x =
    Exec.create ?tracer ~observe:(observer <> None) ~policy ~stats ~epoch:0
      pl (Compile.new_arena pl)
  in
  let d_stats =
    if not waves then [||]
    else
      let nworkers = match pool with Some p -> Pool.domains p | None -> 1 in
      Array.init nworkers (fun _ -> Stats.create ())
  in
  let rt =
    make_rt ~gen ~stats ~nodes:(Compile.node_count pl) ~history ~owned_pool
      ~d_stats root
  in
  let sequential = mode = Sequential in
  let held : (int * Obj.t) Queue.t = Queue.create () in
  (* Admissions wait in [held]: a wave runs, or an event is in flight. *)
  let holding = ref false in
  (* Lanes: one wake mailbox per region, sent to once per round. Waves:
     the wave thread's, sent to once per wave ([signalled] until the wave
     starts). *)
  let wakes =
    if waves then [| Mailbox.create ~name:"wave" () |]
    else
      Array.init (Compile.region_count pl) (fun i ->
          Mailbox.create ~name:(Printf.sprintf "lane:%d" i) ())
  in
  let wake = if waves then ignore else fun i -> Mailbox.send wakes.(i) () in
  let signalled = ref false in
  let rec admit source value =
    (* A lift running on the offload helper may inject: move home before
       touching the instance. *)
    Cml.Scheduler.home ();
    if !holding then Queue.push (source, value) held
    else begin
      Exec.admit x ~waves ~source ~value ~wake;
      holding := sequential && (waves || (Compile.schedule pl source).sc_root);
      if waves && not !signalled then begin
        signalled := true;
        Mailbox.send wakes.(0) ()
      end;
      stats.Stats.switches <- Cml.Scheduler.switch_count ()
    end
  (* The wave or the in-flight event is done: admit held wakes in FIFO
     order until one is in flight again. *)
  and release () =
    holding := false;
    while (not !holding) && not (Queue.is_empty held) do
      let source, value = Queue.pop held in
      admit source value
    done
  in
  List.iter
    (fun (Signal.Pack s) ->
      let id = Signal.id s in
      Signal.set_inst s
        {
          Signal.gen;
          out =
            Multicast.create
              ~name:(Printf.sprintf "in:%d:%s" id (Signal.name s))
              ();
          push = Some (fun v -> admit id (Obj.repr v));
        })
    (Compile.inputs pl);
  let reenter () id v = admit id v in
  let timer = new_timer reenter in
  let hooks =
    {
      Exec.fire = reenter;
      delay =
        (fun () ~node ~epoch ~seconds v ->
          schedule timer ~epoch ~node ~seconds () v);
      display =
        (fun () ~epoch:_ ~changed v ->
          let v = Obj.obj v in
          show rt (if changed then Event.Change v else Event.No_change v);
          if sequential && not waves then release ());
      observe =
        (match observer with
        | Some f -> fun () -> f
        | None -> fun () ~node:_ ~epoch:_ ~changed:_ -> ());
    }
  in
  if waves then
    Cml.spawn (fun () ->
        let rec wave () =
          Mailbox.recv wakes.(0);
          signalled := false;
          holding := true;
          Exec.run_lanes
            ?pool:(if rt.stopped then None else pool)
            ~seed:stats.Stats.events x ~dstats:rt.d_stats;
          Exec.flush x hooks ();
          release ();
          wave ()
        in
        wave ())
  else
    Array.iteri
      (fun i wake ->
        Cml.spawn (fun () ->
            let rec lane () =
              Mailbox.recv wake;
              Exec.step_lane x i hooks ();
              lane ()
            in
            lane ()))
      wakes;
  rt

let start ?(backend : backend = Pipelined) ?(mode = Pipelined) ?dispatch
    ?(memoize = true) ?history ?tracer ?(fuse = true)
    ?(on_node_error = Propagate) ?queue_capacity ?observer ?mutate ?domains
    ?pool root =
  if not (Cml.running ()) then
    invalid_arg "Runtime.start: must be called inside Cml.run";
  (match domains with
  | Some n when n < 1 -> invalid_arg "Runtime.start: domains must be >= 1"
  | _ -> ());
  (match history with
  | Some n when n < 0 -> invalid_arg "Runtime.start: negative history"
  | _ -> ());
  (match mutate with
  | Some
      (Drop_no_change n | Skip_epoch n | Reorder_wakeup n) when n < 1 ->
    invalid_arg "Runtime.start: mutation occurrence must be >= 1"
  | _ -> ());
  (match on_node_error with
  | Restart n when n < 0 ->
    invalid_arg "Runtime.start: negative Restart budget"
  | _ -> ());
  (match queue_capacity with
  | Some n when n < 1 ->
    invalid_arg "Runtime.start: queue_capacity must be >= 1"
  | _ -> ());
  (* The compiled backend runs plans on [Exec] with plain unbounded queues
     (backpressure would block the dispatcher or a lane itself), has no
     site for the channel-level planted mutations, is dirty-bit (i.e.
     memoizing) by construction and runs each wake's cone only: a request
     outside that envelope is an error, not a silent fallback. *)
  let reject what =
    invalid_arg ("Runtime.start: backend Compiled cannot be combined with " ^ what)
  in
  (match backend with
  | Compiled ->
    if mutate <> None then reject "mutate";
    if queue_capacity <> None then reject "queue_capacity";
    if not memoize then reject "memoize:false";
    if dispatch = Some Flood then reject "dispatch:Flood"
  | Pipelined ->
    if domains <> None || pool <> None then
      invalid_arg "Runtime.start: domains/pool need backend Compiled");
  (* The recompute-always baseline exists to measure pull-style costs, so it
     defaults to flooding; cone dispatch would silently skip the very
     recomputations it is meant to count. *)
  let dispatch =
    match dispatch with Some d -> d | None -> if memoize then Cone else Flood
  in
  (* Fusion composites carry stateful step functions that cannot be re-run
     on quiescent rounds, so the recompute-always baseline stays unfused:
     it exists to count recomputations, and fusing away the nodes that
     would perform them would falsify the measurement. *)
  let fuse = fuse && memoize in
  let original_nodes = if fuse then List.length (Signal.reachable root) else 0 in
  (* [fuse_cached] keeps the fused root physically stable across starts of
     the same graph, which is what lets [Compile.plan_of] hit its cache. *)
  let root = if fuse then Fuse.fuse_cached root else root in
  let fused node_count = if fuse then original_nodes - node_count else 0 in
  match backend with
  | Compiled ->
    let owned_pool =
      match (pool, domains) with
      | None, Some k when k > 1 -> Some (Pool.create ~domains:k ())
      | _ -> None
    in
    start_compiled ~mode ~history ~tracer ~policy:on_node_error
      ~observer
      ~fused:(fused (Compile.node_count (Compile.plan_of root)))
      ~waves:(domains <> None || pool <> None)
      ~pool:(match pool with Some p -> Some p | None -> owned_pool)
      ~owned_pool root
  | Pipelined ->
  let gen = fresh_generation () in
  let stats = Stats.create () in
  let new_event = Mailbox.create ~name:"newEvent" () in
  let reach = Reach.analyze root in
  let ctx =
    {
      rt_gen = gen;
      memoize;
      c_dispatch = dispatch;
      c_policy = on_node_error;
      c_capacity = queue_capacity;
      c_stats = stats;
      c_new_event = new_event;
      c_timer = new_timer (fun reenter _ v -> reenter v);
      c_reach = reach;
      c_tracer = tracer;
      c_observer = observer;
      c_mutate =
        Option.map
          (fun spec ->
            {
              m_spec = spec;
              m_count = 0;
              m_held = None;
              m_last_stamp = Hashtbl.create 8;
            })
          mutate;
      wakeups = Hashtbl.create 64;
    }
  in
  attach_tracer tracer gen;
  let node_count = Reach.node_count reach in
  stats.Stats.fused_nodes <- fused node_count;
  (* One thread per node, one channel per edge (Fig. 10). Wakeup delivery
     plan: per source id, the affected cone's mailboxes in topological
     order; the flood plan is every node. Computed once at build time —
     dispatching an event is then one array iteration. Every woken node
     sends (or drops into) exactly one accounted message, so the
     dispatcher owes the nodes it did not wake. *)
  let root_inst = build ctx root in
  let mailboxes_of nodes =
    Array.of_list
      (List.filter_map
         (fun (Signal.Pack s) -> Hashtbl.find_opt ctx.wakeups (Signal.id s))
         nodes)
  in
  let all_targets = mailboxes_of (Reach.order reach) in
  let cones = Hashtbl.create 16 in
  List.iter
    (fun src -> Hashtbl.replace cones src (mailboxes_of (Reach.cone reach src)))
    (Reach.sources reach);
  let cone_targets eid =
    match Hashtbl.find_opt cones eid with Some c -> c | None -> [||]
  in
  let rt =
    make_rt ~gen ~stats ~nodes:node_count ~history ~owned_pool:None
      ~d_stats:[||] root
  in
  let root_reach = Reach.reaching reach (Signal.id root) in
  let reaches_root eid =
    match dispatch with
    | Flood -> true
    | Cone -> Reach.set_mem eid root_reach
  in
  let ack = Mailbox.create ~name:"displayAck" () in
  (* Display loop (Fig. 11): funnel values from the root's channel to the
     "screen" (here: the runtime record and registered listeners). *)
  let display_port = Multicast.port root_inst.Signal.out in
  Cml.spawn (fun () ->
      let rec display () =
        let { Event.epoch; event = msg } = Multicast.recv display_port in
        (match tracer with
        | None -> ()
        | Some tr -> Trace.display tr ~epoch ~changed:(Event.is_change msg));
        show rt msg;
        stats.switches <- Cml.Scheduler.switch_count ();
        (match mode with
        | Sequential -> Mailbox.send ack ()
        | Pipelined -> ());
        display ()
      in
      display ());
  (* Global event dispatcher (Fig. 11), upgraded: instead of broadcasting to
     every source and flooding one message down every edge, it wakes exactly
     the nodes in the firing source's cone. Nodes outside the cone stay
     quiescent; their would-be [No_change] emissions are counted as elided
     and synthesized by receivers from epoch gaps. In [Sequential] mode it
     waits for the display loop's acknowledgement — but only when the event
     can reach the display at all. *)
  Cml.spawn (fun () ->
      let rec dispatch_loop pending =
        let eid =
          match pending with Some e -> e | None -> Mailbox.recv new_event
        in
        stats.events <- stats.events + 1;
        let r = { epoch = stats.events; source = eid } in
        let targets =
          match dispatch with
          | Flood -> all_targets
          | Cone -> cone_targets eid
        in
        stats.notified_nodes <- stats.notified_nodes + Array.length targets;
        stats.elided_messages <-
          stats.elided_messages + (node_count - Array.length targets);
        (* Record before the wakeups go out so the dispatch timestamp lower-
           bounds every node-start and display timestamp of this epoch. *)
        (match tracer with
        | None -> ()
        | Some tr ->
          Trace.dispatch tr ~source:eid ~epoch:r.epoch
            ~targets:(Array.length targets));
        (* Plain index loop: an [Array.iter] here would allocate a fresh
           closure over [r] per event, the one allocation left on the
           per-event dispatch path. *)
        for i = 0 to Array.length targets - 1 do
          send_round ctx (Array.unsafe_get targets i) r
        done;
        stats.switches <- Cml.Scheduler.switch_count ();
        (match mode with
        | Sequential when reaches_root eid -> Mailbox.recv ack
        | Sequential | Pipelined -> ());
        dispatch_loop (Mailbox.recv_opt new_event)
      in
      dispatch_loop None);
  rt

let try_inject rt input v =
  match Signal.get_inst input with
  | Some { Signal.gen; push = Some push; _ } when gen = rt.gen ->
    push v;
    true
  | Some _ | None -> false

let inject rt input v =
  if not (try_inject rt input v) then
    invalid_arg
      (Printf.sprintf "Runtime.inject: %s (node %d) is not an input of this runtime"
         (Signal.name input) (Signal.id input))

let generation rt = rt.gen
let current rt = rt.changes.latest

(* Idempotent teardown: run the registered per-generation cleanup hooks
   (std-lib driver tables) and close a pool this runtime created. The Cml
   threads themselves die with the enclosing [Cml.run] scope, as always. *)
let stop rt =
  if not rt.stopped then begin
    rt.stopped <- true;
    Mutex.lock stop_hooks_lock;
    let hooks = !stop_hooks in
    Mutex.unlock stop_hooks_lock;
    List.iter (fun f -> f rt.gen) hooks;
    Option.iter Pool.close rt.owned_pool
  end

let domain_stats rt = rt.d_stats
let changes rt = logged rt.changes
let message_log rt = logged rt.messages
let on_change rt f = Queue.add f rt.listeners
let stats rt = rt.stats
let node_count rt = rt.nodes
