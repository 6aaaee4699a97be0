(* The one executor for a compiled plan instance.

   Fig. 11's runtime has one job: take events in order, give each an
   epoch, run the synchronous part it reaches, and let async boundaries
   re-enter as new events. Every compiled execution of a plan goes through
   this module — [Runtime.start ~backend:Compiled] (lanes or waves) and
   every serving session — so that algorithm exists once:

   - [step]/[admit] take one wake, a source and its value: assign its
     epoch, look up the source's schedule (one table lookup, the plan's
     own record) and bill the deterministic per-event counters (events,
     notified regions, messages and the elided balance, the tracer's
     dispatch row), all computable from the schedule alone. The wake
     becomes one [Compile.round] that carries the value to the source
     member, which writes it. Epochs follow the order of the calls: the
     caller admits on whatever thread raises the event (a runtime's
     [inject], its fire and delay hooks; a dispatcher's drain), with no
     queue of its own in between. A hook may admit while [flush] or
     [step_lane] applies effects: admission only queues rounds, which
     neither reads while applying.
   - The wake's work is its source's schedule, which lies in one region
     (or, when [async] branches read the source, one part per region it
     touches), and it runs on a {e lane}: a [Compile.exec] record, plain
     data over the shared arena with its own counters, failure handlers
     and effect queue. [step] runs the whole schedule at once on the
     instance's sequential lane (a split source's parts one after the
     other, in region order). Otherwise each part is queued as a round
     on its region's lane, one lane per region, in one of two placements.
     Waves ([admit ~waves:true]): [run_lanes] runs every active lane
     inline or as one flat [Pool.run] batch. Lanes: one caller thread per
     region takes one round at a time ([step_lane]), and a costly region
     that holds no display runs its rounds on the [Cml] run's helper
     domain (the offload rule at [step_lane]).
   - No lane performs a boundary effect: the ops append async fires and
     delay schedules (each with its value), displays and observed
     emissions to the lane's effect queue, and they are applied to the
     caller's hooks — by [flush], in admission epoch order, or by
     [step_lane] right after the round that produced them. The one
     exception is a caller's [~display] sink that is safe to call from
     whichever domain runs the root's region (a serving session's change
     log): displays then go straight to it, sparing the coordinator the
     one effect nearly every event has.
   - The hooks take a context: the caller's value handed to every hook
     call ([flush x hooks c]). A serving dispatcher builds one hooks
     record and flushes each session with the session as context; a
     runtime builds one for itself over [()]. So no instance carries
     hook closures of its own.

   Why buffering is exact: a round's work is region-local (a region reads
   a source in another region through a shadow slot of its own, written
   by its own round), lanes share no written slot or counter, and no
   boundary effect is consumed in the epoch that produces it — async
   fires and delays re-enter as later events, displays only leave the
   graph. So flushing after the run, stably ordered by epoch, reproduces
   what a one-event-at-a-time dispatcher would have done, whatever ran
   where and in whatever order: a wave's lanes need no order among
   themselves. (Within one epoch, a split source's parts run as separate
   region steps, whose effects no other effect of that epoch reads.) *)

type error_policy =
  | Propagate
  | Isolate
  | Restart of int

(* ------------------------------------------------------------------ *)
(* Supervision: the one failure-handler factory *)

(* A per-node failure handler, created once so a [Restart] budget is local
   to the node. Callers catch only the fallible part of a round — the user
   function application, after every input has been read — so per-event
   alignment is never at stake: a failed round yields [No_change
   last-good], exactly what a quiescent node would have produced. The
   answer says whether to reinitialise node state ([foldp] accumulator,
   composite cells): never under [Isolate], on the first [n] failures
   under [Restart n], which then degrades to [Isolate]. *)
let handler ~policy ~stats ~tracer ~node : Compile.handler =
  match policy with
  | Propagate -> Compile.propagate
  | Isolate | Restart _ ->
    let left = ref (match policy with Restart b -> b | Propagate | Isolate -> 0) in
    fun ~epoch _ ->
      stats.Stats.node_failures <- stats.Stats.node_failures + 1;
      (match tracer with
      | None -> ()
      | Some tr -> Trace.node_failure tr ~node ~epoch);
      !left > 0
      && begin
           decr left;
           stats.Stats.node_restarts <- stats.Stats.node_restarts + 1;
           true
         end

(* ------------------------------------------------------------------ *)
(* Instances *)

let epoch_of : Compile.effect -> int = function
  | Fire { epoch; _ }
  | Delay { epoch; _ }
  | Observe { epoch; _ }
  | Display { epoch; _ } ->
    epoch

type 'c hooks = {
  fire : 'c -> int -> Obj.t -> unit;
  delay : 'c -> node:int -> epoch:int -> seconds:float -> Obj.t -> unit;
  display : 'c -> epoch:int -> changed:bool -> Obj.t -> unit;
  observe : 'c -> node:int -> epoch:int -> changed:bool -> unit;
}

(* Where the lane placement runs a region's rounds: inline on its lane
   thread, or on the run's helper domain ([Cml.Scheduler.offload]). A
   region that may be offloaded first probes: it runs rounds inline, each
   timed (see [step_lane]). *)
type place =
  | Inline
  | Probe of int * int  (* rounds still to time, the cheapest one's ns *)
  | Offload of int  (* the cheapest timed round's ns *)

(* The offload rule's constants, explained at [step_lane]. *)
let probe_rounds = 8
let offload_ns = 20_000
let max_patience = 1 lsl 16
let lag_weight = 16

(* A region's lane with the rounds admitted to it. *)
type lane = {
  l_region : int;
  l_exec : Compile.exec;
  mutable l_snap : Stats.t;  (* scratch counters last merged *)
  l_rounds : Compile.round Queue.t;
  mutable l_place : place;
  mutable l_patience : int;  (* rounds the next probe times *)
  mutable l_lag : int;  (* moving average of the offloads' lag, ns *)
}

(* [seq] is the sequential lane and holds the instance's own data: its
   arena, counters and display sink. Region lanes share its arena. *)
type t = {
  plan : Compile.plan;
  seq : Compile.exec;
  tracer : Trace.t option;
  offset : int;  (* added to node ids in trace rows *)
  policy : error_policy;
  mutable epoch : int;
  mutable lanes : lane array;  (* [||] until first [admit] *)
}

(* A lane's failure handlers, billing [stats]: the plan's shared array
   under Propagate, one closure per node otherwise (a Restart budget is
   per lane). *)
let handlers ~policy ~tracer ~offset plan stats =
  match policy with
  | Propagate -> Compile.propagate_handlers plan
  | Isolate | Restart _ ->
    Array.map
      (fun id -> handler ~policy ~stats ~tracer ~node:(offset + id))
      (Compile.slot_ids plan)

let create ?tracer ?(offset = 0) ?(label = "") ?(observe = false) ?display
    ~policy ~stats ~epoch plan arena =
  (match tracer with
  | None -> ()
  | Some tr ->
    List.iter
      (fun rg ->
        Trace.register_node tr
          ~id:(offset + rg.Compile.rg_rep)
          ~name:
            (Printf.sprintf "%sregion:%s(%d)" label rg.Compile.rg_name
               (List.length rg.Compile.rg_member_ids)))
      (Compile.regions plan));
  (* A traced display row precedes the sink's call, as [flush] puts it
     before [hooks.display]. *)
  let display =
    match (display, tracer) with
    | Some f, Some tr ->
      Some
        (fun ~epoch ~changed v ->
          Trace.display tr ~epoch ~changed;
          f ~epoch ~changed v)
    | d, _ -> d
  in
  {
    plan;
    seq =
      {
        Compile.x_arena = arena;
        x_stats = stats;
        x_fail = handlers ~policy ~tracer ~offset plan stats;
        x_effects = Queue.create ();
        x_observing = observe;
        x_display = display;
      };
    tracer;
    offset;
    policy;
    epoch;
    lanes = [||];
  }

let plan x = x.plan
let arena x = x.seq.x_arena
let stats x = x.seq.x_stats
let epoch x = x.epoch

(* Region lanes, built lazily by the first admission (opening an
   instance builds only the sequential lane), whose placement picks their
   counters. Waves give each lane scratch counters, so concurrently
   running lanes never share a mutable word ([flush] merges their
   deltas). Lanes run on the caller's domain and bill the instance's
   counters directly, except a region that may be offloaded: one that
   holds no display, of an untraced instance, on a host with more than
   one core. Its lane bills scratch counters, merged after each round
   ([step_lane]), and starts by probing. A traced instance never offloads:
   its rows are in virtual time, which an offload does not change, and
   [Trace] keeps one shard per domain, pairing a dispatch with its spans
   within one shard. *)
let region_lanes x ~waves =
  if Array.length x.lanes = 0 then begin
    let offload =
      (not waves)
      && Option.is_none x.tracer
      && Domain.recommended_domain_count () > 1
    in
    x.lanes <-
      Array.init (Compile.region_count x.plan) (fun i ->
          let probe = offload && i <> Compile.root_region x.plan in
          let stats = if waves || probe then Stats.create () else stats x in
          {
            l_region = i;
            l_exec =
              {
                x.seq with
                x_stats = stats;
                x_fail =
                  handlers ~policy:x.policy ~tracer:x.tracer ~offset:x.offset
                    x.plan stats;
                x_effects = Queue.create ();
              };
            l_snap = Stats.copy stats;
            l_rounds = Queue.create ();
            l_place = (if probe then Probe (probe_rounds, max_int) else Inline);
            l_patience = probe_rounds;
            l_lag = 0;
          })
  end;
  x.lanes

(* ------------------------------------------------------------------ *)
(* Admission and execution *)

(* Open the next epoch for a wake of [source] and return its schedule,
   billing everything that follows from it: the root's display is the one
   real message of a wake that reaches it, and every other node counts as
   elided, whether it ran quiescent or lay outside the cone. *)
let open_epoch x ~source =
  let pl = x.plan in
  let sc = Compile.schedule pl source in
  let real = if sc.Compile.sc_root then 1 else 0 in
  let woken = if sc.Compile.sc_region < 0 then 0 else 1 in
  x.epoch <- x.epoch + 1;
  let st = stats x in
  st.Stats.events <- st.Stats.events + 1;
  st.Stats.notified_nodes <- st.Stats.notified_nodes + woken;
  st.Stats.messages <- st.Stats.messages + real;
  st.Stats.elided_messages <-
    st.Stats.elided_messages + (Compile.node_count pl - real);
  (match x.tracer with
  | None -> ()
  | Some tr ->
    Trace.dispatch tr ~source:(x.offset + source) ~epoch:x.epoch ~targets:woken);
  sc

(* Run one schedule's ops for round [r] on lane [ex], as one region
   step. *)
let run_ops x (ex : Compile.exec) (sc : Compile.schedule) (r : Compile.round)
    =
  let node = x.offset + Compile.region_rep x.plan sc.sc_region in
  (match x.tracer with
  | None -> ()
  | Some tr -> Trace.node_start tr ~node ~epoch:r.epoch);
  ex.x_stats.Stats.region_steps <- ex.x_stats.Stats.region_steps + 1;
  let ops = sc.sc_ops in
  for i = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops i) ex r
  done;
  match x.tracer with
  | None -> ()
  | Some tr -> Trace.node_end tr ~node ~epoch:r.epoch

(* A split source's wake notifies one region per part. *)
let bill_parts x parts =
  let st = stats x in
  st.Stats.notified_nodes <- st.Stats.notified_nodes + Array.length parts - 1

(* A wake's work on the sequential lane: its schedule, or a split
   source's parts in region order, one region step each. *)
let step x ~source ~value =
  let sc = open_epoch x ~source in
  if sc.sc_region >= 0 then begin
    let r = { Compile.epoch = x.epoch; source; value } in
    match sc.sc_parts with
    | [||] -> run_ops x x.seq sc r
    | parts ->
      bill_parts x parts;
      Array.iter (fun p -> run_ops x x.seq p r) parts
  end

(* Queue one wake's round on the lane of each region it touches (one,
   unless branches read its source) and tell [wake] which. *)
let admit x ~waves ~source ~value ~wake =
  let sc = open_epoch x ~source in
  if sc.sc_region >= 0 then begin
    let r = { Compile.epoch = x.epoch; source; value } in
    let lanes = region_lanes x ~waves in
    match sc.sc_parts with
    | [||] ->
      Queue.push r lanes.(sc.sc_region).l_rounds;
      wake sc.sc_region
    | parts ->
      bill_parts x parts;
      Array.iter
        (fun (p : Compile.schedule) ->
          Queue.push r lanes.(p.sc_region).l_rounds;
          wake p.sc_region)
        parts
  end

(* Round [r]'s ops on lane [ln]: its source's schedule, or the part of it
   that lies in the lane's region. *)
let part x ln (r : Compile.round) =
  let sc = Compile.schedule x.plan r.source in
  match sc.sc_parts with
  | [||] -> sc
  | parts ->
    let rec find i =
      if parts.(i).Compile.sc_region = ln.l_region then parts.(i)
      else find (i + 1)
    in
    find 0

(* Run a lane's oldest admitted round. *)
let run_round x ln =
  let r = Queue.pop ln.l_rounds in
  run_ops x ln.l_exec (part x ln r) r

(* Run every active lane's admitted rounds, each lane's in epoch order:
   as one [pool] batch when several are active, otherwise inline in
   region index order. A lane's counters are also added to [dstats] at
   the running worker's index (0 inline). Lanes share no mutable word and
   hand each other nothing before [flush], so any order is exact. *)
let run_lanes ?pool ?(seed = 0) x ~dstats =
  let run ln w =
    let st = ln.l_exec.x_stats in
    let before = Stats.copy st in
    while not (Queue.is_empty ln.l_rounds) do
      run_round x ln
    done;
    Stats.add_delta dstats.(w) ~before ~after:st
  in
  let active =
    List.filter
      (fun ln -> not (Queue.is_empty ln.l_rounds))
      (Array.to_list x.lanes)
  in
  match (pool, active) with
  | Some p, _ :: _ :: _ -> Pool.run ~seed p (Array.of_list (List.map run active))
  | _ -> List.iter (fun ln -> run ln 0) active

(* ------------------------------------------------------------------ *)
(* Flush *)

let apply x hooks c : Compile.effect -> unit = function
  | Fire { source; value; _ } ->
    let st = stats x in
    st.Stats.async_events <- st.Stats.async_events + 1;
    hooks.fire c source value
  | Delay { epoch; node; seconds; value } ->
    hooks.delay c ~node ~epoch ~seconds value
  | Observe { node; epoch; changed } -> hooks.observe c ~node ~epoch ~changed
  | Display { epoch; changed; value } ->
    (match x.tracer with
    | None -> ()
    | Some tr -> Trace.display tr ~epoch ~changed);
    hooks.display c ~epoch ~changed value

(* Apply and drop a lane's buffered effects, in order. *)
let apply_all x hooks c (ex : Compile.exec) =
  while not (Queue.is_empty ex.x_effects) do
    apply x hooks c (Queue.pop ex.x_effects)
  done

(* Lane placement: run region [i]'s oldest admitted round, then apply
   that round's effects at once, so a display or an async fire leaves as
   soon as its region ran rather than at the end of a wave. An offloaded
   round suspends only the lane's thread; its effects and counters are
   applied here once it returns.

   The offload rule. A probing region runs [probe_rounds] rounds inline,
   each timed on the monotonic clock; if the cheapest took more than
   [offload_ns], its later rounds run on the helper domain, where they
   hold back no other region's lane. [offload_ns] is ten times the
   offload round trip measured back to back on a 2-core host (a median of
   1.8 us), so an offloaded round spends at most a tenth of its time in
   transit. A region keeps to its lane for good once one of its rounds
   uses Cml: an inline round that switched Cml threads ([Cml.sleep] in a
   lift), so a virtual-time program keeps its deterministic schedule, or
   an offloaded round that [Cml.Scheduler.home] moved back to the run's
   domain, where it finished as an inline round would.

   An offload pays only while the helper has a core to itself. An
   offload's lag is how much longer it took, from hand-off to its end on
   the helper, than the cheapest timed round (the run's first offload,
   which spawns the helper, is not counted). On a host busier than its
   cores the helper waits for a scheduler slice: beside one busy-looping
   process on a 2-vCPU host, with a helper that blocked after 50 us
   idle, about 30% of perfbench gui_async's ~100 us key rounds were
   picked up 0.45-1 ms late, against under 30 us for all but about 0.4%
   (a few up to ~1 ms) alone. Once the moving average of
   the lag (weight 1/[lag_weight]) exceeds the round's cost, the region
   goes back to probing inline, for twice as many rounds as its last
   probe (up to [max_patience]); the count drops back to [probe_rounds]
   after an offload that lagged less than the round's cost. A rare late
   pickup moves the average too little to send a region back. *)
let step_lane x i hooks c =
  let ln = x.lanes.(i) in
  (match ln.l_place with
  | Inline -> run_round x ln
  | Offload cheapest ->
    let r = Queue.pop ln.l_rounds in
    let sc = part x ln r in
    let here = (Domain.self () :> int) in
    let spawns = Cml.Scheduler.offload_count () = 0 in
    let t0 = Cml.Scheduler.now_ns () in
    (* The round's end on the helper, or -1 if it moved home. *)
    let ended =
      Cml.Scheduler.offload (fun () ->
          run_ops x ln.l_exec sc r;
          if (Domain.self () :> int) = here then -1 else Cml.Scheduler.now_ns ())
    in
    if ended < 0 then ln.l_place <- Inline
    else if not spawns then begin
      let lag = max 0 (ended - t0 - cheapest) in
      ln.l_lag <- ln.l_lag + ((lag - ln.l_lag) / lag_weight);
      if ln.l_lag > cheapest then begin
        ln.l_lag <- 0;
        ln.l_patience <- min max_patience (2 * ln.l_patience);
        ln.l_place <- Probe (ln.l_patience, max_int)
      end
      else if lag <= cheapest then ln.l_patience <- probe_rounds
    end
  | Probe (left, cheapest) ->
    let switches = Cml.Scheduler.switch_count () in
    let t0 = Cml.Scheduler.now_ns () in
    run_round x ln;
    let cheapest = min cheapest (Cml.Scheduler.now_ns () - t0) in
    ln.l_place <-
      (if Cml.Scheduler.switch_count () <> switches then Inline
       else if left > 1 then Probe (left - 1, cheapest)
       else if cheapest > offload_ns then Offload cheapest
       else Inline));
  (* A lane with scratch counters credits the instance with this round's
     and advances its snapshot in place ([snap += st - snap]): a fresh
     copy per round would be promoted garbage, the lane being old. *)
  let st = ln.l_exec.x_stats in
  if st != stats x then begin
    Stats.add_delta (stats x) ~before:ln.l_snap ~after:st;
    Stats.add_delta ln.l_snap ~before:ln.l_snap ~after:st
  end;
  apply_all x hooks c ln.l_exec

(* Apply every buffered effect to [hooks]: the sequential lane's in
   execution order, the region lanes' merged stably by admission epoch — a
   round ran on one lane, whose own order is kept, so member observations
   precede their round's display. Lane scratch counters are merged into
   the instance's. *)
let flush x hooks c =
  apply_all x hooks c x.seq;
  if Array.length x.lanes > 0 then begin
    let tagged =
      Array.fold_right
        (fun ln acc ->
          let ex = ln.l_exec in
          let effs = List.of_seq (Queue.to_seq ex.x_effects) in
          Queue.clear ex.x_effects;
          Stats.add_delta (stats x) ~before:ln.l_snap ~after:ex.x_stats;
          ln.l_snap <- Stats.copy ex.x_stats;
          effs @ acc)
        x.lanes []
    in
    List.iter
      (fun e -> apply x hooks c e)
      (List.stable_sort (fun a b -> compare (epoch_of a) (epoch_of b)) tagged)
  end

(* An instance's own memory under [v] (which may reach the instance): its
   plan — ops, defaults, the shared Propagate handlers — its tracer and its
   policy are shared with every other instance its creator opens, so
   whatever they reach is left out. The pair around [v] costs 3 words. *)
let private_words x v =
  let shared = Obj.repr (x.plan, x.tracer, x.policy) in
  Obj.reachable_words (Obj.repr (v, shared)) - Obj.reachable_words shared - 3
