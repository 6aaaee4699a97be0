type t = {
  mutable events : int;
  mutable messages : int;
  mutable elided_messages : int;
  mutable notified_nodes : int;
  mutable applications : int;
  mutable recomputations : int;
  mutable fold_steps : int;
  mutable async_events : int;
  mutable switches : int;
  mutable fused_nodes : int;
  mutable compiled_regions : int;
  mutable region_steps : int;
  mutable node_failures : int;
  mutable node_restarts : int;
}

let create () =
  {
    events = 0;
    messages = 0;
    elided_messages = 0;
    notified_nodes = 0;
    applications = 0;
    recomputations = 0;
    fold_steps = 0;
    async_events = 0;
    switches = 0;
    fused_nodes = 0;
    compiled_regions = 0;
    region_steps = 0;
    node_failures = 0;
    node_restarts = 0;
  }

let total_computations s = s.applications + s.recomputations

(* Every ratio printed or exported must go through this guard: an empty run
   (events = 0) prints 0.0 rather than raising Division_by_zero / nan. *)
let per_event total s =
  if s.events = 0 then 0.0 else float_of_int total /. float_of_int s.events

(* [regions=.../region_steps=...] appears only on compiled-backend runs:
   a pipelined runtime has no regions, and printing zeros for it would
   suggest per-node counters were absorbed somewhere when they were not. *)
let pp ppf s =
  Format.fprintf ppf
    "events=%d messages=%d elided=%d notified=%d applications=%d \
     recomputations=%d fold_steps=%d async_events=%d switches=%d fused=%d \
     failures=%d restarts=%d%t msg/ev=%.1f sw/ev=%.1f"
    s.events s.messages s.elided_messages s.notified_nodes s.applications
    s.recomputations s.fold_steps s.async_events s.switches s.fused_nodes
    s.node_failures s.node_restarts
    (fun ppf ->
      if s.compiled_regions > 0 then
        Format.fprintf ppf " regions=%d region_steps=%d" s.compiled_regions
          s.region_steps)
    (per_event s.messages s) (per_event s.switches s)

(* A plain record copy: counters are immediate ints, so the copy shares
   nothing with the original. Session cloning uses this so a clone's
   counters continue from the parent's history instead of resetting. *)
let copy s = { s with events = s.events }

(* Counters are plain ints, never atomics: each instance is only ever
   mutated by the one domain currently running its session (the pool pins a
   session to a domain for the whole task), so merging — not sharing — is
   the multi-domain story. [merge] folds a worker's accumulator into a
   global view after the parallel phase; field-wise addition is exact
   because every counter is a sum of per-event increments. *)
let merge dst src =
  dst.events <- dst.events + src.events;
  dst.messages <- dst.messages + src.messages;
  dst.elided_messages <- dst.elided_messages + src.elided_messages;
  dst.notified_nodes <- dst.notified_nodes + src.notified_nodes;
  dst.applications <- dst.applications + src.applications;
  dst.recomputations <- dst.recomputations + src.recomputations;
  dst.fold_steps <- dst.fold_steps + src.fold_steps;
  dst.async_events <- dst.async_events + src.async_events;
  dst.switches <- dst.switches + src.switches;
  dst.fused_nodes <- dst.fused_nodes + src.fused_nodes;
  dst.compiled_regions <- dst.compiled_regions + src.compiled_regions;
  dst.region_steps <- dst.region_steps + src.region_steps;
  dst.node_failures <- dst.node_failures + src.node_failures;
  dst.node_restarts <- dst.node_restarts + src.node_restarts

(* [add_delta dst ~before ~after] credits [dst] with the work done between
   two snapshots of the same live instance. This is how per-domain stats
   are attributed: a worker snapshots a session's counters ([copy]) before
   stepping it, steps it, and adds the difference to its own domain row —
   the session's counters themselves stay whole-session totals. *)
let add_delta dst ~before ~after =
  dst.events <- dst.events + (after.events - before.events);
  dst.messages <- dst.messages + (after.messages - before.messages);
  dst.elided_messages <-
    dst.elided_messages + (after.elided_messages - before.elided_messages);
  dst.notified_nodes <-
    dst.notified_nodes + (after.notified_nodes - before.notified_nodes);
  dst.applications <- dst.applications + (after.applications - before.applications);
  dst.recomputations <-
    dst.recomputations + (after.recomputations - before.recomputations);
  dst.fold_steps <- dst.fold_steps + (after.fold_steps - before.fold_steps);
  dst.async_events <- dst.async_events + (after.async_events - before.async_events);
  dst.switches <- dst.switches + (after.switches - before.switches);
  dst.fused_nodes <- dst.fused_nodes + (after.fused_nodes - before.fused_nodes);
  dst.compiled_regions <-
    dst.compiled_regions + (after.compiled_regions - before.compiled_regions);
  dst.region_steps <- dst.region_steps + (after.region_steps - before.region_steps);
  dst.node_failures <-
    dst.node_failures + (after.node_failures - before.node_failures);
  dst.node_restarts <-
    dst.node_restarts + (after.node_restarts - before.node_restarts)

(* The label disambiguates instances sharing one sink — per-session stats
   lines would otherwise be indistinguishable ("s3: events=..."). Partial
   application gives a [%a]-compatible printer. *)
let pp_labeled label ppf s = Format.fprintf ppf "%s: %a" label pp s
