(* A session's data: one row of its dispatcher.

   Private to the library: Dispatcher writes rows (the session protocol:
   open, clone, close, route, step, flush, upgrade), Session reads them.
   A row holds only what one session mutates — its [Exec] instance (arena,
   counters, lane), its change log, its inbox and its lifecycle counters.
   A wake waits in the inbox together with its value, as one item, until
   the session steps it; nothing else holds a pending value. The inbox's
   length is the session's count of routed, unstepped events.
   Configuration (error policy, queue capacity, tracer, history cap) and
   the boundary wiring (the [Exec] hooks) exist once, in the
   dispatcher. *)

module Exec = Elm_core.Exec
module Runtime = Elm_core.Runtime

(* [r_exec] is mutable for exactly one writer: the dispatcher's upgrade,
   which swaps a session onto a new plan's instance between event waves.
   The sink, stats and epoch persist — an upgraded session keeps its
   history. The sink, the root's change log, is written straight from the
   session's lane ([display]), on whichever domain runs the session's
   task: it is this session's alone, so there is a single writer whatever
   the placement. *)
type 'a t = {
  r_id : int;
  mutable r_exec : Exec.t;
  r_sink : (int, 'a) Runtime.log;  (* (epoch, value) *)
  r_inbox : (int * Obj.t) Queue.t;
      (* (source id, value) wakes routed to this session, in arrival
         order: the per-session restriction of the dispatcher's FIFO *)
  mutable r_pending_delays : int;  (* values in the dispatcher's heap *)
  mutable r_dropped : int;  (* injections refused by a full inbox *)
  mutable r_closed : bool;
}

(* The session instance's [~display] sink. *)
let display (type r) (sink : (int, r) Runtime.log) ~epoch ~changed v =
  if changed then Runtime.log sink epoch (Obj.obj v : r)
