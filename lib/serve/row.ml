(* A session's data: one row of its dispatcher.

   Private to the library: Dispatcher writes rows (the session protocol:
   open, clone, close, offer, step, flush, upgrade), Session reads them.
   A row holds only what one session mutates — its [Exec] instance (arena,
   pending-value queues, counters, lane), its change log, its wake inbox
   and its lifecycle counters. Configuration (error policy, queue
   capacity, tracer, history cap) and the boundary wiring (the [Exec]
   hooks) exist once, in the dispatcher. *)

module Exec = Elm_core.Exec

(* The root's change log, written straight from the session's lane
   ([display]), on whichever domain runs the session's task: the sink is
   this session's alone, so there is a single writer whatever the
   placement. *)
type 'a sink = {
  mutable k_current : 'a;
  mutable k_rev_changes : (int * 'a) list;  (* (epoch, value), newest first *)
  mutable k_n_changes : int;
  k_history : int option;
}

(* [r_exec] is mutable for exactly one writer: the dispatcher's upgrade,
   which swaps a session onto a new plan's instance between event waves.
   The sink, stats and epoch persist — an upgraded session keeps its
   history. *)
type 'a t = {
  r_id : int;
  mutable r_exec : Exec.t;
  r_sink : 'a sink;
  r_inbox : int Queue.t;
      (* source-id wakes routed to this session, in arrival order: the
         per-session restriction of the dispatcher's FIFO *)
  mutable r_pending : int;  (* routed events not yet stepped *)
  mutable r_pending_delays : int;  (* values in the dispatcher's heap *)
  mutable r_dropped : int;  (* injections refused by a full queue *)
  mutable r_closed : bool;
}

(* Bounded newest-first history, as in Runtime: capped at [2*cap]
   transiently and truncated back to [cap]. *)
let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let record_change k epoch v =
  k.k_current <- v;
  match k.k_history with
  | Some 0 -> ()
  | None ->
    k.k_rev_changes <- (epoch, v) :: k.k_rev_changes;
    k.k_n_changes <- k.k_n_changes + 1
  | Some cap ->
    if k.k_n_changes + 1 > 2 * cap then begin
      k.k_rev_changes <- take cap ((epoch, v) :: k.k_rev_changes);
      k.k_n_changes <- cap
    end
    else begin
      k.k_rev_changes <- (epoch, v) :: k.k_rev_changes;
      k.k_n_changes <- k.k_n_changes + 1
    end

(* The session instance's [~display] sink. *)
let display (type r) (sink : r sink) ~epoch ~changed v =
  if changed then record_change sink epoch (Obj.obj v : r)
