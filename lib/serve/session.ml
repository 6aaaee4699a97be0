(* The read surface of a session: one row of its dispatcher (see Row).

   A session is the serving layer's unit of isolation: the plan (op arrays,
   slot layout, reachability — see Compile) is shared read-only across
   every session of one graph shape; everything a session mutates lives in
   its own row. Two sessions can never observe each other's foldp state
   because no mutable word is reachable from both. Dispatcher owns the
   protocol that writes rows; this module only reads them. *)

module Stats = Elm_core.Stats
module Exec = Elm_core.Exec

type 'a t = 'a Row.t

exception Queue_full

let id s = s.Row.r_id
let current s = s.Row.r_sink.k_current

let changes s =
  let k = s.Row.r_sink in
  List.rev
    (match k.k_history with
    | None -> k.k_rev_changes
    | Some cap -> Row.take cap k.k_rev_changes)

let stats s = Exec.stats s.Row.r_exec
let epoch s = Exec.epoch s.Row.r_exec
let pending s = s.Row.r_pending
let pending_delays s = s.Row.r_pending_delays
let dropped s = s.Row.r_dropped
let closed s = s.Row.r_closed
let is_idle s = s.Row.r_pending = 0 && s.Row.r_pending_delays = 0

let pp_stats ppf s =
  Stats.pp_labeled (Printf.sprintf "s%d" s.Row.r_id) ppf (stats s)

(* Everything the row reaches — its record, sink, inbox, the Exec instance
   with its arena, queues, counters, lane and closures — except what its
   instance shares with every other session of the dispatcher (plan,
   tracer, policy). *)
let footprint_words s = Exec.private_words s.Row.r_exec (Obj.repr s)
