(* The read surface of a session: one row of its dispatcher (see Row).

   A session is the serving layer's unit of isolation: the plan (op arrays,
   slot layout, reachability — see Compile) is shared read-only across
   every session of one graph shape; everything a session mutates lives in
   its own row. Two sessions can never observe each other's foldp state
   because no mutable word is reachable from both. Dispatcher owns the
   protocol that writes rows; this module only reads them. *)

module Stats = Elm_core.Stats
module Exec = Elm_core.Exec
module Runtime = Elm_core.Runtime

type 'a t = 'a Row.t

exception Queue_full

let id s = s.Row.r_id
let current s = s.Row.r_sink.latest

let changes s = Runtime.logged s.Row.r_sink

let stats s = Exec.stats s.Row.r_exec
let epoch s = Exec.epoch s.Row.r_exec
let pending s = Queue.length s.Row.r_inbox
let pending_delays s = s.Row.r_pending_delays
let dropped s = s.Row.r_dropped
let is_idle s = Queue.is_empty s.Row.r_inbox && s.Row.r_pending_delays = 0

let pp_stats ppf s =
  Stats.pp_labeled (Printf.sprintf "s%d" s.Row.r_id) ppf (stats s)

(* Everything the row reaches — its record, sink, inbox (wakes and their
   values), the Exec instance with its arena, counters, lane and
   closures — except what its
   instance shares with every other session of the dispatcher (plan,
   tracer, policy). *)
let footprint_words s = Exec.private_words s.Row.r_exec (Obj.repr s)
