(** One live instance of a shared compiled plan: a row of its
    {!Dispatcher}.

    A session is the serving layer's unit of isolation: the
    {!Elm_core.Compile.plan} (op arrays, slot layout, reachability) is
    shared read-only across every session of one graph shape, while
    everything a session mutates — its arena, counters, change history
    and its inbox of wakes, each waiting with its value — is its own
    row. Opening a
    session is ~an array copy; no threads, mailboxes or channels are
    created, and two sessions can never observe each other's [foldp]
    state because no mutable word is reachable from both. Configuration
    (error policy, queue capacity, tracer, history cap) and the boundary
    wiring live once in the dispatcher, not in the rows.

    Sessions are opened, fed, drained, upgraded and closed through their
    {!Dispatcher}; this module is their read surface. *)

module Stats = Elm_core.Stats

type 'a t = 'a Row.t
(** The row itself is private to the library. *)

exception Queue_full
(** Raised by [Dispatcher.inject] when the session's bounded inbox is full
    (see [queue_capacity]). *)

val id : 'a t -> int
val current : 'a t -> 'a

val changes : 'a t -> (int * 'a) list
(** Changes of the root, oldest first, stamped with the session-local
    epoch. Two sessions fed the same per-source event sequence produce
    bit-identical change lists — the B17 isolation oracle. *)

val stats : 'a t -> Stats.t
val epoch : 'a t -> int

val pending : 'a t -> int
(** Wakes in this session's inbox: events routed to it and not yet
    stepped. *)

val pending_delays : 'a t -> int
(** Values waiting in the dispatcher's delay heap for this session. *)

val dropped : 'a t -> int
(** Injections refused because the bounded inbox was full. *)

val is_idle : 'a t -> bool
(** No pending events and no pending delays: the session is exactly the
    contents of its arena (clonable, and its footprint is stable). *)

val footprint_words : 'a t -> int
(** The heap words one more session costs: everything the row reaches —
    its record, change log, wake inbox (with the values waiting in it),
    {!Elm_core.Exec} instance, arena, counters, lane and closures — except what it
    shares with every other session of its dispatcher (the plan, the
    tracer, the error policy). The dispatcher's own per-session entry in
    its session table (a few words) is not included. *)

val pp_stats : Format.formatter -> 'a t -> unit
(** The session's counters prefixed with its id (["s3: events=..."]), so
    many sessions can report through one sink without colliding rows. *)
