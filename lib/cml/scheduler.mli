(** Deterministic cooperative scheduler with a virtual clock.

    This is the concurrency substrate that the paper's Figures 9-11 translate
    signal terms into: green threads ("each node in a signal graph has its own
    thread of control"), created with {!spawn} and communicating through the
    channel abstractions built on {!suspend}/{!resume}.

    Scheduling is policy-driven over an arrival-ordered runnable pool. The
    default {!policy} is [Fifo], so executions are deterministic and
    bit-identical to the historical behaviour. The seeded chaos policies
    ([Seeded_random], [Pct]) exist to {e explore} alternative interleavings:
    the paper's claim (Sections 3.3-3.4) is that the CML translation preserves
    global event order regardless of how node threads interleave, and the
    [Check.Explore] harness re-runs signal programs under many seeds to test
    exactly that. Every policy is deterministic given its seed, and every run
    records a {!decision_log} that can be replayed verbatim with [Replay].

    Blocking on time is *virtual*: {!sleep} parks the thread on a timer heap,
    and when no thread is runnable the clock jumps to the next timer. This
    turns the scheduler into a discrete-event simulator, which is how we
    reproduce the paper's responsiveness experiments (long-running computation
    and network latency become virtual sleeps) without the authors' browser
    testbed. Because the clock only advances at quiescence, virtual timestamps
    are schedule-independent for programs whose channels are single-reader —
    chaos policies permute execution order, not simulated time. *)

type 'a cont
(** A suspended thread waiting for a value of type ['a]. One-shot. *)

exception Already_running
(** Raised by {!run} when a scheduler is already running: from inside
    it, or on another domain. The scheduler is process-global; {!run}
    claims it atomically. *)

exception Not_running
(** Raised by operations that require a running scheduler ({!sleep},
    {!suspend}, {!yield}) when called outside {!run}. *)

exception Stuck of string
(** Raised by {!run_value} when the main thread blocked forever. The message
    lists the wait sites of threads still suspended on channels: named
    channels report their site (see the [?site] argument of {!suspend}),
    unnamed ones are counted as ["<anonymous>"], so deadlock reports — e.g.
    from bounded-mailbox backpressure — never silently under-count. *)

type policy =
  | Fifo
      (** Always run the oldest runnable thread. Deterministic; the default
          and the reference interleaving for the explorer. *)
  | Seeded_random of int
      (** Pick a uniformly random runnable at every switch, from a PRNG
          seeded with the given integer. Deterministic per seed. *)
  | Pct of { seed : int; depth : int }
      (** Priority-chaos scheduling in the style of probabilistic concurrency
          testing: each thread segment draws a random priority at creation,
          the highest-priority runnable always executes, and [depth] seeded
          change points (switch counts) each demote the current front-runner
          below every other priority. Good at surfacing bugs that need a
          small number of ordering inversions. Deterministic per seed. *)
  | Replay of int list
      (** Follow a recorded {!decision_log}: the [i]-th element is the pool
          index to run at the [i]-th switch. After the list is exhausted (or
          on an out-of-range index) falls back to [Fifo]. Used by the
          explorer to re-run and shrink a failing schedule. *)

val run : ?policy:policy -> ?max_switches:int -> (unit -> unit) -> unit
(** [run main] resets the scheduler state, executes [main] and every thread it
    spawns until quiescence: no thread is runnable, no timer is pending and
    no {!offload} is outstanding.
    Threads still blocked on a channel at quiescence are dropped (a reactive
    program's node threads wait forever for the next event by design).
    [policy] selects the interleaving (default [Fifo]).
    [max_switches] bounds context switches and raises [Stuck] when exceeded,
    which keeps accidental livelocks out of the test suite.

    Exceptions raised by any thread propagate out of [run]. A helper
    domain spawned by {!offload} is joined before [run] returns or
    raises. *)

val run_value : ?policy:policy -> ?max_switches:int -> (unit -> 'a) -> 'a
(** Like {!run} but returns the main thread's result.
    @raise Stuck if the main thread never finished. *)

val running : unit -> bool
(** Whether a scheduler is currently executing. *)

val spawn : (unit -> unit) -> unit
(** Queue a new thread. May be called from inside a running scheduler or
    before {!run} (the thread then starts when {!run} begins). *)

val yield : unit -> unit
(** Reschedule the current thread at the back of the run queue. *)

val suspend : ?site:string -> ('a cont -> unit) -> 'a
(** Capture the current thread as a continuation and hand it to the callback,
    which stores it somewhere (e.g. a channel's wait queue). The thread
    resumes with value [v] when someone calls [resume k v].

    [site] registers a human-readable wait site (e.g. ["recv wake:3:lift"])
    for the duration of the suspension. Channel implementations pass it for
    named channels only; suspensions without a site are tallied as
    ["<anonymous>"]. Threads still registered when {!run_value} detects a
    stuck main thread are listed in the {!Stuck} message. *)

val resume : 'a cont -> 'a -> unit
(** Schedule a suspended thread to continue with the given value. Joins the
    runnable pool in arrival order (FIFO under the default policy). *)

val now : unit -> float
(** Current virtual time, in seconds. After a {!run} returns, reports the
    final virtual time of that run; 0.0 before the first run. *)

val sleep : float -> unit
(** Block the current thread for the given amount of virtual time. Negative
    or zero durations behave like {!yield} at the current instant. *)

val sleep_until : float -> unit
(** Block the current thread until the virtual clock reads the given
    time, exactly (no [now +. (t -. now)] rounding). A time not after
    {!now} behaves like {!yield}. *)

val offload : (unit -> 'a) -> 'a
(** [offload f] runs [f] on a helper domain owned by the enclosing {!run}
    and returns its result; an exception raised by [f] is re-raised here,
    with its backtrace. Only the calling thread is suspended: the others
    keep running on the run's domain meanwhile. No virtual time passes
    while [f] runs on the helper.
    While an offload is outstanding the scheduler neither advances the
    clock nor ends the run; with nothing else runnable it waits for the
    offload to finish.

    The run's first offload spawns the helper; offloads queue on it in
    call order, and it is joined when {!run} returns or raises. An idle
    helper spins for the next offload for 0.5 ms of real time, then blocks
    until one comes; a scheduler waiting for an offload with nothing else
    to run does the same. No domain is spawned by a run that never
    offloads.

    [f] may use the scheduler: its first Cml operation ({!spawn},
    {!resume}, {!suspend}, so also {!yield}, {!sleep}, every channel and
    mailbox operation, and [offload] itself) moves the rest of [f] to the
    run's domain before touching any state ({!home}), where the caller
    finishes it as if [f] had been called inline there: a {!sleep} then
    suspends the caller. Until that point [f] shares memory with the run's
    domain from another domain, so it must touch nothing the run's threads
    touch.
    @raise Not_running outside {!run}. *)

val home : unit -> unit
(** [home ()] does nothing on the run's own domain. Called from an
    {!offload}ed function while it runs on the helper, it moves the rest
    of that function to the run's domain and returns there. Every
    operation of this library calls it before touching shared state. *)

val now_ns : unit -> int
(** A monotonic real-time clock, in nanoseconds: what {!offload}'s helper
    measures its idle time with. Unrelated to the virtual {!now}. *)

(** {2 Introspection} *)

val spawned_count : unit -> int
(** Threads spawned since the current (or last) {!run} started. *)

val switch_count : unit -> int
(** Context switches since the current (or last) {!run} started. *)

val blocked_sites : unit -> string list
(** Wait sites of threads currently suspended: named sites first
    (registration order), then one ["<anonymous>"] entry per thread suspended
    without a site. After a {!run} returns, reports the threads that were
    still parked at quiescence; reset when the next {!run} starts. *)

val offload_count : unit -> int
(** {!offload} calls since the current (or last) {!run} started. *)

val decision_log : unit -> int list
(** The pool indices chosen at each context switch of the current (or last)
    {!run}, in order — the schedule's replayable fingerprint. Recorded only
    under [Seeded_random] and [Pct] (empty under [Fifo] and [Replay], whose
    decisions are implied). Feed it back via [Replay] to reproduce the
    interleaving exactly; a {e prefix} of the log replays the first switches
    and continues in FIFO order, which is what the explorer's shrinker
    exploits. Reset when the next {!run} starts. *)
