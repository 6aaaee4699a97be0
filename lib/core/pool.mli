(** A work-stealing pool of OCaml 5 domains.

    The paper's async semantics deliberately decouple subgraphs so they may
    run concurrently without changing observable per-source ordering
    (Sections 1, 3.3). Two layers exploit that here: the serving layer runs
    batches of independent session tasks (sessions share nothing mutable,
    so a batch is embarrassingly parallel), and the compiled runtime's
    wave placement runs the active region lanes of one event wave as one
    batch (lanes own disjoint state and buffer every boundary effect
    until the wave is flushed, so they need no order among themselves).

    The pool knows nothing about either client: tasks are [int -> unit]
    closures receiving the executing worker's index (used by callers to
    bill per-domain {!Stats}). Tasks must not block and must not call
    {!run} reentrantly; a task's own follow-up work must be folded into
    the task itself or deferred to the next batch. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains:n ()] spawns [n - 1] persistent worker domains; the
    calling domain participates as worker 0 during {!run}. [domains]
    defaults to [Domain.recommended_domain_count ()]. Raises
    [Invalid_argument] when [n < 1]. Workers park on a condition variable
    between batches — an idle pool burns no CPU. *)

val domains : t -> int
(** Worker count, including the caller's slot 0. *)

val run : ?seed:int -> t -> (int -> unit) array -> unit
(** [run ~seed t tasks] executes every task and returns when all have
    finished (a barrier). Tasks are dealt round-robin (rotated by [seed])
    into per-worker queues; idle workers steal from the others in a
    [seed]-determined probe order, so the schedule — which domain runs
    which task — is a deterministic function of [(seed, tasks, domains)]
    up to claim races. If tasks raise, every other task of the batch
    still runs, the first exception is re-raised here after the barrier,
    the rest are dropped, and the pool takes the next batch. Raises
    [Invalid_argument] on reentrant use or after {!close}. *)

type worker_stats = {
  ws_tasks : int;  (** Tasks this worker executed (own + stolen). *)
  ws_steals : int;  (** Tasks taken from another worker's queue. *)
  ws_idle_probes : int;
      (** Steal probes that found the victim's queue empty — a unitless
          proxy for time spent looking for work rather than doing it. *)
}

val worker_stats : t -> worker_stats array
(** Lifetime per-worker counters (index = worker), summed over batches
    since creation or the last {!reset_worker_stats}. Read between runs —
    counters are owner-written during a batch. *)

val reset_worker_stats : t -> unit

val total_steals : t -> int
(** Sum of [ws_steals] over all workers. *)

val close : t -> unit
(** Wake and join every worker domain. Idempotent. The pool must be idle
    (no {!run} in progress). *)
