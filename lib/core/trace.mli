(** Low-overhead event tracer for the signal runtime.

    The paper's responsiveness claims are about {e where} latency lives:
    which node a slow computation stalls, how deep mailboxes grow behind it,
    and how much of the event-to-display path an [async] boundary takes off
    the critical path (Sections 1, 3.3). {!Stats} only reports flat
    end-of-run counters; this module records {e when} things happened, on
    the virtual clock.

    A tracer is handed to {!Runtime.start} via its [?tracer] argument. When
    absent, every instrumentation site in the runtime and the [cml]
    substrate is a single load-and-branch — the untraced path allocates
    nothing and sends no extra messages, so traced and untraced runs have
    identical observable behaviour ({!Runtime.changes}) and identical
    message counts. When present, the runtime records:

    - [Node_start]/[Node_end] spans around each node thread's processing of
      one event round (well-nested per node);
    - [Dispatch] instants when an event is admitted: the pipelined global
      dispatcher fires it at its affected cone, the compiled runtime
      assigns its epoch on the thread that raised it;
    - [Display] instants when the display loop processes the root's message
      for an event — the event-to-display latency samples;
    - [Chan_send]/[Chan_recv] queue-depth reports from named channels
      (node wakeup mailboxes and output ports; the pipelined backend's
      [newEvent] and [displayAck], which the compiled backend does not
      have; the compiled lanes' [lane:i] and waves' [wave] wakeups), via
      a {!Cml.Probe} installed for the duration of the run;
    - [Switch] scheduler context-switch marks.

    Records land in a fixed-capacity ring buffer (oldest evicted first);
    the aggregates behind {!summary} — latency samples, per-node busy time,
    queue peaks — are accumulated outside the ring and are never evicted.

    All timestamps are {e virtual} seconds ({!Cml.now}): on the
    discrete-event scheduler, modeled costs are virtual sleeps, so spans
    measure modeled latency, not host wall-clock. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh tracer. [capacity] bounds the record ring (default 65536). *)

(** {1 Records} *)

type kind =
  | Node_start  (** A node thread began processing an event round. *)
  | Node_end  (** ... and emitted its output message for that round. *)
  | Node_fail
      (** A supervised node step raised; the supervisor substituted a
          [No_change] of the last-good value (see
          {!Runtime.error_policy}). *)
  | Dispatch  (** The dispatcher fired an event at its affected cone. *)
  | Display  (** The display loop processed the root's message. *)
  | Chan_send  (** A named channel was sent to; [value] is its depth. *)
  | Chan_recv  (** A named channel was received from; [value] is its depth. *)
  | Switch  (** Scheduler context switch; [value] is the running count. *)

type record = {
  kind : kind;
  ts : float;  (** Virtual time, seconds. *)
  node : int;  (** Node/source id; [-1] when not applicable. *)
  epoch : int;  (** Global event number; [-1] when not applicable. *)
  chan : string;  (** Channel name; [""] when not applicable. *)
  value : int;
      (** Kind-specific: queue depth, cone size ([Dispatch]), changed flag
          ([Display], 1/0), switch count. *)
}

val records : t -> record list
(** Ring contents, oldest first. *)

val dropped : t -> int
(** Records evicted from the ring so far (aggregates are unaffected). *)

(** {1 Recording}

    Called by {!Runtime} and by the {!Cml.Probe} installed by {!attach};
    application code normally never calls these. Timestamps are taken from
    {!Cml.now} at the moment of the call. *)

val set_pid : t -> int -> unit
(** Tag the tracer with a runtime generation (the Chrome trace [pid]). *)

val register_node : t -> id:int -> name:string -> unit

val node_start : t -> node:int -> epoch:int -> unit

val node_end : t -> node:int -> epoch:int -> unit

val node_failure : t -> node:int -> epoch:int -> unit
(** A supervised node step failed during [epoch] (recorded by the runtime's
    [Isolate]/[Restart] policies; never called under [Propagate]). *)

val dispatch : t -> source:int -> epoch:int -> targets:int -> unit

val display : t -> epoch:int -> changed:bool -> unit

val switch : t -> count:int -> unit

val attach : t -> unit
(** Install a {!Cml.Probe} feeding this tracer's [Chan_send]/[Chan_recv]/
    [Switch] records. Unnamed channels are ignored. The probe is cleared
    automatically when the enclosing {!Cml.run} finishes. *)

(** {1 Reporting} *)

type node_summary = {
  node_id : int;
  node_name : string;
  rounds : int;  (** Event rounds this node processed. *)
  busy : float;  (** Total virtual seconds inside start..end spans. *)
  node_failures : int;  (** Supervised step failures recorded for this node. *)
  node_p50 : float;  (** Dispatch-to-emit latency percentiles ... *)
  node_p95 : float;
  node_max : float;  (** ... and maximum, virtual seconds. *)
}

type summary = {
  events : int;  (** Dispatches recorded. *)
  displays : int;  (** Display-loop rounds recorded. *)
  changes : int;  (** Displayed rounds that carried a [Change]. *)
  failures : int;  (** Supervised node-step failures recorded. *)
  p50 : float;  (** Event-to-display latency percentiles over all *)
  p95 : float;  (** displayed rounds, virtual seconds. *)
  max : float;
  nodes : node_summary list;  (** Sorted by descending busy time. *)
  queue_peaks : (string * int) list;
      (** Per named channel, the deepest queue observed. Sorted by
          descending depth. *)
  switches : int;  (** Last scheduler switch count observed. *)
  records_dropped : int;
}

val summary : t -> summary
(** Aggregate metrics. Safe on an empty tracer (all zeros). *)

val summary_to_json : summary -> Json.t

val pp_summary : Format.formatter -> summary -> unit

val to_chrome_json : t -> Json.t
(** The ring as Chrome trace-event JSON (the [chrome://tracing] /
    {{:https://ui.perfetto.dev}Perfetto} format): one [pid] per runtime
    (see {!set_pid}), one [tid] per node thread ([tid 0] is the dispatcher,
    [tid 1] the display loop, node [n] is [tid n+2]), timestamps in
    microseconds of virtual time. Node rounds are [B]/[E] duration events,
    dispatch/display are instants, queue depths and switches are [C]
    counter tracks. *)
