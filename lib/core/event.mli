(** Per-event messages flowing along signal-graph edges (paper Fig. 9).

    For every dispatched event, {e every} node emits exactly one message:
    [Change v] when its value was recomputed, [No_change v] carrying the
    latest (unchanged) value otherwise. [No_change] is simultaneously a
    memoization device and a correctness requirement for [foldp] (Section
    3.3.2: a key-press counter must only step on actual key events). *)

type 'a t =
  | Change of 'a
  | No_change of 'a

val is_change : 'a t -> bool
(** The paper's [change] helper. *)

val body : 'a t -> 'a
(** The paper's [bodyOf] helper: the carried value either way. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

(** {1 Epoch-stamped messages}

    Under affected-cone dispatch (see {!Runtime}), a node emits a message
    only for the global events (epochs) that can actually reach it. Each
    edge message therefore carries the epoch it belongs to; a receiver that
    observes a gap between consecutive epochs on an edge knows the producer
    was quiescent for the missing rounds and synthesizes the elided
    [No_change] messages locally from the edge's last body, preserving the
    paper's one-message-per-edge-per-event alignment without the sends. *)

type 'a stamped = {
  epoch : int;  (** Global event number this message answers. *)
  event : 'a t;
}
