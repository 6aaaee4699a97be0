(** The pending values of [delay] nodes, shared by both {!Runtime}
    backends and the serving dispatcher.

    A binary min-heap over flat arrays. An entry is a wake with its value
    — the delay node to re-enter and the value it carries — plus a
    context of the caller's (the session it belongs to, say), ordered by
    the key [(due, epoch, node)]: the due time, the epoch that emitted
    the value and the delay node's id. Node ids are allotted in creation
    order, so they are topological, and fusion keeps them. Within one
    instance (a runtime, or one session of a dispatcher) the key is total
    and fixed by the program, not by the schedule: equal due times leave
    in emitting-epoch order, and within one epoch in node order.
    Nothing is allocated per push or pop but the growth of the arrays. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> due:float -> epoch:int -> node:int -> 'a -> Obj.t -> unit
(** [push h ~due ~epoch ~node c v]: node [node]'s value [v], emitted at
    [epoch], is due at [due]; [c] is the caller's context. *)

val min_due : 'a t -> float
(** The least due time; [infinity] on an empty heap, where [top] and
    [pop] are undefined. *)

val top : 'a t -> 'a
(** The context of the entry with the least key. *)

val pop : 'a t -> ('a -> int -> Obj.t -> unit) -> unit
(** [pop h f] removes the entry with the least key, then calls [f c node v]
    with its context, node and value. *)

val remap : 'a t -> ('a -> int -> int option) -> unit
(** [remap h f] renumbers every entry's node: [f c node] gives the new
    id, or [None] to drop the entry. Due times, epochs, contexts and
    values are kept; the order follows the new keys. *)
