(** Live graph upgrade: diff two compiled plans and remap running arenas.

    A rebuilt program shares no node ids with the graph it replaces
    ({!Signal.fresh_id} mints fresh ids per build), so upgrades match on
    the structural keys the compiler stamps per slot ({!Compile.slot_keys}):
    identical across builds of the same program text, distinct wherever the
    structure changed. [diff old new] partitions the new plan's slots into

    - {e matched}: same key in both plans. The live value and stamp carry
      across — through a user {!migration} if one targets the slot — and
      because ops live in the plan, a matched node whose {e function}
      changed is hot-swapped for free: the next event simply runs the new
      op against the carried value.
    - {e attached}: no old counterpart; seeded from the new plan's
      defaults.
    - (symmetrically, old slots with no new counterpart are {e dropped},
      and whole regions of them {e detached} — their values, queued wakes
      and in-flight delays are released by the serve layer.)

    The patch is pure data, computed once per upgrade and applied to every
    live arena by {!remap} — sessions never observe a half-upgraded graph
    because the serve layer only admits upgrades between event waves
    (dispatcher quiescence; see [Serve.Dispatcher.upgrade_all]). *)

type migration
(** A user-supplied state migration for one named node: how to turn the
    node's last emitted value under the old plan into its value under the
    new plan (e.g. a [foldp] accumulator whose representation changed). *)

val migrate : name:string -> ('old -> 'new_) -> migration
(** [migrate ~name f] migrates the value of the node named [name]. The
    typed function is erased at the patch boundary exactly as node values
    are ([Obj]); the caller owes the same invariant the compiler does —
    ['old] is the node's value type under the old plan, ['new_] under the
    new one. *)

type patch
(** The computed diff between two plans: slot and state mappings, node-id
    maps for the dispatcher's inbox and delay-heap remapping, the detached regions,
    migrations. Pure data; apply with {!remap}. *)

val diff : ?migrate:migration list -> Compile.plan -> Compile.plan -> patch
(** [diff ?migrate old new] matches slots on structural keys. Raises
    [Invalid_argument] if a migration names no slot of the new plan or
    targets an attached slot (there is no old value to migrate). *)

(** A planted upgrade bug, for the mutation-testing catalogue
    ([Check.Mutate]): [Serve.Dispatcher.upgrade_all ?mutate] plants it on
    the nth upgrade of that dispatcher ([n] is 1-based). Never used
    outside tests and benches. *)
type mutation =
  | Stale_slot_map of int
      (** Rotate the matched-slot mapping by one position, as if the remap
          table were stale: values land in a neighbouring slot of the new
          arena layout. *)
  | Skip_migration of int
      (** Apply the upgrade without running the user-supplied [?migrate]
          functions, so migrated state keeps its old representation under
          the new program's code. *)
  | Leak_seam_mailbox of int
      (** Forget each session's inbox — its queued wakes and their values
          together — instead of moving it onto the new node ids, so events
          accepted before the upgrade are never dispatched. *)

val remap : ?mutate:mutation -> patch -> Compile.arena -> Compile.arena
(** Remap one live arena onto the new plan's layout: matched slots keep
    value and stamp (migrated where a migration targets them), attached
    slots seed from defaults with stamp 0, dropped slots are simply not
    carried. State slots follow their owner: copied where the owner is
    matched (a fused composite's cells one by one, in chain order),
    seeded from the new plan otherwise. All state is plain data, so an
    identity upgrade of a fused plan is as exact as of an unfused one.

    [mutate] plants an upgrade bug into this remap, whatever its
    occurrence number (the caller, [Serve.Dispatcher.upgrade_all], picks
    the upgrade): [Stale_slot_map] rotates the matched-slot assignment by
    one, [Skip_migration] copies raw values past the user migration, and
    [Leak_seam_mailbox] has no site here. *)

(** {1 Inspection} *)

val new_plan : patch -> Compile.plan

val slot_map : patch -> int array
(** New slot -> old slot, [-1] for attached slots. The patch's own array —
    treat as read-only. *)

val node_of_old : patch -> int -> int option
(** New node id matching an old node id — how the dispatcher moves inbox
    wakes and delay-heap entries across an upgrade. *)

val added_slots : patch -> int list
(** New-plan slots with no old counterpart, ascending. *)

val dropped_slots : patch -> int list
(** Old-plan slots with no new counterpart, ascending. *)

val detached_regions : patch -> int list
(** Old-plan region indices consisting entirely of dropped slots. *)

val is_identity : patch -> bool
(** No adds, no drops, no migrations: every slot matched both ways. An
    identity upgrade must be observably a no-op — change traces
    bit-identical to never upgrading — which is the replay-differential
    oracle [test_upgrade] checks at every drain point. *)

val pp : Format.formatter -> patch -> unit
