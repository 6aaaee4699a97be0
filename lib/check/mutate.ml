module Runtime = Elm_core.Runtime
module Signal = Elm_core.Signal
module Upgrade = Elm_core.Upgrade

type 'm planted = {
  name : string;
  spec : 'm;
}

(* Occurrence indices land each fault mid-run: past the first event (so
   every node has a previous epoch to mis-stamp) and well before the last
   (so the damage has rounds left in which to surface). *)
let all =
  [
    { name = "drop-no-change"; spec = Runtime.Drop_no_change 3 };
    { name = "skip-epoch"; spec = Runtime.Skip_epoch 9 };
    { name = "reorder-wakeup"; spec = Runtime.Reorder_wakeup 7 };
  ]

let chain k n s =
  let rec go n s =
    if n = 0 then s
    else go (n - 1) (Signal.lift ~name:(Printf.sprintf "add%d" k) (( + ) k) s)
  in
  go n s

(* Two sources, one arm through drop_repeats (its parity is constant under
   the injection pattern below, so it emits No_change on every round after
   the first — the Drop_no_change target), joined by lift2 and folded. *)
let victim () =
  Explore.program ~name:"mutate-victim" ~show:string_of_int (fun () ->
      let a = Signal.input ~name:"a" 0 in
      let b = Signal.input ~name:"b" 0 in
      let left = chain 1 2 a in
      let parity =
        Signal.drop_repeats ~name:"parity"
          (Signal.lift ~name:"mod2" (fun x -> x mod 2) left)
      in
      let right = chain 2 2 b in
      let joined =
        Signal.lift2 ~name:"join" (fun p r -> (p * 31) + r) parity right
      in
      let wide = Signal.lift2 ~name:"wide" ( + ) joined left in
      let root = Signal.foldp ~name:"sum" ( + ) 0 wide in
      {
        Explore.root;
        drive =
          (fun rt ->
            for i = 1 to 8 do
              (* odd values only: [parity] never changes after warm-up *)
              Runtime.inject rt (if i mod 2 = 0 then b else a) ((2 * i) + 1)
            done);
      })

let catches ?(schedules = 4) ?(seed = 0) () =
  List.map
    (fun planted ->
      ( planted,
        Explore.run ~schedules ~seed ~mutate:planted.spec (victim ())
      ))
    all

let all_caught ?schedules ?seed () =
  List.for_all
    (fun (_, report) -> not (Explore.ok report))
    (catches ?schedules ?seed ())

(* ------------------------------------------------------------------ *)
(* Upgrade mutations. Each upgrade-point sweep performs exactly one
   upgrade per dispatcher, so the occurrence index is 1 for all three. *)

let upgrade_all =
  [
    { name = "stale-slot-map"; spec = Upgrade.Stale_slot_map 1 };
    { name = "skip-migration"; spec = Upgrade.Skip_migration 1 };
    { name = "leak-seam-mailbox"; spec = Upgrade.Leak_seam_mailbox 1 };
  ]

(* All-int slots on purpose: the stale-map mutation rotates live values
   across matched slots, and an all-int arena keeps that a value bug (a
   diverged trace) rather than a memory bug. Alternating odd injections
   keep the foldp sum strictly increasing, so every event changes the
   root — any rotation or lost inbox wake shows in the trace. *)
let upgrade_graph () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let left = chain 1 2 a in
  let right = chain 2 2 b in
  let joined =
    Signal.lift2 ~name:"join" (fun l r -> (l * 31) + r) left right
  in
  let root = Signal.foldp ~name:"sum" ( + ) 0 joined in
  { Explore.ug_root = root; ug_inputs = [| a; b |] }

let upgrade_events =
  List.init 8 (fun i -> (i mod 2, (2 * i) + 1))

(* Identity upgrade: the replacement is the same program text, so every
   slot matches and the never-upgraded trace is the exact answer at every
   upgrade point. Catches [Stale_slot_map] (rotated values diverge the
   trace) and [Leak_seam_mailbox] (injections still in the inboxes at the
   seam vanish, wakes and values together: the pending-style sweep's
   trace comes up short). *)
let upgrade_victim () =
  Explore.upgrade_program ~name:"upgrade-identity-victim"
    ~classify:(fun v -> Some (v mod 2))
    ~show:string_of_int ~old_graph:upgrade_graph ~new_graph:upgrade_graph
    upgrade_events

(* State-migrating upgrade: the new program stores the foldp accumulator
   biased by +100 and un-biases it in a new view node, so with the
   migration applied it is observationally identical to the old program —
   and with [Skip_migration] planted every post-upgrade value is off by
   exactly the bias. *)
let migration_bias = 100

let migration_victim () =
  let new_graph () =
    let a = Signal.input ~name:"a" 0 in
    let b = Signal.input ~name:"b" 0 in
    let left = chain 1 2 a in
    let right = chain 2 2 b in
    let joined =
      Signal.lift2 ~name:"join" (fun l r -> (l * 31) + r) left right
    in
    let sum = Signal.foldp ~name:"sum" ( + ) migration_bias joined in
    let root = Signal.lift ~name:"view" (fun x -> x - migration_bias) sum in
    { Explore.ug_root = root; ug_inputs = [| a; b |] }
  in
  Explore.upgrade_program ~name:"upgrade-migration-victim"
    ~show:string_of_int
    ~migrate:(fun () ->
      [ Upgrade.migrate ~name:"sum" (fun (acc : int) -> acc + migration_bias) ])
    ~old_graph:upgrade_graph ~new_graph upgrade_events

let upgrade_catches ?domains () =
  List.map
    (fun planted ->
      let victim =
        match planted.spec with
        | Upgrade.Skip_migration _ -> migration_victim ()
        | Stale_slot_map _ | Leak_seam_mailbox _ -> upgrade_victim ()
      in
      (planted, Explore.run_upgrade ?domains ~mutate:planted.spec victim))
    upgrade_all

let upgrade_all_caught ?domains () =
  List.for_all
    (fun (_, report) -> not (Explore.ok report))
    (upgrade_catches ?domains ())
