(* Live graph upgrade (Upgrade.diff / Session.upgrade /
   Dispatcher.upgrade_all), verified replay-differentially: the oracle for
   an upgraded run is a never-upgraded run fed the same events through the
   same drain pattern. Identity upgrades must be bit-identical at every
   split point, both admission styles and domains 1/2/4; state-migrating
   upgrades must splice the foldp accumulator; detaching a subgraph must
   shrink the session footprint and leave no orphan waiters; and the three
   planted upgrade mutations (stale slot map, skipped migration,
   forgotten session inboxes) must each be caught by the explorer's
   upgrade sweep. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Compile = Elm_core.Compile
module Upgrade = Elm_core.Upgrade
module Session = Elm_serve.Session
module Dispatcher = Elm_serve.Dispatcher
module Pool = Elm_core.Pool
module Explore = Elm_check.Explore
module Mutate = Elm_check.Mutate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_pool domains f =
  if domains <= 1 then f None
  else
    let p = Pool.create ~domains () in
    Fun.protect ~finally:(fun () -> Pool.close p) (fun () -> f (Some p))

(* ------------------------------------------------------------------ *)
(* Upgrade.diff units *)

let diamond () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let joined =
    Signal.lift2 ~name:"join"
      (fun l r -> (l * 31) + r)
      (Signal.lift ~name:"l" succ a)
      (Signal.lift ~name:"r" succ b)
  in
  (a, b, Signal.foldp ~name:"sum" ( + ) 0 joined)

let test_diff_identity () =
  let _, _, r1 = diamond () in
  let _, _, r2 = diamond () in
  let p = Upgrade.diff (Compile.plan_of r1) (Compile.plan_of r2) in
  check_bool "identity" true (Upgrade.is_identity p);
  check_int "no additions" 0 (List.length (Upgrade.added_slots p));
  check_int "no drops" 0 (List.length (Upgrade.dropped_slots p));
  check_bool "slot map total" true
    (Array.for_all (fun i -> i >= 0) (Upgrade.slot_map p))

(* Node ids are minted fresh per build, so matching must come from the
   structural keys alone — the same program at a different id range is
   still an identity upgrade. *)
let test_diff_ignores_ids () =
  let _, _, r1 = diamond () in
  (* burn a batch of ids between the two builds *)
  for _ = 1 to 100 do
    ignore (Signal.input ~name:"burn" 0)
  done;
  let _, _, r2 = diamond () in
  let p = Upgrade.diff (Compile.plan_of r1) (Compile.plan_of r2) in
  check_bool "identity despite fresh ids" true (Upgrade.is_identity p)

let test_diff_add_drop () =
  let _, _, old_root = diamond () in
  let new_root =
    (* the b arm is gone; a new "scale" node appears above the a arm *)
    let a = Signal.input ~name:"a" 0 in
    Signal.foldp ~name:"sum" ( + ) 0
      (Signal.lift ~name:"scale" (fun x -> x * 2) (Signal.lift ~name:"l" succ a))
  in
  let p = Upgrade.diff (Compile.plan_of old_root) (Compile.plan_of new_root) in
  check_bool "not identity" true (not (Upgrade.is_identity p));
  check_bool "has additions" true (Upgrade.added_slots p <> []);
  check_bool "has drops" true (Upgrade.dropped_slots p <> []);
  (* the a input and its lift survive: deps are identical *)
  check_bool "shared prefix matched" true
    (Array.exists (fun i -> i >= 0) (Upgrade.slot_map p))

let test_diff_rejects_bad_migration () =
  let _, _, r1 = diamond () in
  let _, _, r2 = diamond () in
  let migrate = [ Upgrade.migrate ~name:"no-such-node" (fun (x : int) -> x) ] in
  check_bool "unknown migration target rejected" true
    (try
       ignore (Upgrade.diff ~migrate (Compile.plan_of r1) (Compile.plan_of r2));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Replay-differential identity upgrades over the shape catalogue.

   The reference run performs the same split and drain pattern with the
   upgrade skipped (an interior drain already reorders async/delay
   deliveries, so "no upgrade, same schedule" is the honest differential).
   The property quantifies over shape, events, split point, admission
   style (quiescent / pending) and domain count. *)

let prop_identity_upgrade =
  QCheck.Test.make
    ~name:"identity upgrade: bit-identical at every split, style, domains"
    ~count:24 Gen_graph.arb_upgrade_case
    (fun (shape, events, k, quiesce) ->
      let reference, _, _, _ =
        Gen_graph.serve_upgrade_run ~quiesce ~apply:false ~upgrade_at:k shape
          events
      in
      List.for_all
        (fun domains ->
          with_pool domains (fun pool ->
              let got, s, d, patch =
                Gen_graph.serve_upgrade_run ?pool ~quiesce ~upgrade_at:k shape
                  events
              in
              let acc = Dispatcher.accounting d in
              got = reference
              && (match patch with
                 | Some p -> Upgrade.is_identity p
                 | None -> false)
              && Session.dropped s = 0
              && acc.Dispatcher.pending_events = 0
              && acc.Dispatcher.pending_delays = 0
              && Session.is_idle s))
        [ 1; 2; 4 ])

(* Shape 2 fuses a drop_repeats into a composite. Its previous-value cell
   is arena state and must carry across the upgrade: after 4 (4/4 = 1
   emits), a post-upgrade 5 (5/4 = 1 again) is a repeat and stays dropped. *)
let test_fused_cells_carry_across_upgrade () =
  let events = [ (true, 4); (true, 5); (false, 1); (true, 9) ] in
  let reference, _, _, _ =
    Gen_graph.serve_upgrade_run ~apply:false ~upgrade_at:1 2 events
  in
  let got, _, _, patch = Gen_graph.serve_upgrade_run ~upgrade_at:1 2 events in
  check_bool "identity patch" true
    (match patch with Some p -> Upgrade.is_identity p | None -> false);
  check_bool "trace equals the never-upgraded run" true (got = reference)

(* Upgrading is idempotent in sequence: two identity upgrades back to back
   (a plan-cache reseed in between) still replay exactly. *)
let test_double_upgrade () =
  let shape = 4 and events = [ (true, 1); (false, 2); (true, 3) ] in
  let reference, _, _, _ =
    Gen_graph.serve_upgrade_run ~apply:false ~upgrade_at:0 shape events
  in
  let a, b, root = Gen_graph.build_shape shape in
  let d = Dispatcher.create root in
  let s = Dispatcher.open_session d in
  Dispatcher.inject d s a 1;
  ignore (Dispatcher.drain d);
  let _, _, root' = Gen_graph.build_shape shape in
  ignore (Dispatcher.upgrade_all d root');
  let a'', b'', root'' = Gen_graph.build_shape shape in
  ignore (Dispatcher.upgrade_all d root'');
  check_int "two upgrades recorded" 2 (Dispatcher.upgrades d);
  Dispatcher.inject d s b'' 2;
  Dispatcher.inject d s a'' 3;
  ignore (Dispatcher.drain d);
  ignore b;
  check_bool "trace identical after two upgrades" true
    (Session.changes s = reference)

(* ------------------------------------------------------------------ *)
(* State-migrating upgrade: splice the foldp accumulator. *)

let bias = 1000

let counter_old () =
  let a = Signal.input ~name:"a" 0 in
  (a, Signal.foldp ~name:"sum" ( + ) 0 (Signal.lift ~name:"inc" succ a))

(* Same program with the accumulator stored re-biased by [bias] and a view
   node undoing the bias: observationally identical iff the migration adds
   [bias] to the live accumulator at the seam. *)
let counter_new () =
  let a = Signal.input ~name:"a" 0 in
  let sum =
    Signal.foldp ~name:"sum" ( + ) bias (Signal.lift ~name:"inc" succ a)
  in
  (a, Signal.lift ~name:"view" (fun x -> x - bias) sum)

let test_migration_splice () =
  let reference =
    let a, root = counter_old () in
    let d = Dispatcher.create root in
    let s = Dispatcher.open_session d in
    List.iter (fun v -> Dispatcher.inject d s a v) [ 1; 2; 3; 4; 5 ];
    ignore (Dispatcher.drain d);
    Session.changes s
  in
  let a, root = counter_old () in
  let d = Dispatcher.create root in
  let s = Dispatcher.open_session d in
  List.iter (fun v -> Dispatcher.inject d s a v) [ 1; 2; 3 ];
  ignore (Dispatcher.drain d);
  let a', root' = counter_new () in
  let patch =
    Dispatcher.upgrade_all
      ~migrate:[ Upgrade.migrate ~name:"sum" (fun (acc : int) -> acc + bias) ]
      d root'
  in
  check_bool "migration is not an identity patch" true
    (not (Upgrade.is_identity patch));
  List.iter (fun v -> Dispatcher.inject d s a' v) [ 4; 5 ];
  ignore (Dispatcher.drain d);
  check_bool "spliced trace equals never-upgraded run" true
    (Session.changes s = reference)

(* Without the migration the accumulator value carries over raw: the view
   subtracts a bias that was never added, so every post-upgrade value is
   off by exactly [bias] — the observable the Skip_migration mutation
   reproduces. *)
let test_migration_skipped_is_visible () =
  let run_with migrate =
    let a, root = counter_old () in
    let d = Dispatcher.create root in
    let s = Dispatcher.open_session d in
    List.iter (fun v -> Dispatcher.inject d s a v) [ 1; 2; 3 ];
    ignore (Dispatcher.drain d);
    let a', root' = counter_new () in
    ignore (Dispatcher.upgrade_all ?migrate d root');
    List.iter (fun v -> Dispatcher.inject d s a' v) [ 4; 5 ];
    ignore (Dispatcher.drain d);
    List.map snd (Session.changes s)
  in
  let good =
    run_with
      (Some [ Upgrade.migrate ~name:"sum" (fun (acc : int) -> acc + bias) ])
  in
  let bad = run_with None in
  let post g = List.filteri (fun i _ -> i >= 3) g in
  check_bool "unmigrated suffix off by exactly the bias" true
    (List.for_all2 (fun g b -> b = g - bias) (post good) (post bad))

(* ------------------------------------------------------------------ *)
(* Detach: dropping a subgraph releases its resources. *)

let test_detach_shrinks_footprint () =
  let a_old = Signal.input ~name:"a" 0 in
  let b_old = Signal.input ~name:"b" 0 in
  let old_root =
    (* the b arm crosses an async seam, so it forms its own region and the
       upgrade detaches it at region granularity *)
    Signal.lift2 ~name:"join" ( + )
      (Signal.lift ~name:"l" succ a_old)
      (Signal.async (Gen_graph.chain 2 8 b_old))
  in
  let d = Dispatcher.create old_root in
  let s = Dispatcher.open_session d in
  Dispatcher.inject d s a_old 1;
  Dispatcher.inject d s b_old 2;
  ignore (Dispatcher.drain d);
  let before = Session.footprint_words s in
  (* leave an undrained event on the arm about to be detached *)
  Dispatcher.inject d s b_old 9;
  check_int "one event pending" 1 (Session.pending s);
  let new_root =
    let a = Signal.input ~name:"a" 0 in
    Signal.lift ~name:"solo" succ (Signal.lift ~name:"l" succ a)
  in
  let patch = Dispatcher.upgrade_all d new_root in
  check_bool "async arm detached as a region" true
    (Upgrade.detached_regions patch <> []);
  check_int "pending event on the detached arm released" 0 (Session.pending s);
  let after = Session.footprint_words s in
  check_bool
    (Printf.sprintf "footprint shrank (%d -> %d words)" before after)
    true (after < before);
  ignore (Dispatcher.drain d);
  let acc = Dispatcher.accounting d in
  check_int "nothing pending" 0 acc.Dispatcher.pending_events;
  check_int "no pending delays" 0 acc.Dispatcher.pending_delays;
  check_bool "session idle" true (Session.is_idle s);
  (* no green thread is left parked on a channel of the detached subgraph:
     the serve layer is thread-free and the upgrade released every waiter
     accounted to the old plan *)
  check_bool "no orphan waiters" true (Cml.Scheduler.blocked_sites () = [])

(* A session whose inbox held only wakes of a detached source leaves the
   upgrade with an empty inbox. It must leave the ready FIFO with them:
   otherwise its next wake queues it a second time, and a pooled drain
   runs it as two tasks at once. *)
let test_detach_empties_ready_fifo () =
  with_pool 2 (fun pool ->
      let pool = Option.get pool in
      let a_old = Signal.input ~name:"a" 0 in
      let b_old = Signal.input ~name:"b" 0 in
      let d =
        Dispatcher.create ~pool
          (Signal.lift2 ~name:"join" ( + )
             (Signal.lift ~name:"l" succ a_old)
             (Signal.async (Gen_graph.chain 2 8 b_old)))
      in
      let s = Dispatcher.open_session d in
      Dispatcher.inject d s b_old 9;
      let a = Signal.input ~name:"a" 0 in
      ignore
        (Dispatcher.upgrade_all d
           (Signal.lift ~name:"solo" succ (Signal.lift ~name:"l" succ a)));
      Dispatcher.inject d s a 1;
      Pool.reset_worker_stats pool;
      check_int "one event dispatched" 1 (Dispatcher.drain d);
      check_int "the session ran as one task" 1
        (Array.fold_left
           (fun n w -> n + w.Pool.ws_tasks)
           0 (Pool.worker_stats pool));
      check_int "its trace" 3 (Session.current s))

(* ------------------------------------------------------------------ *)
(* Planted upgrade bugs: the sweep must catch all three, and the clean
   victims must pass it. *)

let test_clean_victims_pass () =
  check_bool "identity victim clean" true
    (Explore.ok (Explore.run_upgrade (Mutate.upgrade_victim ())));
  check_bool "migration victim clean" true
    (Explore.ok (Explore.run_upgrade (Mutate.migration_victim ())))

(* The explorer's sweep on a fused program with drop_repeats state: every
   split point, both admission styles, trace-equal to the reference. *)
let test_fused_sweep_exact () =
  let graph () =
    let a, b, root = Gen_graph.build_shape 2 in
    { Explore.ug_root = root; ug_inputs = [| a; b |] }
  in
  let p =
    Explore.upgrade_program ~name:"fused-drop-repeats" ~show:string_of_int
      ~old_graph:graph ~new_graph:graph
      [ (0, 4); (0, 5); (1, 1); (0, 6); (0, 9); (0, 8); (1, 1) ]
  in
  check_bool "fused sweep clean" true (Explore.ok (Explore.run_upgrade p))

let test_planted_upgrade_bugs_caught () =
  List.iter
    (fun (planted, report) ->
      check_bool
        (Printf.sprintf "planted %s caught" planted.Mutate.name)
        true
        (not (Explore.ok report)))
    (Mutate.upgrade_catches ())

let test_planted_upgrade_bugs_caught_parallel () =
  check_bool "all planted upgrade bugs caught under a pool" true
    (Mutate.upgrade_all_caught ~domains:2 ())

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "upgrade"
    [
      ( "diff",
        [
          tc "same program twice is an identity patch" `Quick
            test_diff_identity;
          tc "matching survives fresh node ids" `Quick test_diff_ignores_ids;
          tc "add/drop detected structurally" `Quick test_diff_add_drop;
          tc "migration for an unknown node rejected" `Quick
            test_diff_rejects_bad_migration;
        ] );
      ( "replay-differential",
        [
          qc prop_identity_upgrade;
          tc "two upgrades back to back still replay" `Quick
            test_double_upgrade;
          tc "fused drop_repeats cells carry across" `Quick
            test_fused_cells_carry_across_upgrade;
        ] );
      ( "migration",
        [
          tc "foldp accumulator splices across the seam" `Quick
            test_migration_splice;
          tc "skipping the migration is observable" `Quick
            test_migration_skipped_is_visible;
        ] );
      ( "detach",
        [
          tc "detached subgraph releases footprint and waiters" `Quick
            test_detach_shrinks_footprint;
          tc "an inbox emptied by a detach leaves the ready FIFO" `Quick
            test_detach_empties_ready_fifo;
        ] );
      ( "mutations",
        [
          tc "clean victims pass the sweep" `Quick test_clean_victims_pass;
          tc "fused drop_repeats program passes the sweep" `Quick
            test_fused_sweep_exact;
          tc "all planted upgrade bugs caught" `Quick
            test_planted_upgrade_bugs_caught;
          tc "caught under a worker pool too" `Quick
            test_planted_upgrade_bugs_caught_parallel;
        ] );
    ]
