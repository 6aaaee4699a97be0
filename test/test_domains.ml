(* Intra-session parallel region dispatch (Runtime.start ~domains / ~pool).

   The oracle is determinism: one event wave may fan its region groups out
   over a domain pool, but admission order, epoch assignment and effect
   flushing are coordinator-side and plan-deterministic, so the observable
   behaviour — change trace (virtual times included), message log and
   counter totals — must be bit-identical for every domain count and every
   pool schedule seed. The properties here check exactly that over the
   shared gen_graph catalogue and on a wave with several active groups,
   plus the satellite fixes that ride along: Pool.run's error path,
   atomic generation minting under Domain.spawn, and the Keyboard/Touch
   per-generation tables returning to baseline after open/run/stop
   churn. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Stats = Elm_core.Stats
module Pool = Elm_core.Pool
module Dispatcher = Elm_serve.Dispatcher
module Session = Elm_serve.Session
module World = Elm_std.World
module Keyboard = Elm_std.Keyboard
module Touch = Elm_std.Touch
module Explore = Elm_check.Explore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Shared pools, one per width, reused across cases and Cml worlds
   (workers never touch the scheduler, so reuse across [Cml.run] instances
   is part of the contract under test). Closed at process exit. *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4

let pool_of k =
  match Hashtbl.find_opt pools k with
  | Some p -> p
  | None ->
    let p = Pool.create ~domains:k () in
    Hashtbl.replace pools k p;
    p

let () = at_exit (fun () -> Hashtbl.iter (fun _ p -> Pool.close p) pools)

(* The full observable behaviour of one run: change trace with virtual
   times, message log, and the counters that must not depend on who ran
   the regions. *)
let observe rt =
  let s = Runtime.stats rt in
  ( Runtime.changes rt,
    Runtime.message_log rt,
    ( s.Stats.events,
      s.Stats.messages,
      s.Stats.elided_messages,
      s.Stats.async_events,
      s.Stats.region_steps,
      s.Stats.notified_nodes ) )

let run_wave ?policy ?dispatch ~config shape events =
  let domains, pool =
    match config with
    | `Inline -> (Some 1, None)
    | `Pool k -> (None, Some (pool_of k))
  in
  observe
    (Gen_graph.run_shape ~backend:Runtime.Compiled ?policy ?dispatch ?domains
       ?pool shape events)

(* Tentpole oracle: over the whole catalogue (async and delay shapes
   included), the trace is a function of the program and the scheduler
   policy alone — never of the domain count or pool width. *)
let prop_domain_count_invisible =
  QCheck.Test.make
    ~name:"wave trace independent of domain count (full catalogue, 3 seeds)"
    ~count:8 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      List.for_all
        (fun policy ->
          let reference = run_wave ~policy ~config:`Inline shape events in
          List.for_all
            (fun k -> run_wave ~policy ~config:(`Pool k) shape events = reference)
            [ 1; 2; 4 ])
        [
          Cml.Scheduler.Fifo;
          Cml.Scheduler.Seeded_random 1;
          Cml.Scheduler.Seeded_random 2;
        ])

(* Wave mode vs the sequential compiled dispatcher: for deterministic
   (async-free) shapes the wave path must reproduce the legacy trace
   exactly, under both dispatch strategies. *)
let prop_wave_matches_sequential =
  QCheck.Test.make
    ~name:"wave = sequential compiled dispatcher (deterministic shapes)"
    ~count:12 Gen_graph.arb_deterministic_shape_events
    (fun (shape, events) ->
      List.for_all
        (fun dispatch ->
          let legacy =
            observe
              (Gen_graph.run_shape ~backend:Runtime.Compiled ~dispatch shape
                 events)
          in
          run_wave ~dispatch ~config:`Inline shape events = legacy
          && run_wave ~dispatch ~config:(`Pool 2) shape events = legacy)
        [ Runtime.Cone; Runtime.Flood ])

(* A runtime-owned pool ([~domains:K], K > 1): created at start, closed by
   [Runtime.stop] (run_shape stops its runtime), same trace as inline. *)
let test_owned_pool_roundtrip () =
  let events = [ (true, 1); (false, 2); (true, 3); (true, 3); (false, 5) ] in
  for shape = 0 to Gen_graph.shape_count - 1 do
    let inline = run_wave ~config:`Inline shape events in
    let owned =
      observe
        (Gen_graph.run_shape ~backend:Runtime.Compiled ~domains:2 shape events)
    in
    check_bool
      (Printf.sprintf "shape %d: owned pool trace = inline" shape)
      true
      (owned = inline)
  done

(* Wave mode admits no fallback: a [~domains]/[~pool] request outside its
   envelope raises instead of silently running the threaded dispatcher. *)
let wave_rejects what start =
  let raised =
    Gen_graph.with_world (fun () ->
        let a = Signal.input ~name:"a" 0 in
        try
          ignore (start (Signal.lift succ a));
          false
        with Invalid_argument _ -> true)
  in
  check_bool (Printf.sprintf "domains + %s rejected" what) true raised

let test_wave_rejects_mutate () =
  wave_rejects "mutate" (fun root ->
      Runtime.start ~backend:Runtime.Compiled ~domains:1
        ~mutate:(Runtime.Drop_no_change 1) root)

let test_wave_rejects_queue_capacity () =
  wave_rejects "queue_capacity" (fun root ->
      Runtime.start ~backend:Runtime.Compiled ~domains:1 ~queue_capacity:4 root)

let test_wave_rejects_pipelined () =
  wave_rejects "backend Pipelined" (fun root ->
      Runtime.start
        ~backend:(Runtime.Pipelined : Runtime.backend)
        ~pool:(pool_of 2) root)

let test_wave_rejects_no_memoize () =
  wave_rejects "memoize:false" (fun root ->
      Runtime.start ~backend:Runtime.Compiled ~memoize:false ~domains:1 root)

(* Supervision parity: one guard factory serves every placement, so a
   lift and a fold raising on seeded values must give the same displayed
   values and the same failure/restart counts on the threaded compiled
   runtime, both wave configurations and all three dispatcher
   placements. *)
let supervised_graph () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let risky =
    Signal.lift2 ~name:"risky"
      (fun x y -> if (x + y) mod 5 = 4 then failwith "lift boom" else (x * 10) + y)
      a b
  in
  let acc =
    Signal.foldp ~name:"acc"
      (fun v acc -> if v mod 7 = 3 then failwith "fold boom" else acc + v)
      0 risky
  in
  (a, b, acc)

let supervised_events =
  List.init 30 (fun i -> (i mod 3 <> 0, ((i * 7) + 3) mod 11))

let supervised_runtime ~policy ?domains ?pool () =
  let rt =
    Gen_graph.with_world (fun () ->
        let a, b, root = supervised_graph () in
        let rt =
          Runtime.start ~backend:Runtime.Compiled ~fuse:false
            ~on_node_error:policy ?domains ?pool root
        in
        List.iter
          (fun (left, v) -> Runtime.inject rt (if left then a else b) v)
          supervised_events;
        rt)
  in
  Runtime.stop rt;
  let st = Runtime.stats rt in
  ( List.map snd (Runtime.changes rt),
    st.Stats.node_failures,
    st.Stats.node_restarts )

let supervised_serve ~policy ?pool () =
  let a, b, root = supervised_graph () in
  let d = Dispatcher.create ~fuse:false ~on_node_error:policy ?pool root in
  let s = Dispatcher.open_session d in
  List.iter
    (fun (left, v) -> Dispatcher.inject d s (if left then a else b) v)
    supervised_events;
  ignore (Dispatcher.drain d);
  let st = Session.stats s in
  ( List.map snd (Session.changes s),
    st.Stats.node_failures,
    st.Stats.node_restarts )

let test_supervision_parity () =
  List.iter
    (fun (pname, policy) ->
      let ((values, failures, restarts) as reference) =
        supervised_runtime ~policy ()
      in
      check_bool (pname ^ ": lifts did fail") true (failures > 0);
      check_bool (pname ^ ": restarts match the policy") true
        (match policy with
        | Runtime.Restart _ -> restarts > 0
        | _ -> restarts = 0);
      check_bool (pname ^ ": something displayed") true (values <> []);
      List.iter
        (fun (placement, run) ->
          check_bool
            (Printf.sprintf "%s: %s = threaded compiled" pname placement)
            true
            (run () = reference))
        [
          ("wave ~domains:1", fun () -> supervised_runtime ~policy ~domains:1 ());
          ( "wave ~pool:2",
            fun () -> supervised_runtime ~policy ~pool:(pool_of 2) () );
          ("dispatcher, no pool", fun () -> supervised_serve ~policy ());
          ( "dispatcher, pool",
            fun () -> supervised_serve ~policy ~pool:(pool_of 2) () );
        ])
    [ ("Isolate", Runtime.Isolate); ("Restart 1", Runtime.Restart 1) ]

(* ------------------------------------------------------------------ *)
(* A wave with several active groups *)

(* An async fan-out: the input feeds [fan_width] branches, each cut off by
   async below and above so it is its own region group, and a merge shows
   the branch values as they come back (branch [k] of event [v] shows
   [10v + k]). All events are injected before the first yield, so the
   second wave holds every branch round at once and goes to the pool as
   one batch of [fan_width] tasks. *)
let fan_width = 4

let fan_out_run ~policy ?domains ?pool () =
  Gen_graph.with_world ~policy (fun () ->
      let src = Signal.input ~name:"src" 0 in
      let branch k =
        Signal.async
          (Signal.lift ~name:(Printf.sprintf "branch%d" k)
             (fun v -> (v * 10) + k)
             (Signal.async src))
      in
      let root =
        List.fold_left Signal.merge (branch 0)
          (List.init (fan_width - 1) (fun k -> branch (k + 1)))
      in
      let rt = Runtime.start ~backend:Runtime.Compiled ?domains ?pool root in
      for v = 1 to 6 do
        Runtime.inject rt src v
      done;
      rt)

let test_multi_group_wave () =
  let pool = pool_of 2 in
  for seed = 0 to 5 do
    let policy = Cml.Scheduler.Seeded_random seed in
    let trace rt =
      Runtime.stop rt;
      Runtime.changes rt
    in
    Pool.reset_worker_stats pool;
    let rt = fan_out_run ~policy ~pool () in
    let tasks =
      Array.fold_left (fun n w -> n + w.Pool.ws_tasks) 0 (Pool.worker_stats pool)
    in
    check_bool (Printf.sprintf "seed %d: the branches ran as pool tasks" seed)
      true (tasks >= fan_width);
    let merged = Stats.create () in
    Array.iter (Stats.merge merged) (Runtime.domain_stats rt);
    check_int
      (Printf.sprintf "seed %d: domain rows merge to region_steps" seed)
      (Runtime.stats rt).Stats.region_steps merged.Stats.region_steps;
    let pooled = trace rt in
    check_bool (Printf.sprintf "seed %d: something displayed" seed) true
      (pooled <> []);
    check_bool (Printf.sprintf "seed %d: pool trace = ~domains:1" seed) true
      (pooled = trace (fan_out_run ~policy ~domains:1 ()));
    (* Lanes may interleave the branches' returns differently (the paper
       keeps order within each async subgraph, not between them): compare
       each branch's own subsequence. *)
    let lanes = trace (fan_out_run ~policy ()) in
    for k = 0 to fan_width - 1 do
      let branch = List.filter (fun (_, v) -> v mod 10 = k) in
      check_bool
        (Printf.sprintf "seed %d: branch %d trace = lanes" seed k)
        true
        (branch pooled = branch lanes)
    done;
    check_int (Printf.sprintf "seed %d: lanes show as many changes" seed)
      (List.length pooled) (List.length lanes)
  done

(* ------------------------------------------------------------------ *)
(* Pool.run error path: waves run under Propagate on it *)

let test_run_error_keeps_batch () =
  let pool = pool_of 2 in
  let ran = Array.init 6 (fun _ -> Atomic.make false) in
  let tasks =
    Array.init 6 (fun i _w ->
        Atomic.set ran.(i) true;
        if i = 2 then failwith "task 2 boom")
  in
  check_bool "task error re-raised after the barrier" true
    (try
       Pool.run pool tasks;
       false
     with Failure msg -> msg = "task 2 boom");
  Array.iteri
    (fun i r ->
      check_bool (Printf.sprintf "task %d of the failed batch ran" i) true
        (Atomic.get r))
    ran;
  (* the pool survives a failed batch *)
  let next = Atomic.make 0 in
  Pool.run pool (Array.make 3 (fun _w -> Atomic.incr next));
  check_int "the next batch runs in full" 3 (Atomic.get next)

(* ------------------------------------------------------------------ *)
(* Satellite: atomic generation minting *)

let test_generation_unique_across_domains () =
  let n_domains = 4 and per = 500 in
  let mint () = Array.init per (fun _ -> Runtime.fresh_generation ()) in
  let spawned = Array.init n_domains (fun _ -> Domain.spawn mint) in
  let own = mint () in
  let minted =
    own :: Array.to_list (Array.map Domain.join spawned) |> Array.concat
  in
  let distinct = List.sort_uniq compare (Array.to_list minted) in
  check_int "concurrent mints never collide"
    ((n_domains + 1) * per)
    (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Satellite: Keyboard/Touch per-generation tables drain on stop *)

let test_std_tables_return_to_baseline () =
  let kb0 = Keyboard.held_table_size () in
  let tc0 = Touch.ongoing_table_size () in
  for _cycle = 1 to 8 do
    let rt =
      World.run (fun () ->
          let rt = Runtime.start Keyboard.arrows in
          Keyboard.press rt Keyboard.up_arrow;
          Keyboard.press rt Keyboard.left_arrow;
          rt)
    in
    check_bool "held entry live while the runtime runs" true
      (Keyboard.held_table_size () > kb0);
    Runtime.stop rt;
    check_int "held entry dropped by stop" kb0 (Keyboard.held_table_size ());
    let rt =
      World.run (fun () ->
          let rt = Runtime.start (Signal.lift List.length Touch.touches) in
          Touch.touch_start rt ~id:1 (0, 0);
          Touch.touch_move rt ~id:1 (3, 4);
          rt)
    in
    check_bool "ongoing entry live while the runtime runs" true
      (Touch.ongoing_table_size () > tc0);
    Runtime.stop rt;
    check_int "ongoing entry dropped by stop" tc0 (Touch.ongoing_table_size ())
  done;
  check_int "held table at baseline after churn" kb0
    (Keyboard.held_table_size ());
  check_int "ongoing table at baseline after churn" tc0
    (Touch.ongoing_table_size ());
  (* stop is idempotent and safe on never-pressed runtimes *)
  let rt = World.run (fun () -> Runtime.start Keyboard.arrows) in
  Runtime.stop rt;
  Runtime.stop rt;
  check_int "idempotent stop leaves baseline" kb0 (Keyboard.held_table_size ())

(* ------------------------------------------------------------------ *)
(* Explorer Domains axis: chaos schedules over the wave runtime *)

let test_explore_domains_smoke () =
  let prog =
    Explore.program ~name:"domains-smoke" ~show:string_of_int (fun () ->
        let a = Signal.input ~name:"a" 0 in
        let b = Signal.input ~name:"b" 0 in
        let root =
          Signal.foldp ( + ) 0
            (Signal.lift2 (fun x y -> (x * 31) + y) a
               (Signal.drop_repeats (Signal.lift (fun y -> y / 2) b)))
        in
        {
          Explore.root;
          drive =
            (fun rt ->
              for i = 1 to 5 do
                Runtime.inject rt a i;
                Runtime.inject rt b (7 - i)
              done);
        })
  in
  let r = Explore.run ~schedules:4 ~backend:Runtime.Compiled ~domains:2 prog in
  check_bool "wave runtime clean under chaos schedules" true (Explore.ok r);
  (* cross-domain-count oracle: reports agree run to run *)
  let r1 = Explore.run ~schedules:4 ~backend:Runtime.Compiled ~domains:1 prog in
  check_bool "domains=1 equally clean" true (Explore.ok r1)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "domains"
    [
      ( "wave",
        [
          qc prop_domain_count_invisible;
          qc prop_wave_matches_sequential;
          tc "owned pool round-trip (~domains:2)" `Quick
            test_owned_pool_roundtrip;
          tc "domains + mutate rejected" `Quick test_wave_rejects_mutate;
          tc "domains + queue_capacity rejected" `Quick
            test_wave_rejects_queue_capacity;
          tc "pool + backend Pipelined rejected" `Quick
            test_wave_rejects_pipelined;
          tc "domains + memoize:false rejected" `Quick
            test_wave_rejects_no_memoize;
          tc "supervision parity on every placement" `Quick
            test_supervision_parity;
          tc "multi-group wave on a pool = ~domains:1 and lanes" `Quick
            test_multi_group_wave;
        ] );
      ( "pool",
        [
          tc "task error re-raised, batch and pool survive" `Quick
            test_run_error_keeps_batch;
        ] );
      ( "generation",
        [
          tc "atomic minting unique across domains" `Quick
            test_generation_unique_across_domains;
        ] );
      ( "std-tables",
        [
          tc "Keyboard/Touch tables drain on stop" `Quick
            test_std_tables_return_to_baseline;
        ] );
      ( "explore",
        [ tc "Domains axis smoke" `Quick test_explore_domains_smoke ] );
    ]
