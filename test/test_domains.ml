(* Intra-session parallel region dispatch (Runtime.start ~domains / ~pool).

   The oracle is determinism: one event wave may fan its region lanes out
   over a domain pool, but admission order, epoch assignment and effect
   flushing are coordinator-side and plan-deterministic, so the observable
   behaviour — change trace (virtual times included), message log and
   counter totals — must be bit-identical for every domain count and every
   pool schedule seed. The properties here check exactly that over the
   shared gen_graph catalogue, on a wave with several active regions and
   on two regions with async seams both ways, plus the satellite fixes
   that ride along: Pool.run's error path,
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
module Compile = Elm_core.Compile

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

let run_wave ?policy ~config shape events =
  let domains, pool =
    match config with
    | `Inline -> (Some 1, None)
    | `Pool k -> (None, Some (pool_of k))
  in
  observe
    (Gen_graph.run_shape ~backend:Runtime.Compiled ?policy ?domains
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
   exactly. *)
let prop_wave_matches_sequential =
  QCheck.Test.make
    ~name:"wave = sequential compiled dispatcher (deterministic shapes)"
    ~count:12 Gen_graph.arb_deterministic_shape_events
    (fun (shape, events) ->
      let legacy =
        observe (Gen_graph.run_shape ~backend:Runtime.Compiled shape events)
      in
      run_wave ~config:`Inline shape events = legacy
      && run_wave ~config:(`Pool 2) shape events = legacy)

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
(* A wave with several active regions *)

(* An async fan-out: the input feeds [fan_width] branches, each cut off by
   async below and above so it is its own region, and a merge shows
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
(* Two regions with async seams in both directions *)

(* Region A holds [a], [inner2], [j1] and the root; region B holds [b],
   [inner1] and [j2]. [inner1] (B) feeds [j1] (A) and [j2] (B) feeds the
   root (A) through async, and [inner2] (A) feeds [j2] (B), so each
   region is downstream of the other. [slow] makes [inner1] charge 2 s of
   virtual time once armed. *)
let two_way ?(slow = fun () -> false) () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let inner2 = Signal.lift ~name:"inner2" (fun x -> x * 10) a in
  let inner1 =
    Signal.lift ~name:"inner1"
      (fun y ->
        if slow () then Cml.sleep 2.0;
        y * 100)
      b
  in
  let j1 = Signal.lift2 ~name:"j1" ( + ) (Signal.async inner1) a in
  let j2 = Signal.lift2 ~name:"j2" ( - ) (Signal.async inner2) b in
  let root =
    Signal.lift2 ~name:"root" (fun u v -> (u * 1000) + v) j1 (Signal.async j2)
  in
  (a, b, root)

let two_way_events =
  [
    (true, 1); (false, 2); (true, 3); (true, 4); (false, 5); (false, 6);
    (true, 7);
  ]

(* [spaced] lets every event settle (1 s of virtual time) before the next;
   otherwise all are injected before the first yield. *)
let two_way_run ?(backend = Runtime.Compiled) ?mode ?domains ?pool ~spaced () =
  let rt =
    Gen_graph.with_world ~policy:Cml.Scheduler.Fifo (fun () ->
        let a, b, root = two_way () in
        let rt = Runtime.start ~backend ?mode ?domains ?pool root in
        List.iter
          (fun (left, v) ->
            Runtime.inject rt (if left then a else b) v;
            if spaced then Cml.sleep 1.0)
          two_way_events;
        rt)
  in
  Runtime.stop rt;
  Runtime.changes rt

(* Seams both ways between two regions, the shape that once made them one
   lane. Each region now has its own lane, and every compiled placement
   shows the trace measured when they shared one. Settled events match the
   pipelined Sequential reference; a burst interleaves async re-entries
   with queued inputs on the compiled backend in its own (per-source
   ordered) way, pinned here as measured on the shared lane. *)
let test_two_way_seams () =
  let _, _, root = two_way () in
  let plan = Compile.plan_of (Elm_core.Fuse.fuse_cached root) in
  check_int "two regions" 2 (Compile.region_count plan);
  check_int "two lanes" 2 (Compile.group_count plan);
  let placements =
    [
      ("lanes", fun spaced -> two_way_run ~spaced ());
      ( "sequential lanes",
        fun spaced -> two_way_run ~mode:Runtime.Sequential ~spaced () );
      ("waves inline", fun spaced -> two_way_run ~domains:1 ~spaced ());
      ( "waves on 2 domains",
        fun spaced -> two_way_run ~pool:(pool_of 2) ~spaced () );
    ]
  in
  let at_zero = List.map (fun v -> (0., v)) in
  let expected =
    [
      ( false,
        at_zero
          [ 1000; 3000; 4000; 7000; 207000; 206998; 506998; 506995; 606995;
            606994; 607004; 607024; 607034; 607064 ] );
      ( true,
        [ (0., 1000); (0., 1010); (1., 201010); (1., 201008); (2., 203008);
          (2., 203028); (3., 204028); (3., 204038); (4., 504038);
          (4., 504035); (5., 604035); (5., 604034); (6., 607034);
          (6., 607064) ] );
    ]
  in
  let reference =
    two_way_run ~backend:Runtime.Pipelined ~mode:Runtime.Sequential
      ~spaced:true ()
  in
  check_bool "settled: the pinned trace is the pipelined Sequential one" true
    (reference = List.assoc true expected);
  List.iter
    (fun (spaced, trace) ->
      List.iter
        (fun (name, run) ->
          check_bool
            (Printf.sprintf "%s (%s): the trace measured on one lane" name
               (if spaced then "settled" else "burst"))
            true
            (run spaced = trace))
        placements)
    expected

(* Paper §5 on the same shape: region B's [inner1] charges 2 s, and the
   five [a] events injected meanwhile display at their own times on
   region A's lane, as on the pipelined runtime. With both regions on one
   lane they all waited until 2 s. *)
let test_two_way_slow_region () =
  let run ?backend ?mode () =
    let rt =
      Gen_graph.with_world ~policy:Cml.Scheduler.Fifo (fun () ->
          let armed = ref false in
          let a, b, root = two_way ~slow:(fun () -> !armed) () in
          let rt = Runtime.start ?backend ?mode root in
          armed := true;
          Runtime.inject rt b 1;
          for i = 1 to 5 do
            Cml.sleep 0.1;
            Runtime.inject rt a i
          done;
          rt)
    in
    Runtime.stop rt;
    Runtime.changes rt
  in
  (* The distinct display times before [inner1]'s 2 s are up: the [a]
     events' (the pipelined runtime also shows [j2]'s quick re-entry at
     0 s). *)
  let early changes =
    List.sort_uniq compare
      (List.filter_map
         (fun (t, _) -> if t > 0.0 && t < 2.0 then Some t else None)
         changes)
  in
  let reference = early (run ()) in
  check_int "pipelined: five early display times" 5 (List.length reference);
  List.iter
    (fun (name, mode) ->
      let changes = run ~backend:Runtime.Compiled ~mode () in
      check_bool (name ^ ": a's events show when the pipelined ones do") true
        (early changes = reference);
      check_bool (name ^ ": b's result arrives at 2 s") true
        (List.exists (fun (t, v) -> t = 2.0 && v >= 100_000) changes))
    [ ("lanes", Runtime.Pipelined); ("sequential lanes", Runtime.Sequential) ]

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
      ( "two-way",
        [
          tc "a lane per region, one trace on every placement" `Quick
            test_two_way_seams;
          tc "a slow region holds back only itself" `Quick
            test_two_way_slow_region;
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
