(* Tests for the compiled backend (Elm_core.Compile): synchronous regions
   between async/delay boundaries compiled to straight-line step functions.
   The compiled runtime must be observationally identical to the pipelined
   one across the whole shape catalogue x mode x dispatch x fusion matrix,
   region partitioning must cover the graph exactly, arena state must be
   fresh per runtime, and the accounting/tracing surfaces must report
   regions instead of stale per-member rows. The schedule explorer and the
   planted-mutation coverage suite both run against the compiled backend. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Event = Elm_core.Event
module Stats = Elm_core.Stats
module Compile = Elm_core.Compile
module Reach = Elm_core.Reach
module Fuse = Elm_core.Fuse
module Trace = Elm_core.Trace
module Explore = Elm_check.Explore
module Mutate = Elm_check.Mutate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

let with_world body = Gen_graph.with_world body
let values = Gen_graph.values

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Randomized compiled-vs-pipelined trace equivalence over the shared
   Gen_graph catalogue, across both modes and with fusion both on and off.
   Chain functions are injective and cost no virtual time, so the compiled
   backend (cone dispatch, its only one) must be bit-identical to the
   pipelined Cone run: same change values, same virtual times, same
   display message log. Pipelined Flood displays every round, so against
   it only the changes and the current value must agree. *)

let equivalent shape events (mode, dispatch) fuse =
  let run backend dispatch =
    Gen_graph.run_shape ~backend ~fuse ~mode ~dispatch shape events
  in
  let pipelined = run Runtime.Pipelined dispatch in
  let compiled = run Runtime.Compiled Runtime.Cone in
  let log_p = Runtime.message_log pipelined in
  let log_c = Runtime.message_log compiled in
  Runtime.changes pipelined = Runtime.changes compiled
  && Runtime.current pipelined = Runtime.current compiled
  && (dispatch = Runtime.Flood
     || List.length log_p = List.length log_c
        && List.for_all2 Gen_graph.entry_equal log_p log_c)

let prop_compiled_equals_pipelined =
  QCheck.Test.make
    ~name:"compiled: identical changes/current/log across mode x dispatch x \
           fuse"
    ~count:40 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      List.for_all
        (fun combo ->
          List.for_all (equivalent shape events combo) [ false; true ])
        Gen_graph.all_combos)

(* The delay shape runs alike on both backends under chaos schedules,
   virtual times included: equal-due wakes leave in the delay heap's
   (due, epoch, node) order on each, not in the order the scheduler ran
   sleeping threads. *)
let prop_delay_shape_backends_agree =
  QCheck.Test.make
    ~name:"delay shape: compiled = pipelined under Seeded_random"
    ~count:60
    QCheck.(pair (list (pair bool (int_bound 7))) small_nat)
    (fun (events, seed) ->
      let policy = Cml.Scheduler.Seeded_random seed in
      List.for_all
        (fun mode ->
          let run backend =
            Runtime.changes
              (Gen_graph.run_shape ~backend ~mode ~policy 10 events)
          in
          run Runtime.Compiled = run Runtime.Pipelined)
        [ Runtime.Pipelined; Runtime.Sequential ])

(* The elision invariant holds for the compiled backend too: the root's
   display emission is the only real message, everything else is accounted
   as elided, and the per-event sum still equals node_count. *)
let prop_compiled_accounting =
  QCheck.Test.make ~name:"compiled: messages + elided = nodes * events"
    ~count:40 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      let rt =
        Gen_graph.run_shape ~backend:Runtime.Compiled shape events
      in
      let st = Runtime.stats rt in
      st.Stats.messages + st.Stats.elided_messages
      = Runtime.node_count rt * st.Stats.events)

(* ------------------------------------------------------------------ *)
(* Region partitioning units *)

let test_pure_graph_single_region () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let root = Signal.foldp ( + ) 0 (Signal.lift2 ( + ) a b) in
  let plan = Compile.plan root in
  check_int "one region" 1 (List.length (Compile.regions plan));
  check_int "no cut edges" 0 (List.length (Compile.cuts plan));
  let rg = List.hd (Compile.regions plan) in
  check_int "all four nodes are members" 4 (List.length rg.Compile.rg_members)

let test_async_graph_two_regions () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let inner = Signal.lift succ b in
  let root = Signal.lift2 ( + ) a (Signal.async inner) in
  let plan = Compile.plan root in
  check_int "two regions" 2 (List.length (Compile.regions plan));
  check_int "one cut edge" 1 (List.length (Compile.cuts plan));
  let inner_id = Signal.id inner in
  let cut_inner, _ = List.hd (Compile.cuts plan) in
  check_int "the cut edge leaves the async's inner node" inner_id cut_inner;
  (* b and its lift are one region; a, the async source and the root the
     other. The async node belongs to the downstream region: its mailbox is
     a source for the region that reads it. *)
  let region_idx id = Option.get (Compile.region_of plan id) in
  check_bool "inner chain separated from the consumer" true
    (region_idx (Signal.id b) <> region_idx (Signal.id root));
  check_bool "async node lives with its consumer" true
    (region_idx (Signal.id root) <> region_idx inner_id)

let test_partition_covers_every_shape () =
  for shape = 0 to Gen_graph.shape_count - 1 do
    let _, _, s = Gen_graph.build_shape shape in
    let root = Fuse.fuse s in
    let plan = Compile.plan root in
    let all = Signal.reachable root in
    (* every node is in exactly one region *)
    List.iter
      (fun (Signal.Pack n) ->
        match Compile.region_of plan (Signal.id n) with
        | None ->
          Alcotest.failf "shape %d: node %d in no region" shape (Signal.id n)
        | Some _ -> ())
      all;
    let member_total =
      List.fold_left
        (fun acc rg -> acc + List.length rg.Compile.rg_members)
        0 (Compile.regions plan)
    in
    check_int
      (Printf.sprintf "shape %d: members partition the graph" shape)
      (List.length all) member_total;
    (* the representative is a member of its own region *)
    List.iter
      (fun rg ->
        check_bool
          (Printf.sprintf "shape %d: rep is a member" shape)
          true
          (List.mem rg.Compile.rg_rep rg.Compile.rg_member_ids))
      (Compile.regions plan)
  done

(* Cone locality: every node of a source's synchronous cone lies in the
   one region its schedule names, fused and unfused, over the whole
   catalogue. A wave runs its region lanes in any order on the strength
   of this (with buffered boundary effects), and a schedule is one region's
   op subsequence; a repartition that splits a synchronous cone must fail
   here. *)
let test_source_cone_wakes_one_region () =
  for shape = 0 to Gen_graph.shape_count - 1 do
    List.iter
      (fun fuse ->
        let _, _, s = Gen_graph.build_shape shape in
        let root = if fuse then Fuse.fuse s else s in
        let plan = Compile.plan root in
        List.iter
          (fun (src, name) ->
            let sc = Compile.schedule plan src in
            List.iter
              (fun (Signal.Pack n) ->
                check_bool
                  (Printf.sprintf "shape %d (fuse %b): %s's cone in one region"
                     shape fuse name)
                  true
                  (Compile.region_of plan (Signal.id n) = Some sc.sc_region))
              (Reach.cone (Compile.reach plan) src))
          (Compile.sources plan))
      [ false; true ]
  done

(* Per-source schedules, the compiled clock of each source: over the
   catalogue, fused and unfused, a source's schedule holds exactly its
   cone's member ops plus the async/delay taps whose inner node is in the
   cone, in plan order (deps first, each tap right after its inner node,
   taps in plan order of their boundary node), and its member entries
   number the cone's size. The compiled-vs-pipelined trace tests stay the
   behavioural oracle. *)
let test_source_schedule_is_its_cone () =
  for shape = 0 to Gen_graph.shape_count - 1 do
    List.iter
      (fun fuse ->
        let _, _, s = Gen_graph.build_shape shape in
        let root = if fuse then Fuse.fuse s else s in
        let plan = Compile.plan root in
        let reach = Compile.reach plan in
        let order = Signal.reachable root in
        let taps_of id =
          List.filter_map
            (fun (Signal.Pack t) ->
              match Signal.kind t with
              | (Signal.Async inner | Signal.Delay (_, inner))
                when Signal.id inner = id ->
                Some (Signal.id t)
              | _ -> None)
            order
        in
        let expected keep =
          List.concat_map
            (fun (Signal.Pack n) ->
              let id = Signal.id n in
              if keep id then id :: taps_of id else [])
            order
        in
        let label = Printf.sprintf "shape %d (fuse %b)" shape fuse in
        List.iter
          (fun (src, name) ->
            let sc = Compile.schedule plan src in
            let in_cone node = Reach.affects reach ~source:src ~node in
            check_ints
              (Printf.sprintf "%s: %s's schedule = its cone + taps" label name)
              (expected in_cone)
              (Array.to_list sc.sc_nodes);
            check_int (label ^ ": one op per entry") (Array.length sc.sc_nodes)
              (Array.length sc.sc_ops);
            check_int (label ^ ": cone size") (Reach.cone_size reach src)
              (List.length (List.filter in_cone (Array.to_list sc.sc_nodes)));
            check_bool (label ^ ": reaches the display iff the root is in it")
              (in_cone (Signal.id root)) sc.sc_root)
          (Compile.sources plan);
        check_int (label ^ ": a non-source wakes nothing") (-1)
          (Compile.schedule plan (Signal.id root + 1_000_000)).sc_region)
      [ false; true ]
  done

(* The serving workloads' shapes, rebuilt here: a program without an
   async branch of a shared source keeps the regions and per-source op
   arrays it had before branches were split off (measured then), fused and
   unfused; the GUI shape with one splits into two regions and still
   upgrades onto a rebuild of itself as an identity. *)
let churn_shape () =
  let mask = 0xFFFFFF in
  let fold y acc = (acc + y) land mask in
  let clicks = Signal.input ~name:"clicks" 0 in
  let keys = Signal.input ~name:"keys" 0 in
  let ticks = Signal.input ~name:"ticks" 0 in
  let rec lifts j s =
    if j > 6 then s else lifts (j + 1) (Signal.lift (fun x -> ((x * 17) + j) land 0xFFFF) s)
  in
  let c = Signal.foldp fold 0 (lifts 1 clicks) in
  let a =
    Signal.foldp (fun x acc -> ((acc * 7) + x) land mask) 0
      (Signal.async (Signal.lift succ keys))
  in
  let d = Signal.foldp fold 0 (Signal.delay 0.01 (Signal.lift (fun x -> x * 3) ticks)) in
  Signal.lift3 (fun c a d -> (c, a, d)) c a d

let steady_shape () =
  let chain i =
    let rec lifts j s =
      if j > 16 then s
      else
        let s = Signal.lift (fun x -> x + j) s in
        lifts (j + 1) (if j = 8 then Signal.drop_repeats s else s)
    in
    Signal.foldp (fun y acc -> acc + y) 0
      (lifts 1 (Signal.input ~name:(Printf.sprintf "in%d" i) 0))
  in
  Signal.combine (List.init 8 chain)

let gui_shape () =
  let mouse = Signal.input ~name:"Mouse.position" (0, 0) in
  let keys = Signal.input ~name:"Keyboard.lastPressed" (0, 0) in
  let rec lifts j s =
    if j > 8 then s else lifts (j + 1) (Signal.lift (fun (k, h) -> (k, h + j)) s)
  in
  let m = lifts 1 (Signal.lift (fun (k, p) -> (k, p land 0xFFFF)) mouse) in
  let hist = Signal.foldp (fun (_, h) acc -> acc + h) 0 m in
  let kc = Signal.count (Signal.drop_repeats ~eq:(fun (_, a) (_, b) -> a = b) keys) in
  let w = Signal.async (Signal.lift (fun (s, k) -> (s, k * 3)) keys) in
  Signal.lift4 (fun m h k w -> (m, h, k, w)) m hist kc w

let test_serve_shapes_pinned () =
  let pin name root regions fused unfused =
    List.iter
      (fun (mode, plan, ops) ->
        check_int (Printf.sprintf "%s (%s): regions" name mode) regions
          (Compile.region_count plan);
        check_ints (Printf.sprintf "%s (%s): per-source op counts" name mode) ops
          (List.map
             (fun (src, _) -> Array.length (Compile.schedule plan src).sc_ops)
             (Compile.sources plan));
        check_int (Printf.sprintf "%s (%s): no shadow slots" name mode) 0
          (Array.length (Compile.shadow_sources plan)))
      [
        ("fused", Compile.plan (Fuse.fuse (root ())), fused);
        ("unfused", Compile.plan (root ()), unfused);
      ]
  in
  pin "serve_churn" churn_shape 3 [ 4; 3; 3; 3; 3 ] [ 9; 3; 3; 3; 3 ];
  pin "serve_steady" steady_shape 1 (List.init 8 (fun _ -> 4))
    (List.init 8 (fun _ -> 20));
  let plan () = Compile.plan (Fuse.fuse (gui_shape ())) in
  let old = plan () and fresh = plan () in
  check_int "gui_async: the key branch is a region of its own" 2
    (Compile.region_count old);
  let patch = Elm_core.Upgrade.diff old fresh in
  let ar = Elm_core.Upgrade.remap patch (Compile.new_arena old) in
  check_int "gui_async: a remapped arena keeps the shadow slot"
    (Compile.node_count fresh + 1) (Array.length ar.Compile.ar_stamps);
  check_bool "gui_async: a rebuild diffs as an identity" true
    (Elm_core.Upgrade.is_identity patch);
  check_int "gui_async: nothing added" 0
    (List.length (Elm_core.Upgrade.added_slots patch));
  check_int "gui_async: nothing dropped" 0
    (List.length (Elm_core.Upgrade.dropped_slots patch))

let test_compiled_dot_shows_regions () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let root = Signal.lift2 ( + ) a (Signal.async (Signal.lift succ b)) in
  let dot = Compile.to_dot ~label:"regions" root in
  check_bool "has a cluster per region" true
    (contains dot "cluster_region_0" && contains dot "cluster_region_1");
  check_bool "clusters are dashed" true (contains dot "style=dashed";);
  check_bool "dispatcher re-entry edge drawn" true
    (contains dot "new event")

(* ------------------------------------------------------------------ *)
(* Arena state: foldp accumulators live in generation-stamped cells, so a
   second runtime over the same nodes must start from the defaults. *)

let test_foldp_state_fresh_per_runtime () =
  let a = Signal.input ~name:"a" 0 in
  let root = Signal.foldp ( + ) 0 (Signal.lift succ a) in
  let drive () =
    with_world (fun () ->
        let rt = Runtime.start ~backend:Runtime.Compiled root in
        List.iter (fun v -> Runtime.inject rt a v) [ 1; 2; 3 ];
        rt)
  in
  let first = drive () in
  check_ints "first run accumulates" [ 2; 5; 9 ] (values first);
  let second = drive () in
  check_ints "second runtime starts from the default accumulator"
    [ 2; 5; 9 ] (values second)

(* ------------------------------------------------------------------ *)
(* Stats and tracing surfaces *)

let test_stats_report_regions () =
  let run backend =
    Gen_graph.run_shape ~backend 13 [ (true, 1); (false, 2); (true, 3) ]
  in
  let compiled = Runtime.stats (run Runtime.Compiled) in
  let pipelined = Runtime.stats (run Runtime.Pipelined) in
  check_bool "compiled regions counted" true
    (compiled.Stats.compiled_regions >= 2);
  check_bool "region steps counted" true (compiled.Stats.region_steps > 0);
  check_int "pipelined reports no regions" 0 pipelined.Stats.compiled_regions;
  let pp st = Format.asprintf "%a" Stats.pp st in
  check_bool "compiled pp shows regions" true (contains (pp compiled) "regions=");
  check_bool "pipelined pp omits regions" true
    (not (contains (pp pipelined) "regions="))

let test_trace_reports_region_rows () =
  let tracer = Trace.create () in
  let _rt =
    with_world (fun () ->
        let a = Signal.input ~name:"a" 0 in
        let b = Signal.input ~name:"b" 0 in
        let root =
          Signal.lift2 ~name:"join" ( + ) (Signal.lift ~name:"inc" succ a)
            (Signal.async (Signal.lift ~name:"dbl" (fun x -> x * 2) b))
        in
        let rt = Runtime.start ~backend:Runtime.Compiled ~tracer root in
        List.iter (fun v -> Runtime.inject rt a v) [ 1; 2 ];
        Runtime.inject rt b 5;
        rt)
  in
  let s = Trace.summary tracer in
  check_bool "at least one region row" true (List.length s.Trace.nodes >= 1);
  List.iter
    (fun ns ->
      check_bool
        (Printf.sprintf "row %s is a region" ns.Trace.node_name)
        true
        (String.length ns.Trace.node_name >= 7
        && String.sub ns.Trace.node_name 0 7 = "region:");
      check_bool
        (Printf.sprintf "row %s processed rounds (no stale zero rows)"
           ns.Trace.node_name)
        true (ns.Trace.rounds > 0))
    s.Trace.nodes

(* Options outside the compiled envelope raise instead of silently running
   the pipelined backend. *)
let compiled_rejects what start =
  let raised =
    with_world (fun () ->
        let a = Signal.input ~name:"a" 0 in
        match start (Signal.lift succ a) with
        | _ -> false
        | exception Invalid_argument _ -> true)
  in
  check_bool (Printf.sprintf "compiled + %s raises" what) true raised

(* memoize:false is the pull-style baseline that re-runs steps on quiescent
   rounds — incompatible with the dirty-bit skip. *)
let test_memoize_false_rejected () =
  compiled_rejects "memoize:false" (fun root ->
      Runtime.start ~backend:Runtime.Compiled ~memoize:false root)

(* Flood runs every node on every round; the compiled backend runs each
   wake's cone only. The explorer rejects it up front too. *)
let test_flood_rejected () =
  compiled_rejects "dispatch:Flood" (fun root ->
      Runtime.start ~backend:Runtime.Compiled ~dispatch:Runtime.Flood root);
  check_bool "Explore.run: compiled + dispatch:Flood raises" true
    (match
       Explore.run ~backend:Runtime.Compiled ~dispatch:Runtime.Flood
         ~schedules:1 (Mutate.victim ())
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Plan cache: compiling a graph shape is paid once; later runtimes over
   the same built graph reuse the cached plan (keyed on the fused root, so
   Runtime.start's default fusion still hits). Clearing the cache forces a
   recompile that must be observationally invisible. *)

let test_plan_cache_hit_across_runtimes () =
  let a = Signal.input ~name:"a" 0 in
  let root = Signal.foldp ( + ) 0 (Signal.lift succ a) in
  let drive () =
    with_world (fun () ->
        let rt = Runtime.start ~backend:Runtime.Compiled root in
        List.iter (fun v -> Runtime.inject rt a v) [ 1; 2; 3 ];
        rt)
  in
  Compile.clear_plan_cache ();
  let before = Compile.plan_cache_stats () in
  let first = drive () in
  let after_first = Compile.plan_cache_stats () in
  check_bool "first start compiles the plan (a miss)" true
    (after_first.Compile.misses > before.Compile.misses);
  let second = drive () in
  let after_second = Compile.plan_cache_stats () in
  check_bool "second start over the same graph hits the cache" true
    (after_second.Compile.hits > after_first.Compile.hits);
  check_int "no second compile" after_first.Compile.misses
    after_second.Compile.misses;
  check_bool "cache hit is observationally invisible" true
    (Runtime.changes first = Runtime.changes second);
  Compile.clear_plan_cache ();
  let third = drive () in
  let after_third = Compile.plan_cache_stats () in
  check_bool "cleared cache recompiles" true
    (after_third.Compile.misses > after_second.Compile.misses);
  check_bool "bit-identical traces after the recompile" true
    (Runtime.changes first = Runtime.changes third)

let test_plan_cache_shares_plan_object () =
  let a = Signal.input ~name:"a" 0 in
  let root = Signal.lift2 ( + ) (Signal.lift succ a) (Signal.input ~name:"b" 0) in
  Compile.clear_plan_cache ();
  let p1 = Compile.plan_of root in
  let p2 = Compile.plan_of root in
  check_bool "same physical plan for the same built graph" true (p1 == p2);
  check_bool "cache reports the entry" true
    ((Compile.plan_cache_stats ()).Compile.entries >= 1)

(* Concurrent compilation: several domains hammer graph construction,
   fusion memoisation and the plan cache at once. On the pre-Mutex code
   this crashed or corrupted state three separate ways — torn [fresh_id]
   increments handing two nodes one id (poisoning both memo keys),
   unguarded [node_fused] publication, and racing Hashtbl writes inside
   the bounded cache (including full [reset] churn past its capacity).
   Each domain also re-resolves a shared graph's plan repeatedly: every
   resolution must return the one canonical (physically equal) plan. *)
let test_plan_cache_concurrent_compile () =
  Compile.clear_plan_cache ();
  let shared_in = Signal.input ~name:"shared" 0 in
  let shared = Signal.foldp ( + ) 0 (Signal.lift succ shared_in) in
  let shared_fused = Fuse.fuse_cached shared in
  let canonical = Compile.plan_of shared_fused in
  let failures = Atomic.make 0 in
  let per_domain = 300 (* > max_cached_plans: forces reset churn *) in
  let worker () =
    for i = 1 to per_domain do
      (* a fresh small graph: exercises fresh_id + fuse + plan build *)
      let x = Signal.input ~name:"x" 0 in
      let root =
        Signal.lift2 ( + )
          (Signal.lift (fun v -> (v * 3) + i) x)
          (Signal.drop_repeats (Signal.lift (fun v -> v / 2) x))
      in
      let fused = Fuse.fuse_cached root in
      let pl = Compile.plan_of fused in
      if Compile.plan_of fused != pl then Atomic.incr failures;
      (* the fusion memo must publish exactly one fused root *)
      if Fuse.fuse_cached root != fused then Atomic.incr failures;
      (* the shared graph's plan stays canonical under cross-domain races
         (unless the bounded cache reset evicted it, in which case the
         fresh plan must itself be stable) *)
      let p = Compile.plan_of shared_fused in
      if Compile.plan_of shared_fused != p then Atomic.incr failures;
      ignore canonical
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  check_int "no torn plans or memo races" 0 (Atomic.get failures);
  (* distinct graphs got distinct node ids: the shared plan still resolves
     and drives a runtime correctly after the storm *)
  let rt =
    with_world (fun () ->
        let rt = Runtime.start ~backend:Runtime.Compiled shared_fused in
        List.iter (fun v -> Runtime.inject rt shared_in v) [ 1; 2 ];
        rt)
  in
  check_ints "shared graph still correct after concurrent churn" [ 2; 5 ]
    (values rt)

(* Regression: [clear_plan_cache] used to leave the [Fuse.fuse_cached]
   memos behind. A memoised fused root then outlived its plan, so the next
   [fuse_cached] hit handed back the stale root and [plan_of] silently
   repopulated the cache for it — and a live upgrade diffing "old plan vs
   new plan" could see the same physical objects on both sides. Clearing
   must drop both together. *)
let test_clear_plan_cache_clears_fuse_memos () =
  Compile.clear_plan_cache ();
  let a = Signal.input ~name:"a" 0 in
  let root =
    Signal.foldp ( + ) 0 (Signal.lift succ (Signal.lift succ (Signal.lift succ a)))
  in
  let fused1 = Fuse.fuse_cached root in
  check_bool "fusion actually rewrote the chain" true (fused1 != root);
  check_bool "memo stable before the clear" true
    (Fuse.fuse_cached root == fused1);
  let p1 = Compile.plan_of fused1 in
  Compile.clear_plan_cache ();
  check_bool "fusion memo fell with the plan cache" true
    (Fuse.fuse_cached root != fused1);
  let fused2 = Fuse.fuse_cached root in
  check_bool "plan recompiled fresh for the re-fused root" true
    (Compile.plan_of fused2 != p1)

(* ------------------------------------------------------------------ *)
(* Schedule exploration: the compiled backend's region lanes interleave
   under the same chaos schedules, and every invariant must hold. *)

let explore_deterministic () =
  Explore.program ~name:"compiled-deterministic" ~show:string_of_int
    (fun () ->
      let a = Signal.input ~name:"a" 0 in
      let b = Signal.input ~name:"b" 0 in
      let joined =
        Signal.lift2 (fun x y -> (x * 31) + y)
          (Signal.drop_repeats (Signal.lift (fun x -> x / 2) a))
          (Signal.foldp ( + ) 0 b)
      in
      let root = Signal.foldp ( + ) 0 joined in
      {
        Explore.root;
        drive =
          (fun rt ->
            for i = 1 to 6 do
              Runtime.inject rt (if i mod 2 = 0 then b else a) i
            done);
      })

let explore_async () =
  Explore.program ~name:"compiled-async" ~deterministic:false
    ~classify:(fun v -> Some (v mod 2))
    ~show:string_of_int
    (fun () ->
      let a = Signal.input ~name:"a" 0 in
      let b = Signal.input ~name:"b" 1 in
      let root =
        Signal.merge
          (Signal.lift (fun x -> 2 * x) a)
          (Signal.async (Signal.lift (fun x -> (2 * x) + 1) b))
      in
      {
        Explore.root;
        drive =
          (fun rt ->
            for i = 1 to 4 do
              Runtime.inject rt a i;
              Runtime.inject rt b i
            done);
      })

let test_explore_compiled_deterministic () =
  let report =
    Explore.run ~backend:Runtime.Compiled ~schedules:12
      (explore_deterministic ())
  in
  if not (Explore.ok report) then
    Alcotest.failf "%s" (Format.asprintf "%a" Explore.pp_report report)

let test_explore_compiled_async () =
  let report =
    Explore.run ~backend:Runtime.Compiled ~schedules:12 (explore_async ())
  in
  if not (Explore.ok report) then
    Alcotest.failf "%s" (Format.asprintf "%a" Explore.pp_report report)

(* The planted mutations are channel faults, which have no site in a
   compiled instance: the explorer rejects the combination up front rather
   than reporting a crash as a catch. *)
let test_mutations_rejected_compiled () =
  List.iter
    (fun { Mutate.name; spec } ->
      check_bool
        (name ^ " rejected under the compiled backend")
        true
        (match
           Explore.run ~backend:Runtime.Compiled ~schedules:2 ~mutate:spec
             (Mutate.victim ())
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    Mutate.all

(* ------------------------------------------------------------------ *)
(* The paper's §5 property on the compiled backend: a long computation
   behind [async] must not hold back the display. The B12 program: a 2 s
   virtual-cost lift of Mouse.y behind [async], Mouse.x injected every
   0.1 s. The pipelined runtime shows every Mouse.x at once (0.15 …
   1.05 s); the compiled change list, virtual times included, must be the
   same. A runtime whose region step held the other regions back would
   show all ten at 2.05 s. *)

let async_responsive ~backend ~mode =
  with_world (fun () ->
      let armed = ref false in
      let mouse_x = Signal.input ~name:"Mouse.x" 0 in
      let mouse_y = Signal.input ~name:"Mouse.y" 0 in
      let slow =
        Signal.lift ~name:"slowF"
          (fun y ->
            if !armed then Cml.sleep 2.0;
            y)
          mouse_y
      in
      let rt =
        Runtime.start ~backend ~mode (Signal.pair mouse_x (Signal.async slow))
      in
      armed := true;
      Cml.spawn (fun () ->
          Cml.sleep 0.05;
          Runtime.inject rt mouse_y 1;
          for i = 1 to 10 do
            Cml.sleep 0.1;
            Runtime.inject rt mouse_x i
          done);
      rt)

let test_async_responsive_compiled () =
  List.iter
    (fun (mname, mode) ->
      let pipelined =
        Runtime.changes
          (async_responsive ~backend:(Runtime.Pipelined : Runtime.backend) ~mode)
      in
      let compiled =
        Runtime.changes (async_responsive ~backend:Runtime.Compiled ~mode)
      in
      check_bool (mname ^ ": Mouse.x shown before the slow branch ends") true
        (List.exists (fun (t, (x, _)) -> x = 10 && t < 2.0) pipelined);
      check_bool
        (mname ^ ": compiled change list = pipelined, virtual times included")
        true (compiled = pipelined))
    [ ("Pipelined", Runtime.Pipelined); ("Sequential", Runtime.Sequential) ]

(* The same §5 property when the slow branch shares its source with the
   display: [x] feeds both [shown] and, behind [async], a lift that
   charges 2 s of virtual time once armed. The branch is a region of its
   own with a shadow of [x], so [shown] displays at 0.05 s and 0.15 s as
   on the pipelined runtime; with one region for both, as before, every
   display waited for the slow lift (2.05 s and 4.05 s). *)
let shared_source_responsive ~backend ~mode =
  with_world (fun () ->
      let armed = ref false in
      let x = Signal.input ~name:"x" 0 in
      let shown = Signal.lift ~name:"shown" succ x in
      let slow =
        Signal.lift ~name:"slow"
          (fun v ->
            if !armed then Cml.sleep 2.0;
            v * 100)
          x
      in
      let rt = Runtime.start ~backend ~mode (Signal.pair shown (Signal.async slow)) in
      armed := true;
      Cml.spawn (fun () ->
          Cml.sleep 0.05;
          Runtime.inject rt x 1;
          Cml.sleep 0.1;
          Runtime.inject rt x 2);
      rt)

let test_shared_source_responsive () =
  let expected = [ (0.05, (2, 0)); (0.15, (3, 0)); (2.05, (3, 100)); (4.05, (3, 200)) ] in
  let close a b =
    List.length a = List.length b
    && List.for_all2 (fun (t, v) (t', v') -> Float.abs (t -. t') < 1e-9 && v = v') a b
  in
  List.iter
    (fun (mname, mode) ->
      let pipelined =
        Runtime.changes
          (shared_source_responsive ~backend:(Runtime.Pipelined : Runtime.backend) ~mode)
      in
      check_bool (mname ^ ": the pipelined trace") true (close expected pipelined);
      check_bool (mname ^ ": compiled change list = pipelined, virtual times included")
        true
        (Runtime.changes (shared_source_responsive ~backend:Runtime.Compiled ~mode)
        = pipelined))
    [ ("Pipelined", Runtime.Pipelined); ("Sequential", Runtime.Sequential) ];
  check_int "no sleeping branch is offloaded" 0 (Cml.Scheduler.offload_count ())

(* The shared-source shape splits into two regions: the display's and the
   branch's, which reads [x] through a shadow slot. *)
let test_shared_source_two_regions () =
  let x = Signal.input ~name:"x" 0 in
  let shown = Signal.lift ~name:"shown" succ x in
  let slow = Signal.lift ~name:"slow" (fun v -> v * 100) x in
  let w = Signal.async slow in
  let root = Signal.pair shown w in
  let plan = Compile.plan root in
  let id = Signal.id in
  check_int "two regions" 2 (Compile.region_count plan);
  check_bool "the branch is its own region" true
    (Compile.region_of plan (id slow) <> Compile.region_of plan (id shown));
  check_bool "x sits with the display" true
    (Compile.region_of plan (id x) = Compile.region_of plan (id root));
  check_ints "one shadow slot, of x" [ Compile.slot plan (id x) ]
    (Array.to_list (Compile.shadow_sources plan));
  let sc = Compile.schedule plan (id x) in
  check_ints "x's wake touches both regions, in region order" [ 0; 1 ]
    (Array.to_list (Array.map (fun (p : Compile.schedule) -> p.sc_region) sc.sc_parts));
  check_ints "a split schedule's work is all in its parts" []
    (Array.to_list sc.sc_nodes);
  check_ints "the display's part: x, shown and the root"
    [ id x; id shown; id root ]
    (Array.to_list sc.sc_parts.(0).sc_nodes);
  check_ints "the branch's part: the shadow writer, the lift and the tap"
    [ id x; id slow; id w ]
    (Array.to_list sc.sc_parts.(1).sc_nodes)

(* Offload in the lane placement. A branch of a shared source that costs
   ~200 us of real CPU per round runs its first 8 rounds inline, timed,
   then on the run's helper domain, where it holds back no other lane.
   Each branch's trace still equals the pipelined runtime's (an offload
   takes no virtual time, and the run waits for it before its clock
   moves). A cheap branch never offloads, so never spawns a helper; nor
   does one that sleeps in virtual time (see the shared-source §5 test). *)
let branch_run ?on_node_error ?tracer ~backend ~work ~events () =
  with_world (fun () ->
      let x = Signal.input ~name:"x" 0 in
      let shown = Signal.lift ~name:"shown" succ x in
      let costly =
        Signal.lift ~name:"costly"
          (fun v ->
            work v;
            v * 7)
          x
      in
      let rt =
        Runtime.start ~backend ?on_node_error ?tracer
          (Signal.pair shown (Signal.async costly))
      in
      Cml.spawn (fun () ->
          for i = 1 to events do
            Runtime.inject rt x i;
            Cml.sleep 0.01
          done);
      rt)

(* The split plan on every compiled path: lanes, waves inline and on two
   domains, and a serving session (the sequential lane, which runs the
   parts one after the other). Each branch's trace equals
   the pipelined runtime's, and waves stay deterministic. *)
let test_split_plan_every_path () =
  let events = 12 in
  let branch_of run =
    let dedup l =
      List.rev
        (List.fold_left
           (fun acc v -> match acc with w :: _ when w = v -> acc | _ -> v :: acc)
           [] l)
    in
    let l = run () in
    (dedup (List.map fst l), dedup (List.map snd l))
  in
  let runtime ?domains backend () =
    Runtime.changes
      (with_world (fun () ->
           let x = Signal.input ~name:"x" 0 in
           let shown = Signal.lift ~name:"shown" succ x in
           let w = Signal.async (Signal.lift ~name:"cheap" (fun v -> v * 7) x) in
           let rt = Runtime.start ~backend ?domains (Signal.pair shown w) in
           for i = 1 to events do
             Runtime.inject rt x i
           done;
           rt))
    |> List.map snd
  in
  let session () =
    let x = Signal.input ~name:"x" 0 in
    let shown = Signal.lift ~name:"shown" succ x in
    let w = Signal.async (Signal.lift ~name:"cheap" (fun v -> v * 7) x) in
    let d = Elm_serve.Dispatcher.create (Signal.pair shown w) in
    let s = Elm_serve.Dispatcher.open_session d in
    for i = 1 to events do
      Elm_serve.Dispatcher.inject d s x i
    done;
    ignore (Elm_serve.Dispatcher.drain d);
    List.map snd (Elm_serve.Session.changes s)
  in
  let reference = branch_of (runtime (Runtime.Pipelined : Runtime.backend)) in
  List.iter
    (fun (name, run) ->
      check_bool (name ^ ": each branch equals the pipelined runtime's") true
        (branch_of run = reference))
    [
      ("lanes", runtime Runtime.Compiled);
      ("waves inline", runtime ~domains:1 Runtime.Compiled);
      ("waves on 2 domains", runtime ~domains:2 Runtime.Compiled);
      ("serving session", session);
    ];
  check_bool "waves: one trace for every domain count" true
    (runtime ~domains:1 Runtime.Compiled () = runtime ~domains:2 Runtime.Compiled ())

let burn_200us _ =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 200e-6 do
    ()
  done

let multicore = Domain.recommended_domain_count () > 1

(* The run offloaded at least one round and at most [n] where the host
   has several cores, and none where it has one. *)
let offloads_within n =
  let k = Cml.Scheduler.offload_count () in
  if multicore then k >= 1 && k <= n else k = 0

(* Events reach the branch 0.01 s apart, so no two share an instant: the
   whole change trace, virtual times included, equals the pipelined
   runtime's, offloaded rounds or not. *)
let test_costly_branch_offloaded () =
  let events = 20 in
  let piped =
    Runtime.changes
      (branch_run ~backend:(Runtime.Pipelined : Runtime.backend) ~work:burn_200us
         ~events ())
  in
  let rt = branch_run ~backend:Runtime.Compiled ~work:burn_200us ~events () in
  (* Rounds 9.. run on the helper, unless one finds it short of a core
     (this suite shares the host with others), which sends the region
     back to probing inline. *)
  check_bool "rounds 9.. of the costly branch ran on the helper" true
    (offloads_within (events - 8));
  check_bool "the whole trace equals the pipelined runtime's" true
    (Runtime.changes rt = piped);
  (* Offloaded rounds bill scratch counters, merged back on the run's
     domain: the totals equal a run whose branch never leaves its lane. *)
  let cheap = branch_run ~backend:Runtime.Compiled ~work:ignore ~events () in
  check_int "the cheap branch is never offloaded" 0 (Cml.Scheduler.offload_count ());
  let st = Runtime.stats rt and st' = Runtime.stats cheap in
  check_ints "the same counters as the inline run"
    [ st'.events; st'.applications; st'.region_steps; st'.messages; st'.async_events ]
    [ st.events; st.applications; st.region_steps; st.messages; st.async_events ];
  (* A costly branch that also sleeps in virtual time switches Cml threads
     in its timed rounds, so it stays inline. *)
  let sleepy v =
    burn_200us v;
    Cml.sleep 0.001
  in
  let piped =
    Runtime.changes
      (branch_run ~backend:(Runtime.Pipelined : Runtime.backend) ~work:sleepy
         ~events ())
  in
  let compiled =
    Runtime.changes (branch_run ~backend:Runtime.Compiled ~work:sleepy ~events ())
  in
  check_int "a sleeping branch is never offloaded" 0 (Cml.Scheduler.offload_count ());
  check_bool "a sleeping branch: compiled = pipelined, virtual times included" true
    (compiled = piped)

(* A costly branch that starts sleeping only after it has been offloaded
   (from the 10th event on): the 10th round's [Cml.sleep] runs on the
   helper, which moves the round back to the run's domain, where it
   sleeps on the lane's thread as an inline round would, and the region
   stays inline from then on. No round fails, under any policy, and the
   whole trace equals the pipelined runtime's. *)
let test_late_sleeping_branch () =
  let events = 16 in
  let late v =
    burn_200us v;
    if v >= 10 then Cml.sleep 0.001
  in
  List.iter
    (fun (pname, on_node_error) ->
      let piped =
        Runtime.changes
          (branch_run ~on_node_error ~backend:(Runtime.Pipelined : Runtime.backend)
             ~work:late ~events ())
      in
      let rt =
        branch_run ~on_node_error ~backend:Runtime.Compiled ~work:late ~events ()
      in
      check_bool (pname ^ ": rounds 9 and 10 offloaded at most, then inline") true
        (offloads_within 2);
      check_int (pname ^ ": no round failed") 0 (Runtime.stats rt).node_failures;
      check_bool (pname ^ ": the whole trace equals the pipelined runtime's") true
        (Runtime.changes rt = piped))
    [
      ("Propagate", Runtime.Propagate);
      ("Isolate", Runtime.Isolate);
      ("Restart", Runtime.Restart 2);
    ]

(* A traced instance keeps every region on its lane: trace rows are in
   virtual time, which an offload would not change, and every row — the
   branch's spans with their dispatch-to-emit samples among them — lands
   in the run's domain's shard. *)
let test_traced_branch_stays_inline () =
  let events = 12 in
  let tr = Trace.create () in
  let rt =
    branch_run ~tracer:tr ~backend:Runtime.Compiled ~work:burn_200us ~events ()
  in
  check_int "a traced costly branch is never offloaded" 0
    (Cml.Scheduler.offload_count ());
  check_int "every event displayed" (2 * events) (List.length (Runtime.changes rt));
  let branch =
    List.find
      (fun (n : Trace.node_summary) -> contains n.node_name "costly")
      (Trace.summary tr).nodes
  in
  check_int "the branch region's spans: one per event" events branch.rounds

(* Offloaded rounds interleave with the display's lane in real time, so
   where several events share one virtual instant the order of the
   displays at that instant can differ from run to run (runtime.mli). What
   stays fixed: every display's virtual time, and each branch's own
   sequence of values. *)
let test_offloaded_burst_branches () =
  let burst ~backend ~work =
    Runtime.changes
      (with_world (fun () ->
           let x = Signal.input ~name:"x" 0 in
           let shown = Signal.lift ~name:"shown" succ x in
           let costly =
             Signal.lift ~name:"costly"
               (fun v ->
                 work v;
                 v * 7)
               x
           in
           let rt = Runtime.start ~backend (Signal.pair shown (Signal.async costly)) in
           Cml.spawn (fun () ->
               for i = 1 to 8 do
                 Runtime.inject rt x i;
                 Cml.sleep 0.01
               done;
               for i = 9 to 20 do
                 Runtime.inject rt x i
               done);
           rt))
  in
  let piped = burst ~backend:(Runtime.Pipelined : Runtime.backend) ~work:burn_200us in
  let compiled = burst ~backend:Runtime.Compiled ~work:burn_200us in
  check_bool "the burst's rounds were offloaded" multicore
    (Cml.Scheduler.offload_count () > 0);
  let dedup l =
    List.rev
      (List.fold_left
         (fun acc v -> match acc with w :: _ when w = v -> acc | _ -> v :: acc)
         [] l)
  in
  let branch f l = dedup (List.map (fun (_, v) -> f v) l) in
  check_bool "every display's virtual time" true
    (List.map fst compiled = List.map fst piped);
  check_bool "the display branch's values" true (branch fst compiled = branch fst piped);
  check_bool "the async branch's values" true (branch snd compiled = branch snd piped)

(* A costly branch that injects into its own runtime once offloaded:
   from the 10th event on, [costly] injects its value into a second input
   [y]. Admission moves the round to the run's domain
   ([Cml.Scheduler.home]) before it touches the instance, so the rest of
   the round runs there too, and the region stays inline from then on.
   Each branch's values equal those of a run whose branch is cheap and
   never leaves its lane. *)
let test_inject_from_helper () =
  let events = 16 in
  let run work =
    let away = ref false in
    let rt =
      with_world (fun () ->
          let home = (Domain.self () :> int) in
          let me = ref None in
          let x = Signal.input ~name:"x" 0 and y = Signal.input ~name:"y" 0 in
          let shown = Signal.lift ~name:"shown" succ x in
          let costly =
            Signal.lift ~name:"costly"
              (fun v ->
                work v;
                if v >= 10 then begin
                  Runtime.inject (Option.get !me) y v;
                  if (Domain.self () :> int) <> home then away := true
                end;
                v * 7)
              x
          in
          let echo = Signal.lift ~name:"echo" (fun v -> -v) y in
          let rt =
            Runtime.start ~backend:Runtime.Compiled
              (Signal.lift3 ~name:"root"
                 (fun a b c -> (a, b, c))
                 shown (Signal.async costly) echo)
          in
          me := Some rt;
          Cml.spawn (fun () ->
              for i = 1 to events do
                Runtime.inject rt x i;
                Cml.sleep 0.01
              done);
          rt)
    in
    (rt, !away)
  in
  let dedup l =
    List.rev
      (List.fold_left
         (fun acc v -> match acc with w :: _ when w = v -> acc | _ -> v :: acc)
         [] l)
  in
  let branches rt =
    let l = List.map snd (Runtime.changes rt) in
    ( dedup (List.map (fun (a, _, _) -> a) l),
      dedup (List.map (fun (_, b, _) -> b) l),
      dedup (List.map (fun (_, _, c) -> c) l) )
  in
  let rt, away = run burn_200us in
  check_bool "rounds 9 and 10 offloaded at most, then inline" true
    (offloads_within 2);
  check_bool "every admission ran on the run's domain" false away;
  let inline, _ = run ignore in
  check_int "the cheap branch is never offloaded" 0 (Cml.Scheduler.offload_count ());
  let _, _, echoed = branches rt in
  check_ints "y shows every injected value" (0 :: List.init 7 (fun i -> -(10 + i)))
    echoed;
  check_bool "each branch's values equal the inline run's" true
    (branches rt = branches inline)

(* Admission at [inject]: the injecting thread assigns the epoch and
   wakes the region's lane itself, so an event takes one Cml hop from
   input to display. Over a fused chain, each event injected alone and
   followed by yields until it shows costs two switches: to the woken
   lane, and back once it displayed. *)
let test_switches_per_event () =
  let events = 50 and depth = 8 in
  let switches =
    with_world (fun () ->
        let x = Signal.input ~name:"x" 0 in
        let rec chain n s =
          if n = 0 then s else chain (n - 1) (Signal.lift succ s)
        in
        let rt = Runtime.start ~backend:Runtime.Compiled (chain depth x) in
        let s0 = Cml.Scheduler.switch_count () in
        for i = 1 to events do
          Runtime.inject rt x i;
          while Runtime.current rt <> i + depth do
            Cml.yield ()
          done
        done;
        check_int "one region" 1 (Runtime.stats rt).compiled_regions;
        Cml.Scheduler.switch_count () - s0)
  in
  check_int "two Cml switches per event" (2 * events) switches

(* The only threads a compiled runtime leaves parked are its lanes, one
   per region, or its one wave thread, in either mode: [Sequential] holds
   its queued wakes without a thread. *)
let test_parked_threads () =
  let parked ?mode ?domains () =
    with_world (fun () ->
        let x = Signal.input ~name:"x" 0 in
        let w = Signal.async (Signal.lift ~name:"cheap" (fun v -> v * 7) x) in
        let rt =
          Runtime.start ~backend:Runtime.Compiled ?mode ?domains (Signal.pair x w)
        in
        Runtime.inject rt x 1;
        Runtime.inject rt x 2;
        rt)
    |> Runtime.stop;
    List.sort compare (Cml.Scheduler.blocked_sites ())
  in
  List.iter
    (fun mode ->
      Alcotest.(check (list string))
        "lanes: one parked thread per region" [ "recv lane:0"; "recv lane:1" ]
        (parked ~mode ());
      Alcotest.(check (list string))
        "waves: one parked wave thread" [ "recv wave" ]
        (parked ~mode ~domains:1 ()))
    [ Runtime.Pipelined; Runtime.Sequential ]

(* A wave is closed to admission while it runs: an event raised while a
   lift of the wave sleeps in virtual time waits for the next wave, as it
   would have waited in a queue, so the wave's displays leave when the
   wave ends and effects keep epoch order. Here [a = 1] sleeps 1 s; at
   0.5 s [b = 1] (another region, through [async]) and [a = 2] are
   raised. The first wave shows [(1, 0)] at 1 s, the pipelined runtime's
   trace; running [a = 2] in the first wave would hold that display until
   2 s. *)
let test_wave_closed_while_running () =
  let armed = ref false in
  let run ?domains backend =
    let rt =
      with_world (fun () ->
          armed := false;
          let a = Signal.input ~name:"a" 0 and b = Signal.input ~name:"b" 0 in
          let slow =
            Signal.lift ~name:"slow"
              (fun v ->
                if !armed then Cml.sleep 1.0;
                v)
              a
          in
          let rt =
            Runtime.start ~backend ?domains
              (Signal.pair slow (Signal.async (Signal.lift (fun v -> v * 10) b)))
          in
          armed := true;
          Runtime.inject rt a 1;
          Cml.spawn (fun () ->
              Cml.sleep 0.5;
              Runtime.inject rt b 1;
              Runtime.inject rt a 2);
          rt)
    in
    Runtime.stop rt;
    Runtime.changes rt
  in
  let reference = run Runtime.Pipelined in
  check_bool "the pipelined runtime shows (1, 0) at 1 s" true
    (List.mem (1.0, (1, 0)) reference);
  List.iter
    (fun domains ->
      check_bool
        (Printf.sprintf "waves on %d domain(s): the pipelined trace" domains)
        true
        (run ~domains Runtime.Compiled = reference))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* The op context is plain data: a source's schedule runs against a
   hand-built [Compile.exec], with no executor, on a round that carries
   the source's value, and everything the region hands outward lands in
   the effect queue, in op order, stamped with the round's epoch and
   carrying the values it re-enters with. *)

let show_effect : Compile.effect -> string = function
  | Fire { epoch; source; value } ->
    Printf.sprintf "fire e%d n%d %d" epoch source (Obj.obj value)
  | Delay { epoch; node; seconds; value } ->
    Printf.sprintf "delay e%d n%d %gs %d" epoch node seconds (Obj.obj value)
  | Observe { epoch; node; changed } ->
    Printf.sprintf "observe e%d n%d %b" epoch node changed
  | Display { epoch; changed; value } ->
    Printf.sprintf "display e%d %b %d" epoch changed (Obj.obj value)

let test_ops_append_effects () =
  let x = Signal.input ~name:"x" 0 in
  let a = Signal.lift ~name:"a" succ x in
  let fired = Signal.async ~name:"fired" a in
  let later = Signal.delay ~name:"later" 0.5 a in
  let root =
    Signal.lift3 ~name:"root"
      (fun a f l -> (100 * a) + (10 * f) + l)
      a fired later
  in
  let pl = Compile.plan root in
  let id = Signal.id and slot s = Compile.slot pl (Signal.id s) in
  let run ~observe =
    let ex =
      {
        Compile.x_arena = Compile.new_arena pl;
        x_stats = Stats.create ();
        x_fail = Compile.propagate_handlers pl;
        x_effects = Queue.create ();
        x_observing = observe;
        x_display = None;
      }
    in
    let sc = Compile.schedule pl (id x) in
    let r = { Compile.epoch = 7; source = id x; value = Obj.repr 41 } in
    Array.iter (fun op -> op ex r) sc.sc_ops;
    check_int "the source member wrote the round's value" 41
      (Obj.obj ex.x_arena.ar_values.(slot x));
    List.map show_effect (List.of_seq (Queue.to_seq ex.x_effects))
  in
  let fire = Printf.sprintf "fire e7 n%d 42" (id fired)
  and delay = Printf.sprintf "delay e7 n%d 0.5s 42" (id later)
  and display = "display e7 true 4211"
  and observe s = Printf.sprintf "observe e7 n%d true" (id s) in
  Alcotest.(check (list string))
    "async tap fires, delay tap schedules, each with its value; root displays"
    [ fire; delay; display ]
    (run ~observe:false);
  Alcotest.(check (list string))
    "observed emissions interleave in op order"
    [ observe x; observe a; fire; delay; observe root; display ]
    (run ~observe:true)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "compile"
    [
      ( "equivalence",
        [
          qc prop_compiled_equals_pipelined;
          qc prop_compiled_accounting;
          qc prop_delay_shape_backends_agree;
          tc "B12 program: async work never holds back the display" `Quick
            test_async_responsive_compiled;
          tc "shared source: async work never holds back the display" `Quick
            test_shared_source_responsive;
          tc "a costly async branch runs on the helper domain" `Quick
            test_costly_branch_offloaded;
          tc "a branch that sleeps once offloaded moves home" `Quick
            test_late_sleeping_branch;
          tc "a traced costly branch stays inline" `Quick
            test_traced_branch_stays_inline;
          tc "offloaded burst: times and branches fixed" `Quick
            test_offloaded_burst_branches;
          tc "a split plan runs alike on every compiled path" `Quick
            test_split_plan_every_path;
          tc "an offloaded branch injects on the run's domain" `Quick
            test_inject_from_helper;
          tc "an event takes one Cml hop from input to display" `Quick
            test_switches_per_event;
          tc "only lanes or the wave thread stay parked" `Quick
            test_parked_threads;
          tc "a running wave admits nothing" `Quick
            test_wave_closed_while_running;
        ] );
      ( "partition",
        [
          tc "pure graph is one region" `Quick test_pure_graph_single_region;
          tc "async boundary splits regions" `Quick
            test_async_graph_two_regions;
          tc "an async branch of a shared source is its own region" `Quick
            test_shared_source_two_regions;
          tc "serve shapes keep their regions and schedules" `Quick
            test_serve_shapes_pinned;
          tc "partition covers every catalogue shape" `Quick
            test_partition_covers_every_shape;
          tc "every source's cone wakes at most one region" `Quick
            test_source_cone_wakes_one_region;
          tc "every source's schedule is its cone" `Quick
            test_source_schedule_is_its_cone;
          tc "schedule ops append exact effects" `Quick
            test_ops_append_effects;
          tc "dot renders region clusters" `Quick
            test_compiled_dot_shows_regions;
        ] );
      ( "arena",
        [
          tc "foldp state fresh per runtime" `Quick
            test_foldp_state_fresh_per_runtime;
        ] );
      ( "reporting",
        [
          tc "stats count regions and steps" `Quick test_stats_report_regions;
          tc "trace rows are regions, never stale members" `Quick
            test_trace_reports_region_rows;
          tc "memoize:false rejected" `Quick test_memoize_false_rejected;
          tc "dispatch:Flood rejected" `Quick test_flood_rejected;
        ] );
      ( "plan-cache",
        [
          tc "second runtime over one graph hits the cache" `Quick
            test_plan_cache_hit_across_runtimes;
          tc "plan_of shares one plan object" `Quick
            test_plan_cache_shares_plan_object;
          tc "concurrent compile storm stays canonical" `Quick
            test_plan_cache_concurrent_compile;
          tc "clear_plan_cache drops the fusion memos too" `Quick
            test_clear_plan_cache_clears_fuse_memos;
        ] );
      ( "explore",
        [
          tc "deterministic program clean under chaos" `Quick
            test_explore_compiled_deterministic;
          tc "async program clean under chaos" `Quick
            test_explore_compiled_async;
          tc "planted mutations rejected up front" `Quick
            test_mutations_rejected_compiled;
        ] );
    ]
