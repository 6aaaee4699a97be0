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
        ] );
      ( "partition",
        [
          tc "pure graph is one region" `Quick test_pure_graph_single_region;
          tc "async boundary splits regions" `Quick
            test_async_graph_two_regions;
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
