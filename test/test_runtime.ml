(* Semantics tests for the signal engine: the Fig. 10/11 translation,
   Change/NoChange propagation, foldp, async, execution modes. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Event = Elm_core.Event
module Stats = Elm_core.Stats
module Reach = Elm_core.Reach
module Compile = Elm_core.Compile
module Delay_heap = Elm_core.Delay_heap
module Dispatcher = Elm_serve.Dispatcher
module Session = Elm_serve.Session

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))
let check_float = Alcotest.(check (float 1e-9))

(* Run [body] inside a scheduler, let everything settle, return result of
   [read] applied after quiescence. Shared with the other suites; honours
   FELM_SCHED_SEED for schedule replay. *)
let with_world body = Gen_graph.with_world body
let values = Gen_graph.values

(* ------------------------------------------------------------------ *)
(* Basic propagation *)

let test_default_value () =
  let got =
    with_world (fun () ->
        let m = Signal.input 0 in
        let rt = Runtime.start (Signal.lift (fun x -> x * 2) m) in
        rt)
  in
  check_int "default induced through lift" 0 (Runtime.current got);
  check_ints "no changes yet" [] (values got)

let test_lift_applies_per_event () =
  let rt =
    with_world (fun () ->
        let m = Signal.input 1 in
        let s = Signal.lift (fun x -> x + 10) m in
        let rt = Runtime.start s in
        Runtime.inject rt m 5;
        Runtime.inject rt m 7;
        rt)
  in
  check_ints "each event transformed" [ 15; 17 ] (values rt);
  check_int "current" 17 (Runtime.current rt)

let test_lift2_combines () =
  let rt =
    with_world (fun () ->
        let a = Signal.input 10 in
        let b = Signal.input 2 in
        let s = Signal.lift2 (fun x y -> x / y) a b in
        let rt = Runtime.start s in
        Runtime.inject rt a 100;
        Runtime.inject rt b 4;
        rt)
  in
  (* Relative-position example of Fig. 7: recomputed on either input. *)
  check_ints "recomputed per event" [ 50; 25 ] (values rt)

let test_one_message_per_event () =
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let b = Signal.input 0 in
        let s = Signal.lift2 ( + ) a b in
        let rt = Runtime.start s in
        Runtime.inject rt a 1;
        Runtime.inject rt b 2;
        Runtime.inject rt a 3;
        rt)
  in
  (* Every dispatched event yields exactly one message at the display. *)
  check_int "three events, three sink messages" 3
    (List.length (Runtime.message_log rt));
  check_int "three events dispatched" 3 (Runtime.stats rt).Stats.events

let test_unrelated_input_no_change () =
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let b = Signal.input 0 in
        let doubled = Signal.lift (fun x -> x * 2) a in
        (* b is in the graph but doubled only depends on a. *)
        let s = Signal.lift2 (fun x _ -> x) doubled b in
        let rt = Runtime.start s in
        Runtime.inject rt b 1;
        Runtime.inject rt b 2;
        rt)
  in
  let stats = Runtime.stats rt in
  (* The [doubled] node must not recompute for b's events. *)
  check_int "lift2 recomputes twice, doubled never" 2 stats.Stats.applications

let test_lift3_lift4 () =
  let rt =
    with_world (fun () ->
        let a = Signal.input 1 in
        let b = Signal.input 2 in
        let c = Signal.input 3 in
        let d = Signal.input 4 in
        let s = Signal.lift4 (fun w x y z -> (w * 1000) + (x * 100) + (y * 10) + z) a b c d in
        let rt = Runtime.start s in
        Runtime.inject rt c 9;
        rt)
  in
  check_ints "lift4 result" [ 1294 ] (values rt);
  let rt3 =
    with_world (fun () ->
        let a = Signal.input 1 in
        let b = Signal.input 2 in
        let c = Signal.input 3 in
        let s = Signal.lift3 (fun x y z -> (x * 100) + (y * 10) + z) a b c in
        let rt = Runtime.start s in
        Runtime.inject rt a 7;
        rt)
  in
  check_ints "lift3 result" [ 723 ] (values rt3)

let test_lift5_to_lift8 () =
  let default = ref 0 in
  let rt =
    with_world (fun () ->
        let mk v = Signal.input v in
        let i1, i2, i3, i4, i5 = (mk 1, mk 1, mk 1, mk 1, mk 1) in
        let i6, i7, i8 = (mk 1, mk 1, mk 1) in
        let sum8 a b c d e f g h = a + b + c + d + e + f + g + h in
        let s = Signal.lift8 sum8 i1 i2 i3 i4 i5 i6 i7 i8 in
        default := Signal.default s;
        let rt = Runtime.start s in
        Runtime.inject rt i5 10;
        rt)
  in
  check_int "default is sum of defaults" 8 !default;
  check_ints "change propagates through derived arity" [ 17 ] (values rt)

let test_lift_list () =
  let rt =
    with_world (fun () ->
        let ins = List.init 5 (fun i -> Signal.input i) in
        let s = Signal.lift_list (List.fold_left ( + ) 0) ins in
        let rt = Runtime.start s in
        Runtime.inject rt (List.nth ins 2) 100;
        rt)
  in
  check_ints "lift_list sums" [ 108 ] (values rt)

let test_sharing_one_node () =
  (* Using the same signal twice shares one node (let/multicast semantics):
     the shared node computes once per event, not twice. *)
  let rt =
    with_world (fun () ->
        let a = Signal.input 1 in
        let shared = Signal.lift ~name:"shared" (fun x -> x * 2) a in
        let s = Signal.lift2 ( + ) shared shared in
        let rt = Runtime.start s in
        Runtime.inject rt a 5;
        rt)
  in
  check_ints "diamond result" [ 20 ] (values rt);
  (* one application in `shared`, one in the lift2 *)
  check_int "shared node computed once" 2 (Runtime.stats rt).Stats.applications

(* ------------------------------------------------------------------ *)
(* foldp *)

let test_foldp_counts_only_its_events () =
  (* Section 3.3.2: "a foldp term that counts the number of key presses
     should increment the counter only when a key is actually pressed, not
     every time any event occurs." *)
  let rt =
    with_world (fun () ->
        let keys = Signal.input 0 in
        let mouse = Signal.input (0, 0) in
        let presses = Signal.count keys in
        let s = Signal.lift2 (fun c _ -> c) presses mouse in
        let rt = Runtime.start s in
        Runtime.inject rt keys 65;
        Runtime.inject rt mouse (1, 1);
        Runtime.inject rt mouse (2, 2);
        Runtime.inject rt keys 66;
        rt)
  in
  check_int "two key presses counted" 2 (Runtime.current rt);
  check_int "fold stepped exactly twice" 2 (Runtime.stats rt).Stats.fold_steps

let test_foldp_accumulates () =
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let s = Signal.foldp ( + ) 0 src in
        let rt = Runtime.start s in
        List.iter (fun v -> Runtime.inject rt src v) [ 1; 2; 3; 4 ];
        rt)
  in
  check_ints "running sums" [ 1; 3; 6; 10 ] (values rt)

let prop_foldp_is_list_fold =
  QCheck.Test.make ~name:"foldp over a burst equals List.fold_left" ~count:100
    QCheck.(list small_signed_int)
    (fun xs ->
      let rt =
        with_world (fun () ->
            let src = Signal.input 0 in
            let s = Signal.foldp ( + ) 0 src in
            let rt = Runtime.start s in
            List.iter (fun v -> Runtime.inject rt src v) xs;
            rt)
      in
      Runtime.current rt = List.fold_left ( + ) 0 xs)

(* ------------------------------------------------------------------ *)
(* Extended combinators *)

let test_merge_left_bias () =
  (* [merge a (right a b)], fed [(is_a, v)] events. *)
  let run right events =
    let rt =
      with_world (fun () ->
          let a = Signal.input 0 in
          let b = Signal.input 100 in
          let rt = Runtime.start (Signal.merge a (right a b)) in
          List.iter
            (fun (is_a, v) -> Runtime.inject rt (if is_a then a else b) v)
            events;
          rt)
    in
    values rt
  in
  check_ints "merge interleaves" [ 1; 2; 3 ]
    (run (fun _ b -> b) [ (true, 1); (false, 2); (true, 3) ]);
  check_ints "left wins when both sides change" [ 1; 2 ]
    (run (fun a _ -> Signal.lift (fun x -> x * 10) a) [ (true, 1); (true, 2) ]);
  check_int "default is left default" 0
    (Signal.default (Signal.merge (Signal.input 0) (Signal.input 100)))

let test_drop_repeats () =
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let s = Signal.drop_repeats a in
        let rt = Runtime.start s in
        List.iter (fun v -> Runtime.inject rt a v) [ 1; 1; 2; 2; 2; 3; 1 ];
        rt)
  in
  check_ints "repeats dropped" [ 1; 2; 3; 1 ] (values rt)

let test_sample_on () =
  let rt =
    with_world (fun () ->
        let ticks = Signal.input () in
        let data = Signal.input 0 in
        let s = Signal.sample_on ticks data in
        let rt = Runtime.start s in
        Runtime.inject rt data 5;
        Runtime.inject rt ticks ();
        Runtime.inject rt data 9;
        Runtime.inject rt data 12;
        Runtime.inject rt ticks ();
        rt)
  in
  check_ints "sampled at ticks" [ 5; 12 ] (values rt)

let test_keep_when () =
  let rt, s =
    with_world (fun () ->
        let gate = Signal.input false in
        let data = Signal.input 0 in
        let s = Signal.keep_when gate (-1) data in
        let rt = Runtime.start s in
        Runtime.inject rt data 1;
        (* gate closed: dropped *)
        Runtime.inject rt gate true;
        (* rising edge: resync to current value *)
        Runtime.inject rt data 2;
        Runtime.inject rt gate false;
        Runtime.inject rt data 3;
        (* closed again: dropped *)
        Runtime.inject rt gate true;
        (* reopened: resync to the value dropped while closed *)
        (rt, s))
  in
  check_ints "gated" [ 1; 2; 3 ] (values rt);
  check_int "default from base when closed" (-1) (Signal.default s)

let test_keep_when_default () =
  with_world (fun () ->
      let gate = Signal.input false in
      let data = Signal.input 42 in
      let s = Signal.keep_when gate (-1) data in
      check_int "closed gate: base default" (-1) (Signal.default s);
      let gate2 = Signal.input true in
      let s2 = Signal.keep_when gate2 (-1) data in
      check_int "open gate: signal default" 42 (Signal.default s2))

let test_count_if () =
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let s = Signal.count_if (fun v -> v mod 2 = 0) src in
        let rt = Runtime.start s in
        List.iter (fun v -> Runtime.inject rt src v) [ 1; 2; 3; 4; 5; 6 ];
        rt)
  in
  check_int "three evens" 3 (Runtime.current rt)

let test_delay1 () =
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let s = Signal.delay1 (-1) src in
        let rt = Runtime.start s in
        List.iter (fun v -> Runtime.inject rt src v) [ 1; 2; 3 ];
        rt)
  in
  check_ints "shifted by one" [ -1; 1; 2 ] (values rt)

let test_combine () =
  let rt =
    with_world (fun () ->
        let ins = List.init 3 (fun i -> Signal.input (i * 10)) in
        let rt = Runtime.start (Signal.combine ins) in
        Runtime.inject rt (List.nth ins 1) 99;
        rt)
  in
  check_bool "default is the defaults" true
    (match Runtime.message_log rt with
    | (_, first) :: _ -> Event.body first = [ 0; 99; 20 ]
    | [] -> false);
  check_bool "combined change" true (Runtime.current rt = [ 0; 99; 20 ])

let test_constant_never_changes () =
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let k = Signal.constant 7 in
        let s = Signal.lift2 ( + ) a k in
        let rt = Runtime.start s in
        Runtime.inject rt a 1;
        Runtime.inject rt a 2;
        rt)
  in
  check_ints "constant participates" [ 8; 9 ] (values rt)

let test_timestamp () =
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let s = Signal.timestamp a in
        let rt = Runtime.start s in
        Cml.sleep 3.5;
        Runtime.inject rt a 1;
        rt)
  in
  match values rt with
  | [ (t, 1) ] -> check_float "stamped at injection time" 3.5 t
  | _ -> Alcotest.fail "expected one timestamped change"

(* ------------------------------------------------------------------ *)
(* async (Section 3.3.2) *)

(* Defaults are computed eagerly at construction (Section 3.1: input
   defaults "induce" defaults for other signals), so cost functions in tests
   are armed only once the graph is built. *)
let costly armed cost f x =
  if !armed then Cml.sleep cost;
  f x

let test_async_preserves_values () =
  let armed = ref false in
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let s = Signal.async (Signal.lift (costly armed 10.0 (fun x -> x * 2)) a) in
        armed := true;
        let rt = Runtime.start s in
        Runtime.inject rt a 1;
        Runtime.inject rt a 2;
        rt)
  in
  check_ints "async delivers all changes" [ 2; 4 ] (values rt)

let test_async_events_counted () =
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let s = Signal.async (Signal.lift (fun x -> x + 1) a) in
        let rt = Runtime.start s in
        Runtime.inject rt a 1;
        rt)
  in
  let stats = Runtime.stats rt in
  check_int "one async-origin event" 1 stats.Stats.async_events;
  (* the external event + the async re-dispatch *)
  check_int "two dispatched events" 2 stats.Stats.events

let test_async_is_source () =
  let a = Signal.input 0 in
  let inner = Signal.lift (fun x -> x) a in
  let s = Signal.async inner in
  check_bool "async is a source" true (Signal.is_source s);
  check_bool "lift is not" false (Signal.is_source inner)

(* The Section 5 responsiveness example: syncEg blocks mouse updates behind
   the slow f, asyncEg does not. *)
let responsiveness ~use_async =
  with_world (fun () ->
      let armed = ref false in
      let mouse_x = Signal.input 0 in
      let mouse_y = Signal.input 0 in
      let slow_branch = Signal.lift (costly armed 100.0 Fun.id) mouse_y in
      let branch = if use_async then Signal.async slow_branch else slow_branch in
      let s = Signal.pair mouse_x branch in
      let rt = Runtime.start s in
      armed := true;
      Runtime.inject rt mouse_y 1;
      (* a y event triggering slow computation *)
      Cml.sleep 1.0;
      Runtime.inject rt mouse_x 42;
      (* then a quick x event *)
      rt)

let test_sync_blocks () =
  let rt = responsiveness ~use_async:false in
  (* The x update cannot be displayed until the slow y computation ends. *)
  match Runtime.changes rt with
  | [ (t1, (0, 1)); (t2, (42, 1)) ] ->
    check_bool "slow change first, at t>=100" true (t1 >= 100.0);
    check_bool "x blocked behind it" true (t2 >= t1)
  | _ -> Alcotest.fail "expected two changes"

let test_async_does_not_block () =
  let rt = responsiveness ~use_async:true in
  match Runtime.changes rt with
  | [ (t1, (42, 0)); (t2, (42, 1)) ] ->
    check_bool "x displayed promptly" true (t1 < 10.0);
    check_bool "slow result arrives later" true (t2 >= 100.0)
  | _ ->
    Alcotest.failf "unexpected changes: %s"
      (String.concat ";"
         (List.map
            (fun (t, (x, y)) -> Printf.sprintf "(%.1f,(%d,%d))" t x y)
            (Runtime.changes rt)))

let test_async_order_within_subgraph () =
  (* Event order is maintained within the async subgraph. *)
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let inner = Signal.lift (fun x -> x) a in
        let s = Signal.async inner in
        let rt = Runtime.start s in
        List.iter (fun v -> Runtime.inject rt a v) [ 1; 2; 3; 4; 5 ];
        rt)
  in
  check_ints "subgraph order preserved" [ 1; 2; 3; 4; 5 ] (values rt)

let test_delay_shifts_time () =
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let s = Signal.delay 5.0 src in
        let rt = Runtime.start s in
        Cml.spawn (fun () ->
            Cml.sleep 1.0;
            Runtime.inject rt src 10;
            Cml.sleep 1.0;
            Runtime.inject rt src 20);
        rt)
  in
  match Runtime.changes rt with
  | [ (t1, 10); (t2, 20) ] ->
    check_float "first shifted by 5" 6.0 t1;
    check_float "second shifted by 5" 7.0 t2
  | _ -> Alcotest.fail "expected two delayed changes"

let test_delay_preserves_order () =
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let rt = Runtime.start (Signal.delay 3.0 src) in
        List.iter (fun v -> Runtime.inject rt src v) [ 1; 2; 3; 4 ];
        rt)
  in
  check_ints "order kept" [ 1; 2; 3; 4 ] (values rt)

let test_delay_does_not_block_siblings () =
  (* delay is a source: the undelayed branch keeps its timing *)
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let s = Signal.pair src (Signal.delay 100.0 src) in
        let rt = Runtime.start s in
        Cml.spawn (fun () ->
            Cml.sleep 1.0;
            Runtime.inject rt src 7);
        rt)
  in
  match Runtime.changes rt with
  | [ (t1, (7, 0)); (t2, (7, 7)) ] ->
    check_bool "undelayed branch prompt" true (t1 < 2.0);
    check_float "delayed branch at +100" 101.0 t2
  | _ -> Alcotest.fail "expected two changes"

(* ------------------------------------------------------------------ *)
(* The delay heap and the runtime's delay timer *)

let backends : (string * Runtime.backend) list =
  [ ("pipelined", Runtime.Pipelined); ("compiled", Runtime.Compiled) ]

(* Pop the least entry: its context, node and value. *)
let pop_entry h =
  let due = Delay_heap.min_due h in
  let got = ref None in
  Delay_heap.pop h (fun c node v -> got := Some (c, node, Obj.obj v));
  let (((d, _, _), _, _) as e) = Option.get !got in
  check_bool "min_due is the popped entry's due" true (d = due);
  e

(* The delay heap pops in exactly [List.sort] order of its (due, epoch,
   node) keys: 2,000 seeded entries with many equal due times and epochs,
   pushed at once and then interleaved with pops against a sorted-list
   model. An entry's context and value are its key, so each pop also
   shows that context, node and value leave together. *)
let test_delay_heap_order () =
  let rng = Random.State.make [| 21 |] in
  let n = 2000 in
  let keys =
    List.init n (fun _ ->
        ( float_of_int (Random.State.int rng 64) /. 4.0,
          Random.State.int rng 16,
          Random.State.int rng n ))
  in
  let h = Delay_heap.create () in
  let push ((due, epoch, node) as k) =
    Delay_heap.push h ~due ~epoch ~node k (Obj.repr k)
  in
  let pop () =
    let ((_, _, node') as k), node, v = pop_entry h in
    check_bool "context, node and value leave together" true
      (node = node' && v = k);
    k
  in
  List.iter push keys;
  let popped = List.init n (fun _ -> pop ()) in
  check_bool "pushed at once: pops in List.sort order" true
    (popped = List.sort compare keys);
  check_bool "empty after popping everything" true
    (Delay_heap.min_due h = infinity);
  let model = ref [] and out = ref [] and expected = ref [] in
  List.iteri
    (fun i k ->
      push k;
      model := List.sort compare (k :: !model);
      if i mod 3 = 2 then begin
        out := pop () :: !out;
        expected := List.hd !model :: !expected;
        model := List.tl !model
      end)
    keys;
  check_bool "interleaved pushes and pops match the sorted model" true
    (!out = !expected);
  check_bool "what is left pops in the model's order" true
    (List.map (fun _ -> pop ()) !model = !model);
  check_bool "then the heap is empty" true (Delay_heap.min_due h = infinity)

(* [remap] renumbers and drops entries in place; the heap then pops in
   the order of the new keys, each value still with its entry. *)
let test_delay_heap_remap () =
  let rng = Random.State.make [| 22 |] in
  let keys =
    List.init 500 (fun i ->
        (float_of_int (Random.State.int rng 8), Random.State.int rng 4, i))
  in
  let h = Delay_heap.create () in
  List.iter
    (fun ((due, epoch, node) as k) ->
      Delay_heap.push h ~due ~epoch ~node k (Obj.repr node))
    keys;
  let renumber n = if n mod 5 = 0 then None else Some (1000 - n) in
  Delay_heap.remap h (fun _ node -> renumber node);
  let rec pop_all () =
    if Delay_heap.min_due h = infinity then []
    else
      let (d, e, old), node, v = pop_entry h in
      check_int "the value stays with its entry" old v;
      (d, e, node) :: pop_all ()
  in
  let popped = pop_all () in
  check_bool "pops in the order of the renumbered keys" true
    (popped
    = List.sort compare
        (List.filter_map
           (fun (d, e, n) -> Option.map (fun n' -> (d, e, n')) (renumber n))
           keys))

(* One delay node's equal-due values leave in emitting order whatever
   the scheduler does: the heap's key decides, not the order in which
   sleeping threads happen to run. *)
let test_delay_order_under_chaos () =
  let run policy backend mode =
    let rt =
      Gen_graph.with_world ~policy (fun () ->
          let b = Signal.input 0 in
          let rt =
            Runtime.start ~backend ~mode
              (Signal.delay 1.0 (Signal.lift (( * ) 2) b))
          in
          List.iter (Runtime.inject rt b) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
          rt)
    in
    Runtime.stop rt;
    values rt
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (pname, policy) ->
          List.iter
            (fun (bname, backend) ->
              List.iter
                (fun (mname, mode) ->
                  check_ints
                    (Printf.sprintf "%s %d, %s, %s" pname seed bname mname)
                    [ 2; 4; 6; 8; 10; 12; 14; 16 ]
                    (run policy backend mode))
                [ ("Pipelined", Runtime.Pipelined);
                  ("Sequential", Runtime.Sequential) ])
            backends)
        [
          ("Seeded_random", Cml.Scheduler.Seeded_random seed);
          ("Pct", Cml.Scheduler.Pct { seed; depth = 3 });
        ])
    (List.init 20 Fun.id)

(* Pending delays share one sleeper: the threads a run spawns do not
   grow with the number of values waiting in the heap. *)
let test_delay_threads_constant () =
  let spawned backend n =
    let rt =
      with_world (fun () ->
          let b = Signal.input 0 in
          let rt = Runtime.start ~backend (Signal.delay 1.0 b) in
          for v = 1 to n do
            Runtime.inject rt b v
          done;
          rt)
    in
    check_int "every delayed value arrives" n (List.length (values rt));
    Cml.Scheduler.spawned_count ()
  in
  List.iter
    (fun (name, backend) ->
      check_int
        (name ^ ": 10,000 pending delays spawn what 10 do")
        (spawned backend 10) (spawned backend 10_000))
    backends

(* [async_events] counts async re-entries only: in a delay-only program
   every delayed value re-enters as an event, and the counter reads 0 on
   both backends and in a serving session. *)
let test_delays_are_not_async_events () =
  let build () =
    let b = Signal.input 0 in
    (b, Signal.delay 1.0 (Signal.lift succ b))
  in
  let check name (st : Stats.t) =
    check_int (name ^ ": injections and re-entries dispatched") 6
      st.Stats.events;
    check_int (name ^ ": no async events") 0 st.Stats.async_events
  in
  List.iter
    (fun (name, backend) ->
      let rt =
        with_world (fun () ->
            let b, s = build () in
            let rt = Runtime.start ~backend s in
            List.iter (Runtime.inject rt b) [ 1; 2; 3 ];
            rt)
      in
      check name (Runtime.stats rt))
    backends;
  let b, s = build () in
  let d = Dispatcher.create s in
  let ss = Dispatcher.open_session d in
  List.iter (Dispatcher.inject d ss b) [ 1; 2; 3 ];
  ignore (Dispatcher.drain d);
  check "session" (Session.stats ss)

(* ------------------------------------------------------------------ *)
(* Execution modes *)

let chain_makespan ~mode ~depth ~events ~cost =
  with_world (fun () ->
      let armed = ref false in
      let src = Signal.input 0 in
      let rec build s n =
        if n = 0 then s
        else build (Signal.lift (costly armed cost (fun x -> x + 1)) s) (n - 1)
      in
      (* ~fuse:false — this test measures pipelined overlap *within* the
         chain, which fusion deliberately trades away by collapsing the
         chain into one node. *)
      let rt = Runtime.start ~mode ~fuse:false (build src depth) in
      armed := true;
      for i = 1 to events do
        Runtime.inject rt src i
      done;
      rt)

let test_pipelining_overlaps () =
  let depth = 5 in
  let events = 4 in
  let cost = 1.0 in
  let seq = chain_makespan ~mode:Runtime.Sequential ~depth ~events ~cost in
  let pipe = chain_makespan ~mode:Runtime.Pipelined ~depth ~events ~cost in
  let finish rt =
    match List.rev (Runtime.changes rt) with
    | (t, _) :: _ -> t
    | [] -> 0.0
  in
  check_float "sequential makespan = events * depth * cost"
    (float_of_int (depth * events) *. cost)
    (finish seq);
  check_float "pipelined makespan = (depth + events - 1) * cost"
    (float_of_int (depth + events - 1) *. cost)
    (finish pipe);
  check_bool "same outputs" true (values seq = values pipe)

let test_memoize_off_counts_recomputations () =
  let run ~memoize =
    with_world (fun () ->
        let a = Signal.input 0 in
        let b = Signal.input 0 in
        let expensive = Signal.lift (fun x -> x * x) a in
        let s = Signal.lift2 (fun x y -> x + y) expensive b in
        let rt = Runtime.start ~memoize s in
        for i = 1 to 10 do
          Runtime.inject rt b i
        done;
        rt)
  in
  let memo = run ~memoize:true in
  let pull = run ~memoize:false in
  check_bool "same behaviour" true (values memo = values pull);
  check_int "memoized: expensive node idle" 10
    (Runtime.stats memo).Stats.applications;
  check_int "no memoization: everything recomputes" 10
    (Runtime.stats pull).Stats.recomputations

let test_inject_non_input_rejected () =
  with_world (fun () ->
      let a = Signal.input 0 in
      let s = Signal.lift (fun x -> x) a in
      let rt = Runtime.start s in
      match Runtime.inject rt s 3 with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_start_outside_run_rejected () =
  let a = Signal.input 0 in
  match Runtime.start a with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_two_runtimes_sequentially () =
  (* The same graph can be re-instantiated by a later runtime. *)
  let run () =
    with_world (fun () ->
        let a = Signal.input 0 in
        let s = Signal.lift (fun x -> x + 1) a in
        let rt = Runtime.start s in
        Runtime.inject rt a 41;
        rt)
  in
  check_ints "first run" [ 42 ] (values (run ()));
  check_ints "second run" [ 42 ] (values (run ()))

let test_sources_registered () =
  (* The sources a runtime dispatches to are its plan's: every input,
     constant and async boundary of the graph. *)
  let a = Signal.input ~name:"Mouse.x" 0 in
  let k = Signal.constant 1 in
  let s = Signal.async (Signal.lift2 ( + ) a k) in
  let names = List.map snd (Compile.sources (Compile.plan s)) in
  check_bool "input registered" true (List.mem "Mouse.x" names);
  check_bool "constant registered" true (List.mem "constant" names);
  check_bool "async registered" true (List.mem "async" names);
  check_int "three sources" 3 (List.length names)

(* ------------------------------------------------------------------ *)
(* Graph introspection / DOT *)

let fig7_graph () =
  let mouse_x = Signal.input ~name:"Mouse.x" 0 in
  let window_w = Signal.input ~name:"Window.width" 1920 in
  (mouse_x, window_w, Signal.lift2 ~name:"div" ( / ) mouse_x window_w)

let test_reachable_topological () =
  let _, _, g = fig7_graph () in
  let order = Signal.reachable g in
  check_int "three nodes" 3 (List.length order);
  (* dependencies come before dependents *)
  match List.rev order with
  | Signal.Pack last :: _ -> check_int "root last" (Signal.id g) (Signal.id last)
  | [] -> Alcotest.fail "empty order"

let contains_substring haystack needle =
  let n = String.length needle in
  let m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_to_dot_fig7 () =
  let _, _, g = fig7_graph () in
  let dot = Signal.to_dot ~label:"Figure 7" g in
  let contains needle = contains_substring dot needle in
  check_bool "has dispatcher" true (contains "Global Event");
  check_bool "mouse source dashed" true (contains "Mouse.x");
  check_bool "has div node" true (contains "div")

let prop_async_preserves_subgraph_order =
  QCheck.Test.make ~name:"async delivers subgraph changes in order" ~count:100
    QCheck.(list small_signed_int)
    (fun xs ->
      let rt =
        with_world (fun () ->
            let src = Signal.input 0 in
            let s = Signal.async (Signal.lift (fun x -> x) src) in
            let rt = Runtime.start s in
            List.iter (fun v -> Runtime.inject rt src v) xs;
            rt)
      in
      values rt = xs)

let prop_drop_repeats_idempotent =
  QCheck.Test.make ~name:"drop_repeats is idempotent" ~count:100
    QCheck.(list (int_bound 3))
    (fun xs ->
      let run mk =
        let rt =
          with_world (fun () ->
              let src = Signal.input 0 in
              let rt = Runtime.start (mk src) in
              List.iter (fun v -> Runtime.inject rt src v) xs;
              rt)
        in
        values rt
      in
      run (fun s -> Signal.drop_repeats s)
      = run (fun s -> Signal.drop_repeats (Signal.drop_repeats s)))

let prop_merge_sees_every_event =
  QCheck.Test.make ~name:"merge of two inputs shows every injection in order"
    ~count:100
    QCheck.(list (pair bool small_signed_int))
    (fun events ->
      let rt =
        with_world (fun () ->
            let a = Signal.input 0 in
            let b = Signal.input 0 in
            let rt = Runtime.start (Signal.merge a b) in
            List.iter
              (fun (left, v) -> Runtime.inject rt (if left then a else b) v)
              events;
            rt)
      in
      values rt = List.map snd events)

let prop_delay_exact_shift =
  QCheck.Test.make ~name:"delay shifts every change by exactly d" ~count:50
    QCheck.(pair (float_range 0.5 20.0) (list_of_size Gen.(1 -- 6) small_signed_int))
    (fun (d, xs) ->
      let rt =
        with_world (fun () ->
            let src = Signal.input 0 in
            let rt = Runtime.start (Signal.delay d src) in
            Cml.spawn (fun () ->
                List.iter
                  (fun v ->
                    Cml.sleep 1.0;
                    Runtime.inject rt src v)
                  xs);
            rt)
      in
      let changes = Runtime.changes rt in
      List.length changes = List.length xs
      && List.for_all2
           (fun (t, v) (i, x) ->
             v = x && Float.abs (t -. (float_of_int i +. d)) < 1e-6)
           changes
           (List.mapi (fun i x -> (i + 1, x)) xs))

let prop_random_graph_runs =
  (* Random DAGs of lifts/folds over two inputs always settle, produce one
     sink message per event, and are deterministic. *)
  let gen = QCheck.(pair (list_of_size Gen.(0 -- 20) small_int) (int_bound 4)) in
  QCheck.Test.make ~name:"random graphs settle deterministically" ~count:50 gen
    (fun (events, shape) ->
      let build () =
        with_world (fun () ->
            let a = Signal.input 0 in
            let b = Signal.input 0 in
            let base = Signal.lift2 ( + ) a b in
            let s =
              match shape with
              | 0 -> base
              | 1 -> Signal.lift (fun x -> x - 1) base
              | 2 -> Signal.foldp ( + ) 0 base
              | 3 -> Signal.lift2 ( * ) base (Signal.count a)
              | _ -> Signal.merge base (Signal.lift (fun x -> x * 2) base)
            in
            let rt = Runtime.start s in
            List.iteri
              (fun i v ->
                Runtime.inject rt (if i mod 2 = 0 then a else b) v)
              events;
            rt)
      in
      let r1 = build () in
      let r2 = build () in
      List.length (Runtime.message_log r1) = List.length events
      && values r1 = values r2)

(* ------------------------------------------------------------------ *)
(* Affected-cone dispatch vs the Fig. 11 flooding baseline.

   The cone dispatcher must be observationally identical to flooding: same
   [changes] (values and virtual times), a display message log that is the
   flood log minus elided [No_change] rows, and an exact message account:
   cone messages + elided messages = flood messages = nodes * events. *)

(* Randomized graph shapes over two inputs, drawn from the shared
   Gen_graph catalogue: lifts, foldp, merge, async, delay, sample_on,
   drop_repeats, shared subgraphs, plus sparse chain layouts where most of
   the graph is unreachable from one input. *)

let run_shape ~dispatch shape events =
  Gen_graph.run_shape ~fuse:true ~dispatch shape events

let is_subseq = Gen_graph.is_subseq
let entry_equal = Gen_graph.entry_equal

let prop_cone_trace_equals_flood =
  QCheck.Test.make
    ~name:"cone dispatch: identical changes, flood log minus elided NoChange"
    ~count:100 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      let flood = run_shape ~dispatch:Runtime.Flood shape events in
      let cone = run_shape ~dispatch:Runtime.Cone shape events in
      Runtime.changes flood = Runtime.changes cone
      && is_subseq entry_equal (Runtime.message_log cone)
           (Runtime.message_log flood))

let prop_cone_message_accounting =
  QCheck.Test.make
    ~name:"cone messages + elided = flood messages = nodes * events" ~count:100
    Gen_graph.arb_shape_events
    (fun (shape, events) ->
      let flood = run_shape ~dispatch:Runtime.Flood shape events in
      let cone = run_shape ~dispatch:Runtime.Cone shape events in
      let sf = Runtime.stats flood in
      let sc = Runtime.stats cone in
      sf.Stats.events = sc.Stats.events
      && sf.Stats.elided_messages = 0
      && sf.Stats.messages = Runtime.node_count flood * sf.Stats.events
      && sc.Stats.messages + sc.Stats.elided_messages = sf.Stats.messages)

let sparse_chains ~dispatch ~chains ~depth ~events =
  with_world (fun () ->
      let inputs = List.init chains (fun i -> Signal.input ~name:(Printf.sprintf "in%d" i) 0) in
      let rec chain n s =
        if n = 0 then s else chain (n - 1) (Signal.lift (fun x -> x + 1) s)
      in
      let tops = List.map (chain depth) inputs in
      let rt = Runtime.start ~dispatch (Signal.combine tops) in
      let first = List.hd inputs in
      for i = 1 to events do
        Runtime.inject rt first i
      done;
      rt)

let test_cone_elides_quiescent_chains () =
  (* Events into one of eight depth-32 chains: flooding pays every node,
     cone pays one chain plus the combining root. *)
  let chains = 8 and depth = 32 and events = 50 in
  let flood = sparse_chains ~dispatch:Runtime.Flood ~chains ~depth ~events in
  let cone = sparse_chains ~dispatch:Runtime.Cone ~chains ~depth ~events in
  check_bool "same displayed changes" true
    (Runtime.changes flood = Runtime.changes cone);
  let sf = Runtime.stats flood and sc = Runtime.stats cone in
  check_int "flood pays nodes*events"
    (Runtime.node_count flood * events)
    sf.Stats.messages;
  check_int "account balances: cone + elided = flood" sf.Stats.messages
    (sc.Stats.messages + sc.Stats.elided_messages);
  check_bool "cone sends >= 4x fewer messages" true
    (sf.Stats.messages >= 4 * sc.Stats.messages);
  check_bool "cone wakes >= 4x fewer nodes" true
    (sf.Stats.notified_nodes >= 4 * sc.Stats.notified_nodes)

let test_cone_foldp_alignment () =
  (* The Section 3.3.2 correctness property survives elision: a key counter
     in a graph with an unrelated chatty input steps only on key events,
     and the chatty events never even wake it. *)
  let rt =
    with_world (fun () ->
        let keys = Signal.input 0 in
        let mouse = Signal.input (0, 0) in
        let presses = Signal.count keys in
        let s = Signal.lift2 (fun c _ -> c) presses mouse in
        let rt = Runtime.start ~dispatch:Runtime.Cone s in
        Runtime.inject rt keys 65;
        for i = 1 to 100 do
          Runtime.inject rt mouse (i, i)
        done;
        Runtime.inject rt keys 66;
        rt)
  in
  check_int "two key presses counted" 2 (Runtime.current rt);
  check_int "fold stepped exactly twice" 2 (Runtime.stats rt).Stats.fold_steps;
  check_bool "mouse events elided messages" true
    ((Runtime.stats rt).Stats.elided_messages > 0)

let test_sequential_cone_no_deadlock () =
  (* In Sequential mode the dispatcher waits for a display ack — but an
     event whose source cannot reach the root produces no display message,
     so the dispatcher must not wait for one. *)
  let rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let b = Signal.input 0 in
        let s = Signal.pair (Signal.lift (fun x -> x + 1) a) (Signal.async b) in
        let rt =
          Runtime.start ~mode:Runtime.Sequential ~dispatch:Runtime.Cone s
        in
        Runtime.inject rt b 7;
        (* b's event reaches only the async inner subgraph *)
        Runtime.inject rt a 1;
        rt)
  in
  check_bool "run settles with both values" true (Runtime.current rt = (2, 7));
  check_bool "a's event displayed before the async catch-up" true
    (List.map snd (Runtime.changes rt) = [ (2, 0); (2, 7) ])

let test_dispatch_default_and_memoize_interaction () =
  (* Each input's cone misses the other input, so cone dispatch elides a
     message on every event; flood dispatch elides nothing, and wakes the
     quiet input too, which must answer with its latest value. *)
  let run ?memoize ?dispatch () =
    let rt =
      with_world (fun () ->
          let a = Signal.input 0 in
          let b = Signal.input 0 in
          let rt = Runtime.start ?memoize ?dispatch (Signal.lift2 ( + ) a b) in
          Runtime.inject rt a 1;
          Runtime.inject rt b 2;
          rt)
    in
    ((Runtime.stats rt).Stats.elided_messages, values rt)
  in
  let memo = run ()
  and pull = run ~memoize:false ()
  and forced = run ~memoize:false ~dispatch:Runtime.Cone () in
  check_bool "memoized default is Cone" true (fst memo > 0);
  check_int "pull baseline defaults to Flood" 0 (fst pull);
  check_bool "explicit dispatch wins" true (fst forced > 0);
  List.iter
    (fun (_, changes) -> check_ints "same changes either way" [ 1; 3 ] changes)
    [ memo; pull; forced ]

(* ------------------------------------------------------------------ *)
(* Reach analysis *)

let test_reach_basic () =
  let a = Signal.input 0 in
  let b = Signal.input 0 in
  let la = Signal.lift (fun x -> x + 1) a in
  let s = Signal.lift2 ( + ) la b in
  let r = Reach.analyze s in
  check_int "four nodes" 4 (Reach.node_count r);
  check_bool "a reaches la" true
    (Reach.affects r ~source:(Signal.id a) ~node:(Signal.id la));
  check_bool "b does not reach la" false
    (Reach.affects r ~source:(Signal.id b) ~node:(Signal.id la));
  check_bool "both reach root" true
    (Reach.affects r ~source:(Signal.id a) ~node:(Signal.id s)
    && Reach.affects r ~source:(Signal.id b) ~node:(Signal.id s));
  check_int "a's cone: a, la, root" 3 (Reach.cone_size r (Signal.id a));
  check_int "b's cone: b, root" 2 (Reach.cone_size r (Signal.id b))

let test_reach_async_cuts () =
  (* An async node is a source: its inner subgraph reaches the rest of the
     program only through the dispatcher, so the input's cone stops at the
     inner subgraph and the async node's own id drives the downstream. *)
  let a = Signal.input 0 in
  let inner = Signal.lift (fun x -> x) a in
  let asy = Signal.async inner in
  let root = Signal.lift (fun x -> x) asy in
  let r = Reach.analyze root in
  check_bool "a reaches inner" true
    (Reach.affects r ~source:(Signal.id a) ~node:(Signal.id inner));
  check_bool "a does not reach past async" false
    (Reach.affects r ~source:(Signal.id a) ~node:(Signal.id root));
  check_bool "async id reaches root" true
    (Reach.affects r ~source:(Signal.id asy) ~node:(Signal.id root));
  check_bool "async registered as source" true
    (List.mem (Signal.id asy) (Reach.sources r))

let test_reach_constants_and_empty_lifts () =
  let a = Signal.input 0 in
  let k = Signal.constant 7 in
  let empty = Signal.lift_list (fun _ -> 9) [] in
  let s = Signal.lift3 (fun x y z -> x + y + z) a k empty in
  let r = Reach.analyze s in
  check_bool "constant is its own source" true
    (Reach.affects r ~source:(Signal.id k) ~node:(Signal.id k));
  check_bool "empty lift_list treated as source" true
    (List.mem (Signal.id empty) (Reach.sources r));
  check_int "a's cone excludes constants" 2 (Reach.cone_size r (Signal.id a))

(* ------------------------------------------------------------------ *)
(* Bounded history *)

let bounded_run ?history () =
  with_world (fun () ->
      let a = Signal.input 0 in
      let s = Signal.lift (fun x -> x * 10) a in
      let rt = Runtime.start ?history s in
      for i = 1 to 10 do
        Runtime.inject rt a i
      done;
      rt)

let test_history_unbounded_default () =
  let rt = bounded_run () in
  check_int "all ten changes kept" 10 (List.length (Runtime.changes rt))

let test_history_cap_keeps_most_recent () =
  let rt = bounded_run ~history:3 () in
  check_ints "last three changes" [ 80; 90; 100 ] (values rt);
  check_int "message log equally capped" 3
    (List.length (Runtime.message_log rt));
  check_int "current unaffected" 100 (Runtime.current rt)

let test_history_zero_disables_logging () =
  let rt = bounded_run ~history:0 () in
  check_ints "no changes logged" [] (values rt);
  check_int "no messages logged" 0 (List.length (Runtime.message_log rt));
  check_int "current still tracked" 100 (Runtime.current rt);
  check_int "stats still counted" 10 (Runtime.stats rt).Stats.events

let test_history_negative_rejected () =
  with_world (fun () ->
      let a = Signal.input 0 in
      match Runtime.start ~history:(-1) a with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_listeners_in_registration_order () =
  let order = ref [] in
  let _rt =
    with_world (fun () ->
        let a = Signal.input 0 in
        let rt = Runtime.start a in
        Runtime.on_change rt (fun _ v -> order := (`First, v) :: !order);
        Runtime.on_change rt (fun _ v -> order := (`Second, v) :: !order);
        Runtime.inject rt a 5;
        rt)
  in
  check_bool "both called, registration order" true
    (List.rev !order = [ (`First, 5); (`Second, 5) ])

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "runtime"
    [
      ( "propagation",
        [
          tc "default value" `Quick test_default_value;
          tc "lift per event" `Quick test_lift_applies_per_event;
          tc "lift2 combines" `Quick test_lift2_combines;
          tc "one message per event" `Quick test_one_message_per_event;
          tc "NoChange skips recompute" `Quick test_unrelated_input_no_change;
          tc "lift3/lift4" `Quick test_lift3_lift4;
          tc "lift5..8 derived" `Quick test_lift5_to_lift8;
          tc "lift_list" `Quick test_lift_list;
          tc "sharing" `Quick test_sharing_one_node;
          tc "constants" `Quick test_constant_never_changes;
          tc "combine" `Quick test_combine;
        ] );
      ( "foldp",
        [
          tc "counts only its events" `Quick test_foldp_counts_only_its_events;
          tc "accumulates" `Quick test_foldp_accumulates;
          qt prop_foldp_is_list_fold;
        ] );
      ( "combinators",
        [
          tc "merge" `Quick test_merge_left_bias;
          tc "drop_repeats" `Quick test_drop_repeats;
          tc "sample_on" `Quick test_sample_on;
          tc "keep_when" `Quick test_keep_when;
          tc "keep_when default" `Quick test_keep_when_default;
          tc "count_if" `Quick test_count_if;
          tc "delay1" `Quick test_delay1;
          tc "timestamp" `Quick test_timestamp;
          tc "delay shifts time" `Quick test_delay_shifts_time;
          tc "delay preserves order" `Quick test_delay_preserves_order;
          tc "delay is a source" `Quick test_delay_does_not_block_siblings;
        ] );
      ( "delay heap",
        [
          tc "pops in sorted (due, epoch, node) order" `Quick
            test_delay_heap_order;
          tc "remap renumbers and drops" `Quick test_delay_heap_remap;
          tc "one node's values keep their order under chaos" `Quick
            test_delay_order_under_chaos;
          tc "pending delays share one sleeper" `Quick
            test_delay_threads_constant;
          tc "delays are not async events" `Quick
            test_delays_are_not_async_events;
        ] );
      ( "async",
        [
          tc "values preserved" `Quick test_async_preserves_values;
          tc "async events counted" `Quick test_async_events_counted;
          tc "async is source" `Quick test_async_is_source;
          tc "sync blocks (syncEg)" `Quick test_sync_blocks;
          tc "async responsive (asyncEg)" `Quick test_async_does_not_block;
          tc "order within subgraph" `Quick test_async_order_within_subgraph;
        ] );
      ( "modes",
        [
          tc "pipelining overlaps" `Quick test_pipelining_overlaps;
          tc "memoize off counts" `Quick test_memoize_off_counts_recomputations;
          tc "inject non-input" `Quick test_inject_non_input_rejected;
          tc "start outside run" `Quick test_start_outside_run_rejected;
          tc "re-instantiation" `Quick test_two_runtimes_sequentially;
          tc "sources registered" `Quick test_sources_registered;
        ] );
      ( "graph",
        [
          tc "topological order" `Quick test_reachable_topological;
          tc "fig7 dot" `Quick test_to_dot_fig7;
          qt prop_random_graph_runs;
          qt prop_async_preserves_subgraph_order;
          qt prop_drop_repeats_idempotent;
          qt prop_merge_sees_every_event;
          qt prop_delay_exact_shift;
        ] );
      ( "cone dispatch",
        [
          tc "elides quiescent chains" `Quick test_cone_elides_quiescent_chains;
          tc "foldp alignment under elision" `Quick test_cone_foldp_alignment;
          tc "sequential cone no deadlock" `Quick
            test_sequential_cone_no_deadlock;
          tc "dispatch defaults" `Quick
            test_dispatch_default_and_memoize_interaction;
          qt prop_cone_trace_equals_flood;
          qt prop_cone_message_accounting;
        ] );
      ( "reach",
        [
          tc "basic cones" `Quick test_reach_basic;
          tc "async cuts reachability" `Quick test_reach_async_cuts;
          tc "constants and empty lifts" `Quick
            test_reach_constants_and_empty_lifts;
        ] );
      ( "history",
        [
          tc "unbounded default" `Quick test_history_unbounded_default;
          tc "cap keeps most recent" `Quick test_history_cap_keeps_most_recent;
          tc "zero disables logging" `Quick test_history_zero_disables_logging;
          tc "negative rejected" `Quick test_history_negative_rejected;
          tc "listeners in order" `Quick test_listeners_in_registration_order;
        ] );
    ]
