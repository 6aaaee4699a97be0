(* Tests for the serving layer (Elm_serve): many sessions over one shared
   compiled plan. The properties that matter: a session's change trace is
   bit-identical to a dedicated single-session compiled runtime fed the
   same event sequence, no matter how injections into other sessions
   interleave (isolation); clones continue exactly where their parent
   stood; bounded input queues refuse instead of growing; the per-session
   elision invariant balances; and shared tracers report per-session
   rows. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Compile = Elm_core.Compile
module Session = Elm_serve.Session
module Dispatcher = Elm_serve.Dispatcher
module Pool = Elm_core.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

let session_values s = List.map snd (Session.changes s)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Isolation units *)

let counter_graph () =
  let a = Signal.input ~name:"a" 0 in
  let root = Signal.foldp ( + ) 0 (Signal.lift succ a) in
  (a, root)

let test_sessions_isolated () =
  let a, root = counter_graph () in
  let d = Dispatcher.create root in
  let s1 = Dispatcher.open_session d in
  let s2 = Dispatcher.open_session d in
  List.iter (fun v -> Dispatcher.inject d s1 a v) [ 1; 2; 3 ];
  ignore (Dispatcher.drain d);
  check_ints "s1 accumulated" [ 2; 5; 9 ] (session_values s1);
  check_int "s2 never moved" 0 (Session.current s2);
  check_int "s2 saw no events" 0 (Session.stats s2).Stats.events;
  Dispatcher.inject d s2 a 10;
  ignore (Dispatcher.drain d);
  check_ints "s2 folds from its own default" [ 11 ] (session_values s2);
  check_int "s1 unaffected by s2's event" 9 (Session.current s1)

(* The same per-session event sequence produces the same per-session trace
   regardless of how injections into other sessions interleave — checked
   against a dedicated compiled Runtime fed the identical sequence, across
   seeded interleavings (the serving analogue of the schedule explorer's
   seeded schedules) and interior drains. A drain runs to quiescence,
   delivering every pending delay, so the reference lets virtual time
   pass (past the delay shape's 1 s) wherever a drain fell between two of
   the session's events. *)
let prop_isolated_under_interleavings =
  QCheck.Test.make
    ~name:"session trace = single-session runtime, any interleaving"
    ~count:30 Gen_graph.arb_deterministic_shape_events
    (fun (shape, events) ->
      let reference drained =
        Gen_graph.values
          (Gen_graph.with_world (fun () ->
               let a, b, root = Gen_graph.build_shape shape in
               let rt = Runtime.start ~backend:Runtime.Compiled root in
               Cml.spawn (fun () ->
                   List.iteri
                     (fun k (to_a, v) ->
                       if drained.(k) then Cml.sleep 2.0;
                       Runtime.inject rt (if to_a then a else b) v)
                     events);
               rt))
      in
      List.for_all
        (fun seed ->
          let st = Random.State.make [| seed; shape |] in
          let a, b, root = Gen_graph.build_shape shape in
          let d = Dispatcher.create root in
          let sessions = Array.init 3 (fun _ -> Dispatcher.open_session d) in
          let remaining = Array.make 3 events in
          (* per session: its events injected so far, and after which of
             them a drain ran *)
          let taken = Array.make 3 0 in
          let drained =
            Array.init 3 (fun _ -> Array.make (List.length events + 1) false)
          in
          let left () =
            Array.exists (fun l -> l <> []) remaining
          in
          while left () do
            let i = Random.State.int st 3 in
            (match remaining.(i) with
            | [] -> ()
            | (to_a, v) :: rest ->
              remaining.(i) <- rest;
              taken.(i) <- taken.(i) + 1;
              Dispatcher.inject d sessions.(i) (if to_a then a else b) v);
            if Random.State.int st 4 = 0 then begin
              ignore (Dispatcher.drain d);
              Array.iteri (fun j k -> drained.(j).(k) <- true) taken
            end
          done;
          ignore (Dispatcher.drain d);
          Array.for_all2
            (fun s k -> session_values s = reference k)
            sessions drained)
        [ 1; 2; 3; 4; 5 ])

(* Per-session elision invariant: the root display message is the only real
   one per event; everything else is elided in place or by the cone gap. *)
let prop_session_accounting =
  QCheck.Test.make ~name:"per session: messages + elided = nodes * events"
    ~count:30 Gen_graph.arb_deterministic_shape_events
    (fun (shape, events) ->
      let a, b, root = Gen_graph.build_shape shape in
      let d = Dispatcher.create root in
      let s = Dispatcher.open_session d in
      List.iter
        (fun (to_a, v) -> Dispatcher.inject d s (if to_a then a else b) v)
        events;
      ignore (Dispatcher.drain d);
      let st = Session.stats s in
      st.Stats.messages + st.Stats.elided_messages
      = Compile.node_count (Dispatcher.plan d) * st.Stats.events)

(* ------------------------------------------------------------------ *)
(* Cloning *)

let test_clone_at_birth_equal () =
  let a, root = counter_graph () in
  let d = Dispatcher.create root in
  let s1 = Dispatcher.open_session d in
  let s2 = Dispatcher.clone d s1 in
  List.iter
    (fun v ->
      Dispatcher.inject d s1 a v;
      Dispatcher.inject d s2 a v)
    [ 4; 5; 6 ];
  ignore (Dispatcher.drain d);
  check_bool "fresh clone behaves like a fresh session" true
    (session_values s1 = session_values s2)

let test_clone_resumes_parent_state () =
  (* Default (fused) dispatcher: the lift and the drop_repeats fuse into one
     composite whose previous-value cell is an arena state slot, copied by
     the clone like the foldp accumulator. *)
  let a = Signal.input ~name:"a" 0 in
  let root =
    Signal.foldp ( + ) 0 (Signal.drop_repeats (Signal.lift (fun x -> x / 2) a))
  in
  let d = Dispatcher.create root in
  let s1 = Dispatcher.open_session d in
  List.iter (fun v -> Dispatcher.inject d s1 a v) [ 2; 3; 4 ];
  ignore (Dispatcher.drain d);
  (* values seen: 1, 1 (dropped), 2 -> changes 1, 3 *)
  let s2 = Dispatcher.clone d s1 in
  check_int "clone starts at the parent's current" (Session.current s1)
    (Session.current s2);
  check_bool "clone inherits the change history" true
    (Session.changes s1 = Session.changes s2);
  (* Same suffix to both: identical continuations, including the
     drop_repeats previous value (6/2 = 3 was never seen, 4/2 = 2 was). *)
  List.iter
    (fun v ->
      Dispatcher.inject d s1 a v;
      Dispatcher.inject d s2 a v)
    [ 4; 6; 7 ];
  ignore (Dispatcher.drain d);
  check_bool "identical traces after the clone point" true
    (session_values s1 = session_values s2);
  (* and they are independent after the fork *)
  Dispatcher.inject d s1 a 100;
  ignore (Dispatcher.drain d);
  check_bool "post-fork events do not leak" true
    (Session.current s1 <> Session.current s2)

(* Over the whole shape catalogue, under the default (fused) dispatcher: a
   session cloned at any quiescent split point continues exactly like its
   parent when both receive the same suffix. *)
let prop_clone_continues_like_parent =
  QCheck.Test.make
    ~name:"fused clone at a random split continues like its parent" ~count:100
    QCheck.(
      triple
        (int_bound (Gen_graph.shape_count - 1))
        (list (pair bool (int_bound 7)))
        small_nat)
    (fun (shape, events, k) ->
      let a, b, root = Gen_graph.build_shape shape in
      let d = Dispatcher.create root in
      let parent = Dispatcher.open_session d in
      let k = k mod (List.length events + 1) in
      let inject s evs =
        List.iter
          (fun (left, v) -> Dispatcher.inject d s (if left then a else b) v)
          evs
      in
      inject parent (List.filteri (fun i _ -> i < k) events);
      ignore (Dispatcher.drain d);
      let clone = Dispatcher.clone d parent in
      let suffix = List.filteri (fun i _ -> i >= k) events in
      inject parent suffix;
      inject clone suffix;
      ignore (Dispatcher.drain d);
      Session.changes clone = Session.changes parent)

let test_clone_requires_idle () =
  let a, root = counter_graph () in
  let d = Dispatcher.create root in
  let s = Dispatcher.open_session d in
  Dispatcher.inject d s a 1;
  check_bool "pending event blocks clone" true
    (try
       ignore (Dispatcher.clone d s);
       false
     with Invalid_argument _ -> true);
  ignore (Dispatcher.drain d);
  check_bool "idle again: clone allowed" true
    (Session.is_idle s
    && Session.id (Dispatcher.clone d s) <> Session.id s)

(* ------------------------------------------------------------------ *)
(* Bounded queues and memory *)

let test_bounded_input_queue () =
  let a, root = counter_graph () in
  let d = Dispatcher.create ~queue_capacity:2 root in
  let s = Dispatcher.open_session d in
  check_bool "first two accepted" true
    (Dispatcher.try_inject d s a 1 && Dispatcher.try_inject d s a 2);
  check_bool "third refused" false (Dispatcher.try_inject d s a 3);
  check_int "drop counted" 1 (Session.dropped s);
  check_bool "inject raises Queue_full" true
    (try
       Dispatcher.inject d s a 3;
       false
     with Session.Queue_full -> true);
  ignore (Dispatcher.drain d);
  check_ints "accepted events all dispatched" [ 2; 5 ] (session_values s);
  check_bool "queue drained: accepts again" true (Dispatcher.try_inject d s a 9)

(* The capacity bounds a session's inbox, every wake waiting there
   whatever its input, and each session's inbox is its own. *)
let test_bounded_inbox_counts_every_input () =
  let x = Signal.input ~name:"x" 0 and y = Signal.input ~name:"y" 0 in
  let d = Dispatcher.create ~queue_capacity:2 (Signal.lift2 ( + ) x y) in
  let s = Dispatcher.open_session d and t = Dispatcher.open_session d in
  check_bool "one wake per input accepted" true
    (Dispatcher.try_inject d s x 1 && Dispatcher.try_inject d s y 10);
  check_int "both wait in the session's inbox" 2 (Session.pending s);
  check_bool "a third refused on the first input" false
    (Dispatcher.try_inject d s x 2);
  check_bool "and on the second" false (Dispatcher.try_inject d s y 20);
  check_int "both drops counted" 2 (Session.dropped s);
  check_bool "another session's inbox is its own" true
    (Dispatcher.try_inject d t y 5 && Dispatcher.try_inject d t y 6);
  check_int "no drop counted against it" 0 (Session.dropped t);
  ignore (Dispatcher.drain d);
  check_ints "accepted events all dispatched" [ 1; 11 ] (session_values s);
  check_ints "the other session's too" [ 5; 6 ] (session_values t)

(* Closing a session drops the wakes still in its inbox together with
   their values: a closed session (which stays on the ready FIFO until
   the next drain) pins none of the payloads injected into it. *)
let test_closed_session_pins_no_payload () =
  let p = Signal.input ~name:"p" [||] in
  let d = Dispatcher.create (Signal.lift Array.length p) in
  let s = Dispatcher.open_session d in
  let w = Weak.create 2 in
  for i = 0 to 1 do
    let payload = Array.make 1_000 i in
    Weak.set w i (Some payload);
    Dispatcher.inject d s p payload
  done;
  Dispatcher.close d s;
  check_int "nothing pending after close" 0 (Session.pending s);
  Gc.full_major ();
  check_bool "the queued payloads were collected" true
    (Weak.get w 0 = None && Weak.get w 1 = None);
  check_int "the next drain dispatches nothing" 0 (Dispatcher.drain d);
  ignore (Sys.opaque_identity (d, s))

let test_idle_footprint_stable () =
  let a, root = counter_graph () in
  let d = Dispatcher.create ~history:0 root in
  let s = Dispatcher.open_session d in
  Dispatcher.inject d s a 1;
  ignore (Dispatcher.drain d);
  let w1 = Session.footprint_words s in
  for v = 2 to 200 do
    Dispatcher.inject d s a v;
    ignore (Dispatcher.drain d)
  done;
  let w2 = Session.footprint_words s in
  check_int "idle footprint does not grow with traffic" w1 w2

(* [footprint_words] is what one more session really costs: over 2,000
   sessions of a two-input program (a foldp chain and a drop_repeats
   chain, joined), each fed one event per input and drained, the marginal
   live heap per session lies within 10% of it. The dispatcher is kept
   alive to the end, so its slot in the session table counts too. That
   heap figure is deterministic for a fixed program and compiler, so it
   also has a ceiling: 81.0 words, measured once the sessions sat in one
   id-ordered table, plus 5%. *)
let test_footprint_matches_live_heap () =
  let x = Signal.input ~name:"x" 0 and y = Signal.input ~name:"y" 0 in
  let root =
    Signal.lift2 ( + )
      (Signal.foldp ( + ) 0 (Signal.lift succ x))
      (Signal.drop_repeats (Signal.lift (fun v -> v / 2) y))
  in
  let d = Dispatcher.create ~history:0 root in
  ignore (Dispatcher.open_session d);
  let n = 2_000 in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let ss = Array.init n (fun _ -> Dispatcher.open_session d) in
  Array.iter
    (fun s ->
      Dispatcher.inject d s x 1;
      Dispatcher.inject d s y 4)
    ss;
  ignore (Dispatcher.drain d);
  Gc.compact ();
  let live =
    float_of_int ((Gc.stat ()).Gc.live_words - before) /. float_of_int n
  in
  let fp = float_of_int (Session.footprint_words ss.(0)) in
  ignore (Sys.opaque_identity (d, ss));
  if Float.abs (live -. fp) > 0.1 *. live then
    Alcotest.failf "footprint_words %.0f vs %.1f live words per session" fp live;
  if live > 85.0 then
    Alcotest.failf "%.1f live words per session (ceiling: 85)" live

(* Under [Restart 1] every session has its own budget per node: a failure
   in one session never spends another's (each restart re-seeds the fold,
   so a spent budget shows in the values). *)
let test_restart_budget_per_session () =
  let a = Signal.input ~name:"a" 0 in
  let root =
    Signal.foldp (fun v acc -> if v < 0 then failwith "boom" else acc + v) 0 a
  in
  let d = Dispatcher.create ~on_node_error:(Runtime.Restart 1) root in
  let sa = Dispatcher.open_session d and sb = Dispatcher.open_session d in
  List.iter (fun v -> Dispatcher.inject d sa a v) [ 5; -1; -1; 2 ];
  ignore (Dispatcher.drain d);
  List.iter (fun v -> Dispatcher.inject d sb a v) [ 7; -1; 3 ];
  ignore (Dispatcher.drain d);
  let failures s = (Session.stats s).Stats.node_failures
  and restarts s = (Session.stats s).Stats.node_restarts in
  check_int "A failed twice" 2 (failures sa);
  check_int "A restarted once: budget 1" 1 (restarts sa);
  check_ints "A: restarted, then isolated" [ 5; 2 ] (session_values sa);
  check_int "B failed once" 1 (failures sb);
  check_int "B restarted on its own budget" 1 (restarts sb);
  check_ints "B: folds from its default again" [ 7; 3 ] (session_values sb)

(* ------------------------------------------------------------------ *)
(* Async/delay boundaries inside sessions *)

let test_delay_virtual_clock () =
  let b = Signal.input ~name:"b" 0 in
  let root = Signal.delay 5.0 (Signal.lift (fun x -> (2 * x) + 1) b) in
  let d = Dispatcher.create root in
  let s = Dispatcher.open_session d in
  Dispatcher.inject d s b 1;
  Dispatcher.inject d s b 2;
  check_int "nothing dispatched yet" 0 (Session.stats s).Stats.events;
  ignore (Dispatcher.drain d);
  check_ints "delayed changes in order" [ 3; 5 ] (session_values s);
  check_bool "virtual clock advanced to the due time" true
    (Dispatcher.now d = 5.0);
  check_bool "session idle after drain" true (Session.is_idle s)

let test_async_per_source_order () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 1 in
  let root =
    Signal.merge
      (Signal.lift (fun x -> 2 * x) a)
      (Signal.async (Signal.lift (fun x -> (2 * x) + 1) b))
  in
  let d = Dispatcher.create root in
  let s = Dispatcher.open_session d in
  for i = 1 to 4 do
    Dispatcher.inject d s a i;
    Dispatcher.inject d s b i
  done;
  ignore (Dispatcher.drain d);
  let vs = session_values s in
  let evens = List.filter (fun v -> v mod 2 = 0) vs in
  let odds = List.filter (fun v -> v mod 2 = 1) vs in
  check_ints "synchronous side in order" [ 2; 4; 6; 8 ] evens;
  check_ints "async side in order" [ 3; 5; 7; 9 ] odds

exception Crash

(* Equal-due delays of several sessions keep each session's FIFO order,
   also across the heap rebuild in [upgrade_all]. Three sessions each
   delay three values by the same 1.0 s; a crash behind an async seam
   (Propagate) aborts the drain after the delays reached the heap, so
   the upgrade finds all nine entries queued and must rebuild the heap
   without reordering them. *)
let test_equal_due_delays_fifo_across_upgrade () =
  let build () =
    let a = Signal.input ~name:"a" 0 in
    let b = Signal.input ~name:"b" 0 in
    let boom x = if x = 99 then raise Crash else x in
    let root =
      Signal.merge
        (Signal.delay 1.0 (Signal.lift ~name:"tag" succ a))
        (Signal.lift ~name:"boom" boom (Signal.async (Signal.lift pred b)))
    in
    (a, b, root)
  in
  let a, b, root = build () in
  let d = Dispatcher.create root in
  let ss = Array.init 3 (fun _ -> Dispatcher.open_session d) in
  List.iter
    (fun v -> Array.iteri (fun k s -> Dispatcher.inject d s a ((10 * k) + v)) ss)
    [ 1; 2; 3 ];
  Dispatcher.inject d ss.(2) b 100;
  Alcotest.check_raises "the async crash aborts the drain" Crash (fun () ->
      ignore (Dispatcher.drain d));
  check_int "all nine delays wait in the heap" 9
    (Dispatcher.accounting d).Dispatcher.pending_delays;
  let _, _, root' = build () in
  ignore (Dispatcher.upgrade_all d root');
  ignore (Dispatcher.drain d);
  Array.iteri
    (fun k s ->
      check_ints
        (Printf.sprintf "session %d: delayed values in injection order" k)
        (List.map (fun v -> (10 * k) + v + 1) [ 1; 2; 3 ])
        (session_values s))
    ss;
  check_bool "the clock stopped at the one due time" true (Dispatcher.now d = 1.0);
  check_int "nothing left in the heap" 0
    (Dispatcher.accounting d).Dispatcher.pending_delays

(* A Propagate exception aborts a drain mid-round. The round's sessions
   that had not run yet keep their wakes and run on the next drain, and
   one that ran before the crash hands over its async re-entry. *)
let test_aborted_drain_resumes () =
  let a = Signal.input ~name:"a" 0 in
  let boom x = if x = 99 then raise Crash else x in
  let root =
    Signal.merge
      (Signal.lift ~name:"boom" boom a)
      (Signal.async (Signal.lift succ a))
  in
  let d = Dispatcher.create root in
  let ss = Array.init 3 (fun _ -> Dispatcher.open_session d) in
  Array.iteri (fun k s -> Dispatcher.inject d s a (if k = 1 then 99 else 1)) ss;
  Alcotest.check_raises "the crash escapes the drain" Crash (fun () ->
      ignore (Dispatcher.drain d));
  ignore (Dispatcher.drain d);
  check_ints "the session before the crash got its async value" [ 1; 2 ]
    (session_values ss.(0));
  check_ints "the session behind the crash ran on the next drain" [ 1; 2 ]
    (session_values ss.(2));
  check_bool "nothing left pending" true (Array.for_all Session.is_idle ss)

(* ------------------------------------------------------------------ *)
(* Accounting and reporting *)

let test_dispatcher_accounting () =
  let a, root = counter_graph () in
  let d = Dispatcher.create root in
  let s1 = Dispatcher.open_session d in
  let s2 = Dispatcher.open_session d in
  let s3 = Dispatcher.clone d s1 in
  Dispatcher.inject d s1 a 1;
  let acc = Dispatcher.accounting d in
  check_int "live" 3 acc.Dispatcher.live;
  check_int "opened counts clones" 3 acc.Dispatcher.opened;
  check_int "routed" 1 acc.Dispatcher.routed;
  check_int "idle excludes the loaded session" 2 acc.Dispatcher.idle;
  check_int "pending" 1 acc.Dispatcher.pending_events;
  ignore (Dispatcher.drain d);
  Dispatcher.close d s2;
  let acc = Dispatcher.accounting d in
  check_int "closed" 1 acc.Dispatcher.closed;
  check_int "live after close" 2 acc.Dispatcher.live;
  check_int "all idle after drain" 2 acc.Dispatcher.idle;
  ignore s3

(* The session table releases closed rows: after N opens and 2N
   close-and-reopens, holding no handle to a closed session, every early
   session is collectable, since its hole has been squeezed out. Closing
   the rest, newest first, then releases every row ever opened. *)
let test_churn_releases_closed_rows () =
  let a, root = counter_graph () in
  let d = Dispatcher.create root in
  let n = 50 in
  let opened = Weak.create (3 * n) in
  let k = ref 0 in
  let open_one () =
    let s = Dispatcher.open_session d in
    Weak.set opened !k (Some s);
    incr k;
    s
  in
  let live = Queue.create () in
  for _ = 1 to n do
    Queue.push (open_one ()) live
  done;
  for v = 1 to 2 * n do
    let s = Queue.pop live in
    Dispatcher.inject d s a v;
    ignore (Dispatcher.drain d);
    Dispatcher.close d s;
    Queue.push (open_one ()) live
  done;
  let collected lo hi =
    Gc.full_major ();
    for i = lo to hi - 1 do
      check_bool (Printf.sprintf "session %d collected" i) true
        (Weak.get opened i = None)
    done
  in
  collected 0 n;
  check_int "live" n (Dispatcher.accounting d).Dispatcher.live;
  List.iter (Dispatcher.close d) (List.rev (List.of_seq (Queue.to_seq live)));
  Queue.clear live;
  collected 0 (3 * n);
  ignore (Sys.opaque_identity d)

(* Random walks over the session lifecycle: open, clone, close, inject,
   drain and identity [upgrade_all]. [accounting] counts exactly the open
   handles (live, and idle after a drain), a closed session never steps again, and every session's trace
   equals the run that skips the upgrades (the replay-differential
   reference of [Gen_graph.serve_upgrade_run]). *)
let walk_run ~apply shape ops =
  let a, b, root = Gen_graph.build_shape shape in
  let d = Dispatcher.create root in
  let inputs = ref (a, b) in
  let handles = ref [ Dispatcher.open_session d ] in
  let all = ref !handles in
  let closed = ref [] in
  let ok = ref true in
  (* Called after a drain, when every open session is idle. *)
  let count_live () =
    let acc = Dispatcher.accounting d and n = List.length !handles in
    if acc.Dispatcher.live <> n || acc.Dispatcher.idle <> n then ok := false
  in
  let pick i = List.nth !handles (i mod List.length !handles) in
  let add s =
    handles := !handles @ [ s ];
    all := !all @ [ s ]
  in
  List.iter
    (fun (kind, i, left, v) ->
      match kind with
      | 0 -> add (Dispatcher.open_session d)
      | _ when !handles = [] -> ()
      | 1 ->
        ignore (Dispatcher.drain d);
        add (Dispatcher.clone d (pick i))
      | 2 ->
        let s = pick i in
        Dispatcher.close d s;
        handles := List.filter (fun h -> h != s) !handles;
        closed :=
          (s, (Session.stats s).Stats.events, List.length (Session.changes s))
          :: !closed
      | 3 | 4 | 5 | 6 ->
        let a, b = !inputs in
        Dispatcher.inject d (pick i) (if left then a else b) v
      | 7 ->
        ignore (Dispatcher.drain d);
        count_live ()
      | _ ->
        if apply then begin
          let a', b', root' = Gen_graph.build_shape shape in
          ignore (Dispatcher.upgrade_all d root');
          inputs := (a', b')
        end)
    ops;
  ignore (Dispatcher.drain d);
  count_live ();
  let frozen =
    List.for_all
      (fun (s, events, changes) ->
        (Session.stats s).Stats.events = events
        && List.length (Session.changes s) = changes)
      !closed
  in
  (!ok && frozen, List.map Session.changes !all)

let prop_lifecycle_walk =
  QCheck.Test.make ~name:"lifecycle walks: live count, frozen closes, traces"
    ~count:100
    QCheck.(
      pair
        (int_bound (Gen_graph.shape_count - 1))
        (list_of_size
           Gen.(0 -- 60)
           (quad (int_bound 8) small_nat bool (int_bound 7))))
    (fun (shape, ops) ->
      let ok, traces = walk_run ~apply:true shape ops in
      let ok_ref, reference = walk_run ~apply:false shape ops in
      ok && ok_ref && traces = reference)

let test_closed_session_ignored () =
  let a, root = counter_graph () in
  let d = Dispatcher.create root in
  let s = Dispatcher.open_session d in
  Dispatcher.inject d s a 1;
  Dispatcher.close d s;
  ignore (Dispatcher.drain d);
  check_int "no event dispatched into a closed session" 0
    (Session.stats s).Stats.events;
  check_bool "inject into closed session rejected" true
    (try
       Dispatcher.inject d s a 2;
       false
     with Invalid_argument _ -> true)

let test_shared_tracer_per_session_rows () =
  let tracer = Trace.create () in
  let a, root = counter_graph () in
  let d = Dispatcher.create ~tracer root in
  let s1 = Dispatcher.open_session d in
  let s2 = Dispatcher.open_session d in
  Dispatcher.inject d s1 a 1;
  Dispatcher.inject d s2 a 2;
  ignore (Dispatcher.drain d);
  let summary = Trace.summary tracer in
  let names = List.map (fun ns -> ns.Trace.node_name) summary.Trace.nodes in
  check_bool "session 0 has its own rows" true
    (List.exists (fun n -> contains n "s0:region:") names);
  check_bool "session 1 has its own rows" true
    (List.exists (fun n -> contains n "s1:region:") names);
  (* ids are offset by the plan's stride, so rows never collide *)
  let ids = List.map (fun ns -> ns.Trace.node_id) summary.Trace.nodes in
  let uniq = List.sort_uniq compare ids in
  check_int "node ids unique across sessions" (List.length ids)
    (List.length uniq);
  List.iter
    (fun ns ->
      check_bool
        (Printf.sprintf "row %s processed rounds" ns.Trace.node_name)
        true (ns.Trace.rounds > 0))
    summary.Trace.nodes;
  check_bool "labeled stats lines distinguish sessions" true
    (contains (Format.asprintf "%a" Session.pp_stats s1) "s0: events="
    && contains (Format.asprintf "%a" Session.pp_stats s2) "s1: events=")

(* ------------------------------------------------------------------ *)
(* Parallel drain: domain pool vs the sequential dispatcher *)

(* Shared pools, one per width, reused across cases (workers are persistent
   and park between runs, so reuse also exercises the epoch protocol).
   Closed at process exit. *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4

let pool_of k =
  match Hashtbl.find_opt pools k with
  | Some p -> p
  | None ->
    let p = Pool.create ~domains:k () in
    Hashtbl.replace pools k p;
    p

let () = at_exit (fun () -> Hashtbl.iter (fun _ p -> Pool.close p) pools)

(* One deterministic serving run over 4 sessions of [shape]: the same
   injection schedule (uniform round-robin with interior drains, or bursty
   — everything into a hot session first) is replayed sequentially and
   under every pool width/seed, and per-session change traces must agree
   bit-for-bit, epochs included. The catalogue's async and delay shapes
   ride along, so boundary re-entries and virtual-clock delivery cross the
   pool path too. *)
let run_serving ?pool ?(seed = 0) ~bursty shape events =
  let a, b, root = Gen_graph.build_shape shape in
  let d = Dispatcher.create ?pool root in
  let sessions = Array.init 4 (fun _ -> Dispatcher.open_session d) in
  let drain () = ignore (Dispatcher.drain ~seed d) in
  let inject i e =
    let to_a, v = e in
    Dispatcher.inject d sessions.(i) (if to_a then a else b) v
  in
  if bursty then begin
    List.iter (inject 0) events;
    List.iteri (fun i e -> inject (1 + (i mod 3)) e) events;
    drain ();
    List.iteri (fun i e -> inject (i mod 4) e) events;
    drain ()
  end
  else begin
    List.iteri
      (fun i e ->
        inject (i mod 4) e;
        if i mod 5 = 4 then drain ())
      events;
    drain ()
  end;
  (Array.map Session.changes sessions, d)

let prop_pool_matches_sequential =
  QCheck.Test.make
    ~name:"pool drain = sequential drain, any width/seed/arrival pattern"
    ~count:10 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      List.for_all
        (fun bursty ->
          let reference, _ = run_serving ~bursty shape events in
          List.for_all
            (fun k ->
              let pool = pool_of k in
              List.for_all
                (fun seed ->
                  let got, _ =
                    run_serving ~pool ~seed ~bursty shape events
                  in
                  got = reference)
                [ 0; 1; 2 ])
            [ 1; 2; 4 ])
        [ false; true ])

(* Counter attribution: the per-domain accumulators, merged, must equal
   the per-session totals (the sessions did all the work; the domain rows
   are just who ran it), and the merged elision invariant must balance. *)
let test_domain_stats_balance () =
  let a, root = counter_graph () in
  let pool = pool_of 2 in
  let d = Dispatcher.create ~pool root in
  let sessions = Array.init 6 (fun _ -> Dispatcher.open_session d) in
  for round = 1 to 3 do
    Array.iter (fun s -> Dispatcher.inject d s a round) sessions;
    ignore (Dispatcher.drain ~seed:round d)
  done;
  let merged = Stats.create () in
  Array.iter (fun ds -> Stats.merge merged ds) (Dispatcher.domain_stats d);
  let by_session = Stats.create () in
  Array.iter (fun s -> Stats.merge by_session (Session.stats s)) sessions;
  check_int "merged domain events = session events" by_session.Stats.events
    merged.Stats.events;
  check_int "merged domain messages = session messages"
    by_session.Stats.messages merged.Stats.messages;
  check_int "merged domain elided = session elided"
    by_session.Stats.elided_messages merged.Stats.elided_messages;
  check_int "merged elision invariant balances"
    (Compile.node_count (Dispatcher.plan d) * merged.Stats.events)
    (merged.Stats.messages + merged.Stats.elided_messages);
  check_int "every event attributed to exactly one domain" 18
    merged.Stats.events;
  (* the pool did run tasks (6 per round, 3 rounds) *)
  let ws = Pool.worker_stats pool in
  check_bool "worker task counters advanced" true
    (Array.fold_left (fun acc w -> acc + w.Pool.ws_tasks) 0 ws >= 18)

let test_stats_merge_unit () =
  let s1 = Stats.create () and s2 = Stats.create () in
  s1.Stats.events <- 3;
  s1.Stats.messages <- 7;
  s1.Stats.elided_messages <- 2;
  s2.Stats.events <- 5;
  s2.Stats.messages <- 1;
  s2.Stats.node_failures <- 4;
  Stats.merge s1 s2;
  check_int "events add" 8 s1.Stats.events;
  check_int "messages add" 8 s1.Stats.messages;
  check_int "elided add" 2 s1.Stats.elided_messages;
  check_int "failures add" 4 s1.Stats.node_failures;
  check_int "src untouched" 5 s2.Stats.events;
  (* add_delta credits exactly the work between two snapshots *)
  let live = Stats.create () in
  live.Stats.events <- 10;
  let before = Stats.copy live in
  live.Stats.events <- 14;
  live.Stats.fold_steps <- 3;
  let acc = Stats.create () in
  acc.Stats.events <- 100;
  Stats.add_delta acc ~before ~after:live;
  check_int "delta events" 104 acc.Stats.events;
  check_int "delta fold_steps" 3 acc.Stats.fold_steps

(* A shared tracer under the pool: per-domain shards must merge into the
   same per-session rows a sequential drain produces. *)
let test_tracer_under_pool () =
  let run pool =
    let tracer = Trace.create () in
    let a, root = counter_graph () in
    let d = Dispatcher.create ~tracer ?pool root in
    let s1 = Dispatcher.open_session d in
    let s2 = Dispatcher.open_session d in
    for i = 1 to 5 do
      Dispatcher.inject d s1 a i;
      Dispatcher.inject d s2 a (10 * i)
    done;
    ignore (Dispatcher.drain d);
    Trace.summary tracer
  in
  let seq = run None in
  let par = run (Some (pool_of 2)) in
  check_int "events survive the shard merge" seq.Trace.events par.Trace.events;
  check_int "displays survive the shard merge" seq.Trace.displays
    par.Trace.displays;
  check_int "changes survive the shard merge" seq.Trace.changes
    par.Trace.changes;
  let names su =
    List.sort compare (List.map (fun ns -> ns.Trace.node_name) su.Trace.nodes)
  in
  check_bool "per-session rows identical" true (names seq = names par);
  let rounds su =
    List.sort compare
      (List.map (fun ns -> (ns.Trace.node_name, ns.Trace.rounds)) su.Trace.nodes)
  in
  check_bool "per-row round counts identical" true (rounds seq = rounds par)

(* Lifecycle is frozen while workers run: not directly reachable from a
   task, but the guard must at least reject a reentrant drain. *)
let test_pool_misuse_rejected () =
  check_bool "zero-width pool rejected" true
    (try
       ignore (Pool.create ~domains:0 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "isolation",
        [
          tc "sessions never observe each other's foldp state" `Quick
            test_sessions_isolated;
          qc prop_isolated_under_interleavings;
          qc prop_session_accounting;
        ] );
      ( "clone",
        [
          tc "clone at birth equals a fresh session" `Quick
            test_clone_at_birth_equal;
          tc "clone resumes the parent's exact state" `Quick
            test_clone_resumes_parent_state;
          tc "clone requires an idle session" `Quick test_clone_requires_idle;
          qc prop_clone_continues_like_parent;
        ] );
      ( "bounds",
        [
          tc "bounded input queue refuses overflow" `Quick
            test_bounded_input_queue;
          tc "bounded inbox counts every input" `Quick
            test_bounded_inbox_counts_every_input;
          tc "closed session pins no queued payload" `Quick
            test_closed_session_pins_no_payload;
          tc "idle footprint stable under traffic" `Quick
            test_idle_footprint_stable;
          tc "footprint matches the marginal live heap" `Quick
            test_footprint_matches_live_heap;
        ] );
      ( "boundaries",
        [
          tc "delay delivers on the virtual clock" `Quick
            test_delay_virtual_clock;
          tc "async preserves per-source order" `Quick
            test_async_per_source_order;
          tc "equal-due delays stay FIFO across an upgrade" `Quick
            test_equal_due_delays_fifo_across_upgrade;
          tc "an aborted drain resumes where it stopped" `Quick
            test_aborted_drain_resumes;
        ] );
      ( "accounting",
        [
          tc "dispatcher accounting tracks lifecycle" `Quick
            test_dispatcher_accounting;
          tc "closed sessions ignore events" `Quick test_closed_session_ignored;
          tc "Restart budgets are per session" `Quick
            test_restart_budget_per_session;
          tc "shared tracer reports per-session rows" `Quick
            test_shared_tracer_per_session_rows;
        ] );
      ( "table",
        [
          tc "churn releases closed rows" `Quick
            test_churn_releases_closed_rows;
          qc prop_lifecycle_walk;
        ] );
      ( "parallel",
        [
          qc prop_pool_matches_sequential;
          tc "per-domain stats merge to session totals" `Quick
            test_domain_stats_balance;
          tc "Stats.merge / add_delta arithmetic" `Quick test_stats_merge_unit;
          tc "shared tracer shards merge cleanly" `Quick test_tracer_under_pool;
          tc "pool misuse rejected" `Quick test_pool_misuse_rejected;
        ] );
    ]
