(* Tests for the CML substrate: priority queue, scheduler (incl. virtual
   time), mailboxes, synchronous channels and multicast channels. *)

module Sched = Cml.Scheduler
module Mailbox = Cml.Mailbox
module Chan = Cml.Chan
module Multicast = Cml.Multicast
module Pqueue = Cml.Pqueue

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_ints = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_basic () =
  let q = Pqueue.empty ~compare:Int.compare in
  check_bool "empty" true (Pqueue.is_empty q);
  let q = Pqueue.insert q 3 "c" in
  let q = Pqueue.insert q 1 "a" in
  let q = Pqueue.insert q 2 "b" in
  check_int "size" 3 (Pqueue.size q);
  (match Pqueue.min q with
  | Some (1, "a") -> ()
  | _ -> Alcotest.fail "min should be (1, a)");
  match Pqueue.pop_min q with
  | Some (1, "a", q') -> check_int "size after pop" 2 (Pqueue.size q')
  | _ -> Alcotest.fail "pop_min should yield (1, a)"

let test_pqueue_sorted () =
  let bindings = [ (5, ()); (1, ()); (4, ()); (2, ()); (3, ()) ] in
  let q = Pqueue.of_list ~compare:Int.compare bindings in
  let keys = List.map fst (Pqueue.to_sorted_list q) in
  check_ints "sorted" [ 1; 2; 3; 4; 5 ] keys

let test_pqueue_merge () =
  let q1 = Pqueue.of_list ~compare:Int.compare [ (1, "a"); (3, "c") ] in
  let q2 = Pqueue.of_list ~compare:Int.compare [ (2, "b"); (0, "z") ] in
  let q = Pqueue.merge q1 q2 in
  check_int "merged size" 4 (Pqueue.size q);
  let keys = List.map fst (Pqueue.to_sorted_list q) in
  check_ints "merged order" [ 0; 1; 2; 3 ] keys

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue sorts like List.sort" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q =
        Pqueue.of_list ~compare:Int.compare (List.map (fun x -> (x, ())) xs)
      in
      List.map fst (Pqueue.to_sorted_list q) = List.sort Int.compare xs)

let prop_pqueue_min_is_minimum =
  QCheck.Test.make ~name:"pqueue min is list minimum" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) small_int)
    (fun xs ->
      let q =
        Pqueue.of_list ~compare:Int.compare (List.map (fun x -> (x, ())) xs)
      in
      match Pqueue.min q with
      | Some (m, ()) -> m = List.fold_left min (List.hd xs) xs
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_run_value () =
  check_int "run_value returns" 42 (Sched.run_value (fun () -> 42))

let test_spawn_fifo () =
  let log = ref [] in
  Sched.run (fun () ->
      Sched.spawn (fun () -> log := 1 :: !log);
      Sched.spawn (fun () -> log := 2 :: !log);
      Sched.spawn (fun () -> log := 3 :: !log));
  check_ints "FIFO spawn order" [ 1; 2; 3 ] (List.rev !log)

let test_yield_interleaves () =
  let log = Buffer.create 16 in
  Sched.run (fun () ->
      Sched.spawn (fun () ->
          Buffer.add_string log "a1.";
          Sched.yield ();
          Buffer.add_string log "a2.");
      Sched.spawn (fun () ->
          Buffer.add_string log "b1.";
          Sched.yield ();
          Buffer.add_string log "b2."));
  Alcotest.(check string) "interleaving" "a1.b1.a2.b2." (Buffer.contents log)

let test_virtual_clock () =
  let times = ref [] in
  Sched.run (fun () ->
      Sched.spawn (fun () ->
          Sched.sleep 2.0;
          times := ("late", Sched.now ()) :: !times);
      Sched.spawn (fun () ->
          Sched.sleep 1.0;
          times := ("early", Sched.now ()) :: !times));
  match List.rev !times with
  | [ ("early", t1); ("late", t2) ] ->
    check_float "first wake" 1.0 t1;
    check_float "second wake" 2.0 t2
  | _ -> Alcotest.fail "expected two wakeups in virtual-time order"

let test_sleep_is_virtual () =
  (* A large virtual sleep must not take real time. *)
  let t0 = Unix.gettimeofday () in
  Sched.run (fun () -> Sched.sleep 1_000_000.0);
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "virtual sleep is instantaneous" true (elapsed < 1.0)

let test_same_instant_fifo () =
  let log = ref [] in
  Sched.run (fun () ->
      Sched.spawn (fun () ->
          Sched.sleep 1.0;
          log := "first" :: !log);
      Sched.spawn (fun () ->
          Sched.sleep 1.0;
          log := "second" :: !log));
  Alcotest.(check (list string))
    "same-instant timers keep FIFO order" [ "first"; "second" ]
    (List.rev !log)

let test_now_outside_run () =
  (* The clock persists after a run, reporting the final virtual time. *)
  Sched.run (fun () -> Sched.sleep 5.0);
  check_float "clock keeps final time" 5.0 (Sched.now ())

let test_not_running () =
  check_bool "not running" false (Sched.running ());
  Alcotest.check_raises "sleep outside run" Sched.Not_running (fun () ->
      Sched.sleep 1.0)

let test_exception_propagates () =
  Alcotest.check_raises "thread exception escapes run" Exit (fun () ->
      Sched.run (fun () -> Sched.spawn (fun () -> raise Exit)))

let test_max_switches () =
  Alcotest.check_raises "livelock detected"
    (Sched.Stuck "exceeded 10 context switches") (fun () ->
      Sched.run ~max_switches:10 (fun () ->
          let rec spin () =
            Sched.yield ();
            spin ()
          in
          spin ()))

let test_run_counts () =
  Sched.run (fun () ->
      Sched.spawn (fun () -> ());
      Sched.spawn (fun () -> ()));
  (* main + 2 spawns *)
  check_int "spawned" 3 (Sched.spawned_count ());
  check_bool "switches counted" true (Sched.switch_count () >= 3)

let test_blocked_threads_dropped () =
  (* A thread blocked forever on a mailbox does not prevent quiescence. *)
  let mb = Mailbox.create () in
  Sched.run (fun () -> Sched.spawn (fun () -> ignore (Mailbox.recv mb)));
  check_bool "run returned" true true

let test_run_value_stuck () =
  (* The main thread parked on an unnamed mailbox is still accounted for:
     it shows up as an <anonymous> waiter instead of vanishing. *)
  let mb = Mailbox.create () in
  Alcotest.check_raises "stuck main detected"
    (Sched.Stuck
       "main thread blocked forever; 1 thread(s) still waiting: <anonymous>")
    (fun () -> ignore (Sched.run_value (fun () -> Mailbox.recv mb)))

let test_run_value_stuck_names_sites () =
  (* With named channels, the Stuck message says who is blocked where
     instead of just "blocked forever". *)
  let got = ref "" in
  (try
     ignore
       (Sched.run_value (fun () ->
            let lonely = Mailbox.create ~name:"lonely" () in
            Sched.spawn (fun () ->
                ignore (Mailbox.recv (Mailbox.create ~name:"orphan" ())));
            Mailbox.recv lonely))
   with Sched.Stuck msg -> got := msg);
  let contains needle haystack =
    let n = String.length needle in
    let h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "mentions blocking" true (contains "blocked forever" !got);
  check_bool "names main's wait site" true (contains "recv lonely" !got);
  check_bool "names the spawned thread's wait site" true
    (contains "recv orphan" !got)

let test_anonymous_blocked_counted () =
  (* Threads parked on unnamed channels must not vanish from the report. *)
  let got = ref "" in
  (try
     ignore
       (Sched.run_value (fun () ->
            let named = Mailbox.create ~name:"named" () in
            Sched.spawn (fun () -> ignore (Mailbox.recv (Mailbox.create ())));
            Sched.spawn (fun () -> ignore (Mailbox.recv (Mailbox.create ())));
            Mailbox.recv named))
   with Sched.Stuck msg -> got := msg);
  let sites = Sched.blocked_sites () in
  check_int "three waiters listed" 3 (List.length sites);
  check_int "two anonymous" 2
    (List.length (List.filter (( = ) "<anonymous>") sites));
  check_bool "report counts all three" true
    (let contains needle haystack =
       let n = String.length needle in
       let h = String.length haystack in
       let rec go i =
         i + n <= h && (String.sub haystack i n = needle || go (i + 1))
       in
       go 0
     in
     contains "3 thread(s) still waiting" !got
     && contains "<anonymous>" !got)

(* ------------------------------------------------------------------ *)
(* Scheduler policies *)

(* A little racy workload: several threads interleave appends to a log via
   yields; the final order is a fingerprint of the schedule. *)
let policy_fingerprint policy =
  let log = Buffer.create 64 in
  Sched.run ~policy (fun () ->
      for t = 1 to 4 do
        Sched.spawn (fun () ->
            for i = 1 to 3 do
              Buffer.add_string log (Printf.sprintf "%d.%d;" t i);
              Sched.yield ()
            done)
      done);
  Buffer.contents log

let test_policy_default_is_fifo () =
  (* No policy and an explicit Fifo must coincide, and Fifo records no
     decision log (its decisions are implied). *)
  let a = policy_fingerprint Sched.Fifo in
  let log = Buffer.create 64 in
  Sched.run (fun () ->
      for t = 1 to 4 do
        Sched.spawn (fun () ->
            for i = 1 to 3 do
              Buffer.add_string log (Printf.sprintf "%d.%d;" t i);
              Sched.yield ()
            done)
      done);
  Alcotest.(check string) "default = Fifo" a (Buffer.contents log);
  check_ints "fifo decision log empty" [] (Sched.decision_log ())

let test_seeded_random_deterministic () =
  let a = policy_fingerprint (Sched.Seeded_random 42) in
  let log_a = Sched.decision_log () in
  let b = policy_fingerprint (Sched.Seeded_random 42) in
  let log_b = Sched.decision_log () in
  Alcotest.(check string) "same seed, same schedule" a b;
  check_ints "same seed, same decision log" log_a log_b;
  check_bool "log non-trivial" true (List.exists (fun i -> i > 0) log_a);
  let c = policy_fingerprint (Sched.Seeded_random 43) in
  check_bool "different seed explores a different interleaving" true (a <> c)

let test_pct_deterministic () =
  let a = policy_fingerprint (Sched.Pct { seed = 7; depth = 3 }) in
  let b = policy_fingerprint (Sched.Pct { seed = 7; depth = 3 }) in
  Alcotest.(check string) "same seed, same schedule" a b;
  check_bool "pct differs from fifo on a racy workload" true
    (a <> policy_fingerprint Sched.Fifo)

let test_replay_reproduces () =
  let chaotic = policy_fingerprint (Sched.Seeded_random 99) in
  let log = Sched.decision_log () in
  let replayed = policy_fingerprint (Sched.Replay log) in
  Alcotest.(check string) "replaying the decision log reproduces" chaotic
    replayed;
  (* A truncated log replays its prefix and continues FIFO: still a valid
     run (same multiset of appends), just a different order. *)
  let prefix = List.filteri (fun i _ -> i < 3) log in
  let partial = policy_fingerprint (Sched.Replay prefix) in
  let sorted s = List.sort compare (String.split_on_char ';' s) in
  check_bool "prefix replay preserves the work" true
    (sorted partial = sorted chaotic)

let test_policy_virtual_time_independent () =
  (* Timers fire at the same virtual instants whatever the policy. *)
  let times policy =
    let log = ref [] in
    Sched.run ~policy (fun () ->
        for t = 1 to 3 do
          Sched.spawn (fun () ->
              Sched.sleep (float_of_int t);
              log := (t, Sched.now ()) :: !log)
        done);
    List.rev !log
  in
  let reference = times Sched.Fifo in
  List.iter
    (fun p ->
      Alcotest.(check (list (pair int (float 1e-9))))
        "virtual wakeups schedule-independent" reference (times p))
    [ Sched.Seeded_random 5; Sched.Pct { seed = 5; depth = 2 } ]

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_buffering () =
  let out =
    Sched.run_value (fun () ->
        let mb = Mailbox.create () in
        Mailbox.send mb 1;
        Mailbox.send mb 2;
        Mailbox.send mb 3;
        let a = Mailbox.recv mb in
        let b = Mailbox.recv mb in
        let c = Mailbox.recv mb in
        [ a; b; c ])
  in
  check_ints "FIFO buffer" [ 1; 2; 3 ] out

let test_mailbox_blocking_recv () =
  let got = ref None in
  Sched.run (fun () ->
      let mb = Mailbox.create () in
      Sched.spawn (fun () -> got := Some (Mailbox.recv mb));
      Sched.spawn (fun () -> Mailbox.send mb 99));
  check_int "blocked recv woken" 99 (Option.get !got)

let test_mailbox_multiple_readers_fifo () =
  let log = ref [] in
  Sched.run (fun () ->
      let mb = Mailbox.create () in
      let reader tag =
        Sched.spawn (fun () ->
            let v = Mailbox.recv mb in
            log := (tag, v) :: !log)
      in
      reader "r1";
      reader "r2";
      Sched.spawn (fun () ->
          Mailbox.send mb 1;
          Mailbox.send mb 2));
  Alcotest.(check (list (pair string int)))
    "readers served in arrival order"
    [ ("r1", 1); ("r2", 2) ]
    (List.rev !log)

let test_mailbox_recv_opt () =
  Sched.run (fun () ->
      let mb = Mailbox.create () in
      check_bool "empty" true (Mailbox.recv_opt mb = None);
      Mailbox.send mb 7;
      check_int "length" 1 (Mailbox.length mb);
      check_bool "nonempty" true (Mailbox.recv_opt mb = Some 7))

(* ------------------------------------------------------------------ *)
(* Chan *)

let test_chan_rendezvous () =
  let log = ref [] in
  Sched.run (fun () ->
      let ch = Chan.create () in
      Sched.spawn (fun () ->
          log := "sending" :: !log;
          Chan.send ch 5;
          log := "sent" :: !log);
      Sched.spawn (fun () ->
          let v = Chan.recv ch in
          log := Printf.sprintf "received %d" v :: !log));
  Alcotest.(check (list string))
    "send blocks until recv"
    [ "sending"; "received 5"; "sent" ]
    (List.rev !log)

let test_chan_recv_first () =
  let got = ref 0 in
  Sched.run (fun () ->
      let ch = Chan.create () in
      Sched.spawn (fun () -> got := Chan.recv ch);
      Sched.spawn (fun () -> Chan.send ch 11));
  check_int "recv-then-send" 11 !got

let test_chan_select () =
  let got = ref 0 in
  Sched.run (fun () ->
      let c1 = Chan.create () in
      let c2 = Chan.create () in
      Sched.spawn (fun () -> got := Chan.select_recv [ c1; c2 ]);
      Sched.spawn (fun () -> Chan.send c2 22));
  check_int "select picks ready channel" 22 !got

let test_chan_select_leaves_losers () =
  (* After a select_recv completes via c2, a later send on c1 must still be
     receivable by someone else (the dead waiter is skipped). *)
  let first = ref 0 in
  let second = ref 0 in
  Sched.run (fun () ->
      let c1 = Chan.create () in
      let c2 = Chan.create () in
      Sched.spawn (fun () -> first := Chan.select_recv [ c1; c2 ]);
      Sched.spawn (fun () -> Chan.send c2 1);
      Sched.spawn (fun () -> second := Chan.recv c1);
      Sched.spawn (fun () -> Chan.send c1 2));
  check_int "select got c2" 1 !first;
  check_int "later recv got c1" 2 !second

(* ------------------------------------------------------------------ *)
(* Multicast *)

let test_multicast_all_ports () =
  let r1 = ref [] in
  let r2 = ref [] in
  Sched.run (fun () ->
      let mc = Multicast.create () in
      let p1 = Multicast.port mc in
      let p2 = Multicast.port mc in
      let drain port cell =
        Sched.spawn (fun () ->
            let a = Multicast.recv port in
            let b = Multicast.recv port in
            cell := [ a; b ])
      in
      drain p1 r1;
      drain p2 r2;
      Multicast.send mc 1;
      Multicast.send mc 2);
  check_ints "port 1 sees all" [ 1; 2 ] !r1;
  check_ints "port 2 sees all" [ 1; 2 ] !r2

let test_multicast_late_port () =
  let late = ref [] in
  Sched.run (fun () ->
      let mc = Multicast.create () in
      let _early = Multicast.port mc in
      Multicast.send mc 1;
      let p = Multicast.port mc in
      Multicast.send mc 2;
      late := [ Multicast.recv p ]);
  check_ints "late port misses earlier sends" [ 2 ] !late;
  ()

let prop_pqueue_merge_contains_all =
  QCheck.Test.make ~name:"merge drains both queues" ~count:100
    QCheck.(pair (list small_int) (list small_int))
    (fun (xs, ys) ->
      let mk zs = Pqueue.of_list ~compare:Int.compare (List.map (fun z -> (z, ())) zs) in
      let merged = Pqueue.merge (mk xs) (mk ys) in
      List.map fst (Pqueue.to_sorted_list merged)
      = List.sort Int.compare (xs @ ys))

let test_port_length_counts_buffer () =
  Sched.run (fun () ->
      let mc = Multicast.create () in
      let p = Multicast.port mc in
      Multicast.send mc 1;
      Multicast.send mc 2;
      check_int "two buffered" 2 (Multicast.port_length p);
      ignore (Multicast.recv p);
      check_int "one left" 1 (Multicast.port_length p))

let test_multicast_port_count () =
  let mc = Multicast.create () in
  check_int "no ports" 0 (Multicast.port_count mc);
  let _p1 = Multicast.port mc in
  let _p2 = Multicast.port mc in
  check_int "two ports" 2 (Multicast.port_count mc)

(* Producer/consumer pipeline through mailboxes: end-to-end determinism. *)
let test_pipeline_determinism () =
  let run_once () =
    let log = ref [] in
    Sched.run (fun () ->
        let a = Mailbox.create () in
        let b = Mailbox.create () in
        Sched.spawn (fun () ->
            for i = 1 to 5 do
              Mailbox.send a i;
              Sched.sleep 0.1
            done);
        Sched.spawn (fun () ->
            let rec loop n =
              if n > 0 then begin
                let v = Mailbox.recv a in
                Mailbox.send b (v * 10);
                loop (n - 1)
              end
            in
            loop 5);
        Sched.spawn (fun () ->
            let rec loop n =
              if n > 0 then begin
                log := (Sched.now (), Mailbox.recv b) :: !log;
                loop (n - 1)
              end
            in
            loop 5));
    List.rev !log
  in
  let first = run_once () in
  let second = run_once () in
  check_bool "two runs identical" true (first = second);
  check_ints "values in order" [ 10; 20; 30; 40; 50 ] (List.map snd first)

(* [run] claims the process-wide scheduler atomically: two domains
   running a small pipelined FElm program over and over each get either
   [Already_running] or exactly the program's solo result, never a run
   the other domain's reset corrupted, and both finish their runs. *)
let counter_program () =
  Sched.run_value ~max_switches:100_000 (fun () ->
      let x = Elm_core.Signal.input ~name:"x" 0 in
      let root =
        Elm_core.Signal.foldp ( + ) 0 (Elm_core.Signal.lift (fun v -> v * 10) x)
      in
      let rt = Elm_core.Runtime.start root in
      for v = 1 to 5 do
        Elm_core.Runtime.inject rt x v;
        Sched.sleep 0.1
      done;
      Elm_core.Runtime.changes rt)

(* ------------------------------------------------------------------ *)
(* Offload: real work on the run's helper domain *)

(* Spin on the wall clock for [s] seconds: real CPU, no virtual time. *)
let burn s =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < s do
    ()
  done

let test_offload_result_and_exception () =
  check_int "the result reaches the caller" 42
    (Sched.run_value (fun () -> Sched.offload (fun () -> 6 * 7)));
  match Sched.run (fun () -> ignore (Sched.offload (fun () -> failwith "boom"))) with
  | () -> Alcotest.fail "the offloaded exception was lost"
  | exception Failure m -> Alcotest.(check string) "the exception too" "boom" m

(* The main thread returns at once; the run still waits for the offload,
   and the pending timer does not move the clock while it is out. *)
let test_offload_holds_run_and_clock () =
  let got = ref None and at = ref (-1.0) in
  Sched.run (fun () ->
      Sched.spawn (fun () -> Sched.sleep 1.0);
      Sched.spawn (fun () ->
          let v =
            Sched.offload (fun () ->
                burn 0.005;
                7)
          in
          at := Sched.now ();
          got := Some v));
  check_bool "the run waited for the offload" true (!got = Some 7);
  check_float "no virtual time passed during the offload" 0.0 !at;
  check_float "the timer fired after it" 1.0 (Sched.now ());
  check_int "one offload counted" 1 (Sched.offload_count ())

let test_offload_runs_in_a_row () =
  for i = 1 to 50 do
    check_int "each run joins its helper" i
      (Sched.run_value (fun () -> Sched.offload (fun () -> i)))
  done;
  check_int "a run without offloads counts none" 0
    (Sched.run_value (fun () -> Sched.offload_count ()))

(* A Cml operation on the helper would race the scheduler, so it first
   moves the rest of the offloaded function to the run's domain, where
   the caller finishes it inline: a sleep suspends the caller for virtual
   time while other threads run, a mailbox send reaches its reader, and
   an exception raised after the move still reaches the caller. *)
let test_offload_moves_cml_calls_home () =
  let domain () = (Domain.self () :> int) in
  let main = domain () in
  List.iter
    (fun (name, call, clock) ->
      let before = ref main and after = ref (-1) and others = ref 0 in
      Sched.run (fun () ->
          Sched.spawn (fun () ->
              for _ = 1 to 3 do
                incr others;
                Sched.yield ()
              done);
          Sched.offload (fun () ->
              before := domain ();
              call ();
              after := domain ()));
      if Domain.recommended_domain_count () > 1 || !before <> main then
        check_bool (name ^ ": began on the helper") true (!before <> main);
      check_int (name ^ ": finished on the run's domain") main !after;
      check_int (name ^ ": the other thread ran to its end") 3 !others;
      check_float (name ^ ": the clock") clock (Sched.now ()))
    [
      ("spawn", (fun () -> Sched.spawn ignore), 0.0);
      ("yield", Sched.yield, 0.0);
      ("sleep", (fun () -> Sched.sleep 1.0), 1.0);
      ("offload", (fun () -> Sched.offload ignore), 0.0);
    ];
  let got =
    Sched.run_value (fun () ->
        let mb = Mailbox.create () in
        Sched.spawn (fun () -> Sched.offload (fun () -> Mailbox.send mb 9));
        Mailbox.recv mb)
  in
  check_int "a mailbox send from the helper reaches its reader" 9 got;
  (match
     Sched.run (fun () ->
         Sched.offload (fun () ->
             Sched.sleep 1.0;
             failwith "late"))
   with
  | () -> Alcotest.fail "the exception raised after the move was lost"
  | exception Failure m ->
    Alcotest.(check string) "an exception after the move reaches the caller" "late" m);
  check_int "the next run is clean" 3 (Sched.run_value (fun () -> 3));
  check_int "and spawned only its main thread" 1 (Sched.spawned_count ())

let test_run_claim_across_domains () =
  let solo = counter_program () in
  let rounds = 300 in
  let arrived = Atomic.make 0 and failed = Atomic.make false in
  let attempt () =
    match counter_program () with
    | changes -> changes = solo || failwith "a run differs from its solo run"
    | exception Sched.Already_running -> false
  in
  (* Both domains start each round together, so their attempts overlap;
     then each retries until it has completed at least one run. A failing
     domain releases the other from the round barrier. *)
  let domain () =
    let completed = ref 0 in
    try
      for round = 1 to rounds do
        Atomic.incr arrived;
        while Atomic.get arrived < 2 * round && not (Atomic.get failed) do
          Domain.cpu_relax ()
        done;
        if attempt () then incr completed
      done;
      while !completed = 0 do
        if attempt () then incr completed else Domain.cpu_relax ()
      done;
      !completed
    with e ->
      Atomic.set failed true;
      raise e
  in
  let d1 = Domain.spawn domain in
  let d2 = Domain.spawn domain in
  let c1 = Domain.join d1 and c2 = Domain.join d2 in
  check_bool "each domain completed a run" true (c1 > 0 && c2 > 0);
  check_bool "solo run saw every event" true (List.length solo = 5)

let prop_scheduler_deterministic =
  QCheck.Test.make ~name:"scheduler deterministic under random sleeps"
    ~count:50
    QCheck.(list_of_size Gen.(1 -- 10) (pair (float_bound_exclusive 5.0) small_int))
    (fun jobs ->
      let run_once () =
        let log = ref [] in
        Sched.run (fun () ->
            List.iter
              (fun (d, v) ->
                Sched.spawn (fun () ->
                    Sched.sleep d;
                    log := v :: !log))
              jobs);
        List.rev !log
      in
      run_once () = run_once ())

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "cml"
    [
      ( "pqueue",
        [
          tc "basic" `Quick test_pqueue_basic;
          tc "sorted drain" `Quick test_pqueue_sorted;
          tc "merge" `Quick test_pqueue_merge;
          qt prop_pqueue_sorts;
          qt prop_pqueue_min_is_minimum;
        ] );
      ( "scheduler",
        [
          tc "run_value" `Quick test_run_value;
          tc "spawn FIFO" `Quick test_spawn_fifo;
          tc "yield interleaves" `Quick test_yield_interleaves;
          tc "virtual clock" `Quick test_virtual_clock;
          tc "sleep is virtual" `Quick test_sleep_is_virtual;
          tc "same-instant timers FIFO" `Quick test_same_instant_fifo;
          tc "now outside run" `Quick test_now_outside_run;
          tc "not running" `Quick test_not_running;
          tc "exceptions propagate" `Quick test_exception_propagates;
          tc "max switches" `Quick test_max_switches;
          tc "counters" `Quick test_run_counts;
          tc "blocked threads dropped" `Quick test_blocked_threads_dropped;
          tc "stuck main" `Quick test_run_value_stuck;
          tc "stuck main names sites" `Quick test_run_value_stuck_names_sites;
          tc "anonymous waiters counted" `Quick test_anonymous_blocked_counted;
          tc "run claimed atomically across domains" `Quick
            test_run_claim_across_domains;
          tc "offload: result and exception reach the caller" `Quick
            test_offload_result_and_exception;
          tc "offload: the run waits, the clock does not move" `Quick
            test_offload_holds_run_and_clock;
          tc "offload: 50 runs in a row each join their helper" `Quick
            test_offload_runs_in_a_row;
          tc "offload: Cml calls from the helper move it home" `Quick
            test_offload_moves_cml_calls_home;
          qt prop_scheduler_deterministic;
        ] );
      ( "policy",
        [
          tc "default is FIFO" `Quick test_policy_default_is_fifo;
          tc "seeded random deterministic" `Quick
            test_seeded_random_deterministic;
          tc "pct deterministic" `Quick test_pct_deterministic;
          tc "replay reproduces" `Quick test_replay_reproduces;
          tc "virtual time policy-independent" `Quick
            test_policy_virtual_time_independent;
        ] );
      ( "mailbox",
        [
          tc "buffering FIFO" `Quick test_mailbox_buffering;
          tc "blocking recv" `Quick test_mailbox_blocking_recv;
          tc "readers FIFO" `Quick test_mailbox_multiple_readers_fifo;
          tc "recv_opt/length" `Quick test_mailbox_recv_opt;
        ] );
      ( "chan",
        [
          tc "rendezvous" `Quick test_chan_rendezvous;
          tc "recv first" `Quick test_chan_recv_first;
          tc "select" `Quick test_chan_select;
          tc "select leaves losers" `Quick test_chan_select_leaves_losers;
        ] );
      ( "multicast",
        [
          tc "all ports" `Quick test_multicast_all_ports;
          tc "late port" `Quick test_multicast_late_port;
          tc "port count" `Quick test_multicast_port_count;
          tc "port length" `Quick test_port_length_counts_buffer;
          qt prop_pqueue_merge_contains_all;
          tc "pipeline determinism" `Quick test_pipeline_determinism;
        ] );
    ]
