(* Shared random signal-graph generator for the property-test suites.

   One catalogue of graph shapes over two int inputs, covering every node
   kind the runtime treats specially — deep pure chains (the fusion sweet
   spot), drop_repeats mid-chain, shared subgraphs, foldp barriers,
   constants absorbed into lift2, merge (with and without both sides
   changing on one event), sample_on, unary lift_list, a keep_when whose
   gate closes and reopens, plus the async/delay boundary shapes.
   test_fuse (fused-vs-unfused), test_runtime (cone-vs-flood) and
   test_robustness (supervision under chaos schedules) all draw from it,
   so a new node kind added here is exercised by every equivalence
   property at once.

   Shapes [0, deterministic_count) have schedule-independent change
   traces, so they may be compared across scheduler policies bit-for-bit:
   the async-free ones, and the delay shape, whose equal-due wakes leave
   in (due, epoch, node) order. The remaining shape crosses an async
   boundary, where only per-source ordering is promised (see DESIGN.md).

   [with_world] honours FELM_SCHED_SEED / FELM_SCHED_PCT, which is how the
   replay seed printed by a Check.Explore violation reaches this suite. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Event = Elm_core.Event

(* Run [body] inside a scheduler, let everything settle, return its result.
   The policy defaults to the environment's (FIFO when unset). *)
let with_world ?policy body =
  let policy =
    match policy with Some p -> p | None -> (
      match Elm_check.Explore.policy_of_env () with
      | Some p -> p
      | None -> Cml.Scheduler.Fifo)
  in
  let result = ref None in
  Cml.run ~policy (fun () -> result := Some (body ()));
  Option.get !result

let values rt = List.map snd (Runtime.changes rt)

(* An injective, virtual-time-free chain of [n] named lifts. *)
let rec chain k n s =
  if n = 0 then s
  else
    chain k (n - 1)
      (Signal.lift ~name:(Printf.sprintf "f%d.%d" k n) (fun x -> (x * k) + n) s)

let comb x y = (x * 31) + y

let shape_count = 14
let deterministic_count = 13
let shape_deterministic shape = shape mod shape_count < deterministic_count

let build_shape shape =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let s =
    match shape mod shape_count with
    | 0 ->
      (* the minimal two-input join *)
      Signal.lift2 ( + ) a b
    | 1 ->
      (* one deep pure chain (the fusion sweet spot) beside a short one *)
      Signal.lift2 comb (chain 3 12 a) (chain 5 1 b)
    | 2 ->
      (* drop_repeats fused mid-chain: exercises the stateful None path *)
      Signal.lift2 comb
        (chain 2 3 (Signal.drop_repeats (Signal.lift (fun x -> x / 4) a)))
        (chain 3 1 b)
    | 3 ->
      (* shared subgraph: [shared] has two subscribers and is a barrier *)
      let shared = Signal.lift ~name:"shared" (fun x -> x * x) a in
      Signal.lift2 comb
        (Signal.lift2 comb (chain 7 2 shared) (chain 11 3 shared))
        (chain 2 1 b)
    | 4 ->
      (* foldp barrier with fusable chains below and above *)
      Signal.lift2 comb
        (chain 5 2 (Signal.foldp ( + ) 0 (chain 3 3 a)))
        (chain 2 1 b)
    | 5 ->
      (* the bare stateful join *)
      Signal.foldp ( + ) 0 (Signal.lift2 ( + ) a b)
    | 6 ->
      (* constant absorbed into a lift2 mid-chain *)
      Signal.lift2 comb
        (chain 2 2 (Signal.lift2 comb (chain 3 2 a) (Signal.constant 7)))
        (chain 2 1 b)
    | 7 -> Signal.merge (chain 2 3 a) (chain 3 3 b)
    | 8 -> Signal.sample_on a (chain 2 3 b)
    | 9 ->
      (* unary lift_list (the shape every felm-interpreted lift has) over a
         drop_repeats + foldp pair *)
      Signal.lift2 comb
        (Signal.lift_list (List.fold_left ( + ) 1)
           [ Signal.drop_repeats (Signal.lift2 ( + ) a b) ])
        (Signal.foldp ( + ) 0 (chain 2 2 a))
    | 10 ->
      (* timer boundary *)
      Signal.lift2 comb (Signal.count a) (Signal.delay 1.0 (chain 2 2 b))
    | 11 ->
      (* keep_when gated on [a]'s parity: [b]'s changes pass while it is
         even, and an [a] event that reopens it resyncs to [b]'s latest *)
      Signal.lift2 comb
        (Signal.keep_when (Signal.lift (fun x -> x mod 2 = 0) a) (-1)
           (chain 2 2 b))
        (Signal.count a)
    | 12 ->
      (* merge whose sides both change on every [a] event: left wins *)
      Signal.merge (chain 2 2 a) (Signal.lift2 comb a b)
    | _ ->
      (* async boundary: the inner chain fuses, the boundary survives *)
      Signal.lift2 comb (chain 3 2 a) (Signal.async (chain 2 4 b))
  in
  (a, b, s)

let run_shape ?(backend : Runtime.backend = Runtime.Pipelined)
    ?(fuse = true) ?(mode = Runtime.Pipelined) ?(dispatch = Runtime.Cone)
    ?policy ?on_node_error ?queue_capacity ?domains ?pool shape events =
  let rt =
    with_world ?policy (fun () ->
        let a, b, s = build_shape shape in
        let rt =
          Runtime.start ~backend ~fuse ~mode ~dispatch ?on_node_error
            ?queue_capacity ?domains ?pool s
        in
        List.iter
          (fun (left, v) -> Runtime.inject rt (if left then a else b) v)
          events;
        rt)
  in
  (* Release any runtime-owned domain pool (and run std-lib stop hooks);
     the change log stays readable after stop. *)
  Runtime.stop rt;
  rt

let entry_equal (t1, m1) (t2, m2) = t1 = t2 && Event.equal ( = ) m1 m2

let rec is_subseq eq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
    if eq x y then is_subseq eq xs' ys' else is_subseq eq xs ys'

let all_combos =
  [
    (Runtime.Pipelined, Runtime.Flood);
    (Runtime.Pipelined, Runtime.Cone);
    (Runtime.Sequential, Runtime.Flood);
    (Runtime.Sequential, Runtime.Cone);
  ]

(* QCheck generators: a shape index and an event list (which input, value).
   Values stay small so drop_repeats arms actually see repeats. *)
let arb_shape_events =
  QCheck.(pair (int_bound (shape_count - 1)) (list (pair bool (int_bound 7))))

let arb_deterministic_shape_events =
  QCheck.(
    pair (int_bound (deterministic_count - 1)) (list (pair bool (int_bound 7))))

(* ------------------------------------------------------------------ *)
(* Replay-differential upgrade harness (serve layer).

   Record a trace, split the event stream, upgrade the live dispatcher to
   a freshly rebuilt graph at the split, replay the suffix: the serve
   drains are deterministic (parallel drains are bit-identical to
   sequential — the B18/B19 oracles), so for an identity upgrade the
   resulting trace must equal the never-upgraded run's at EVERY split
   point, every [quiesce] style and every domain count. test_upgrade
   drives this over the whole shape catalogue; the serve layer is
   synchronous, so even the async/delay shapes compare bit-for-bit. *)

module Serve_dispatcher = Elm_serve.Dispatcher
module Serve_session = Elm_serve.Session
module Serve_pool = Elm_core.Pool

(* Run [shape]'s graph through a dispatcher, upgrading to a freshly
   rebuilt graph before event [k = upgrade_at mod (n+1)] ([quiesce]
   selects whether the prefix drains first or stays queued across the
   upgrade; [apply:false] performs the same split and drain pattern but
   skips the upgrade itself — the replay-differential reference, since an
   interior drain already reorders delay/async deliveries relative to the
   single-drain run). Returns the change trace, the session, the
   dispatcher and the applied patch. The dispatcher runs its default
   (fused) plans. *)
let serve_upgrade_run ?pool ?(quiesce = true) ?migrate ?mutate ?(apply = true)
    ~upgrade_at shape events =
  let a, b, root = build_shape shape in
  let d = Serve_dispatcher.create ?pool root in
  let drain () = ignore (Serve_dispatcher.drain d) in
  let s = Serve_dispatcher.open_session d in
  let evs = Array.of_list events in
  let n = Array.length evs in
  let inject a b lo hi =
    for j = lo to hi - 1 do
      let left, v = evs.(j) in
      Serve_dispatcher.inject d s (if left then a else b) v
    done
  in
  let k = if n = 0 then 0 else upgrade_at mod (n + 1) in
  inject a b 0 k;
  if quiesce then drain ();
  (* Post-upgrade injections must target the *new* graph's inputs: the old
     signal ids are not in the new plan. *)
  let patch =
    if apply then begin
      let a', b', root' = build_shape shape in
      let patch = Serve_dispatcher.upgrade_all ?migrate ?mutate d root' in
      inject a' b' k n;
      Some patch
    end
    else begin
      inject a b k n;
      None
    end
  in
  drain ();
  (Serve_session.changes s, s, d, patch)

(* Shape, events, split point and quiesce style for the identity-upgrade
   property. *)
let arb_upgrade_case =
  QCheck.(
    quad
      (int_bound (shape_count - 1))
      (list (pair bool (int_bound 7)))
      small_nat bool)
