module Runtime = Elm_core.Runtime
module Signal = Elm_core.Signal
module Stats = Elm_core.Stats
module Sched = Cml.Scheduler

type 'a session = {
  root : 'a Signal.t;
  drive : 'a Runtime.t -> unit;
}

type 'a program = {
  p_name : string;
  p_deterministic : bool;
  p_classify : ('a -> int option) option;
  p_show : 'a -> string;
  p_build : unit -> 'a session;
}

let program ~name ?(deterministic = true) ?classify ~show build =
  {
    p_name = name;
    p_deterministic = deterministic;
    p_classify = classify;
    p_show = show;
    p_build = build;
  }

type invariant =
  | Trace_equal
  | Per_source_order
  | Node_epoch_order
  | Accounting
  | No_deadlock

type violation = {
  v_invariant : invariant;
  v_policy : Sched.policy;
  v_detail : string;
  v_decisions : int list;
}

type report = {
  r_program : string;
  r_schedules : int;
  r_violations : violation list;
}

let ok r = r.r_violations = []

let invariant_name = function
  | Trace_equal -> "trace-equal"
  | Per_source_order -> "per-source-order"
  | Node_epoch_order -> "node-epoch-order"
  | Accounting -> "accounting"
  | No_deadlock -> "no-deadlock"

let pp_policy ppf = function
  | Sched.Fifo -> Format.fprintf ppf "fifo"
  | Sched.Seeded_random s -> Format.fprintf ppf "random:%d" s
  | Sched.Pct { seed; depth } -> Format.fprintf ppf "pct:%d:%d" seed depth
  | Sched.Replay l -> Format.fprintf ppf "replay:%d decisions" (List.length l)

let replay_hint v =
  match v.v_policy with
  | Sched.Fifo ->
    "reproducible under the default FIFO schedule (no seed needed)"
  | Sched.Seeded_random s ->
    Printf.sprintf
      "replay: felmc run --sched-seed %d / FELM_SCHED_SEED=%d dune runtest" s s
  | Sched.Pct { seed; depth } ->
    Printf.sprintf
      "replay: felmc run --sched-pct %d:%d / FELM_SCHED_PCT=%d:%d dune runtest"
      seed depth seed depth
  | Sched.Replay _ -> "replay: feed the decision prefix back via Replay"

(* ------------------------------------------------------------------ *)
(* One observed execution, serialized so observations from different
   instantiations of the same program are comparable. *)

type obs = {
  ob_changes : (float * string) list;
  ob_classes : (int * string list) list;  (* classify projections, sorted *)
  ob_events : int;
  ob_messages : int;
  ob_elided : int;
  ob_failures : int;
  ob_nodes : int;
  ob_epochs : (int * int list) list;  (* node id -> stamped epochs, sorted *)
}

type outcome =
  | Done of obs
  | Crashed of string

type opts = {
  o_backend : Runtime.backend;
  o_mode : Runtime.mode;
  o_dispatch : Runtime.dispatch option;
  o_fuse : bool;
  o_on_node_error : Runtime.error_policy;
  o_queue_capacity : int option;
  o_max_switches : int;
  o_mutate : Runtime.mutation option;
  o_domains : int option;
      (* wave placement on a domain pool (compiled backend): the Domains
         exploration axis — traces must not depend on the domain count *)
}

let run_once (type a) (p : a program) opts policy : outcome * int list =
  let epochs : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let observer ~node ~epoch ~changed:_ =
    match Hashtbl.find_opt epochs node with
    | Some l -> l := epoch :: !l
    | None -> Hashtbl.add epochs node (ref [ epoch ])
  in
  let rt_box = ref None in
  let stop_rt () =
    (* Release the runtime-owned domain pool (if [o_domains] made one):
       the explorer starts hundreds of runtimes, so leaking worker domains
       is not an option. Safe outside [Cml.run]; the change log and
       counters stay readable after stop. *)
    match !rt_box with
    | Some rt -> Runtime.stop rt
    | None -> ()
  in
  let outcome =
    try
      Sched.run ~policy ~max_switches:opts.o_max_switches (fun () ->
          let s = p.p_build () in
          let rt =
            Runtime.start ~backend:opts.o_backend ~mode:opts.o_mode
              ?dispatch:opts.o_dispatch
              ~fuse:opts.o_fuse ~on_node_error:opts.o_on_node_error
              ?queue_capacity:opts.o_queue_capacity ~observer
              ?mutate:opts.o_mutate ?domains:opts.o_domains s.root
          in
          rt_box := Some rt;
          s.drive rt);
      let rt = Option.get !rt_box in
      stop_rt ();
      let stats = Runtime.stats rt in
      let changes = Runtime.changes rt in
      let classes =
        match p.p_classify with
        | None -> []
        | Some classify ->
          let tbl : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun (_, v) ->
              match classify v with
              | None -> ()
              | Some c -> (
                let s = p.p_show v in
                match Hashtbl.find_opt tbl c with
                | Some l -> l := s :: !l
                | None -> Hashtbl.add tbl c (ref [ s ])))
            changes;
          Hashtbl.fold (fun c l acc -> (c, List.rev !l) :: acc) tbl []
          |> List.sort compare
      in
      Done
        {
          ob_changes = List.map (fun (t, v) -> (t, p.p_show v)) changes;
          ob_classes = classes;
          ob_events = stats.Stats.events;
          ob_messages = stats.Stats.messages;
          ob_elided = stats.Stats.elided_messages;
          ob_failures = stats.Stats.node_failures;
          ob_nodes = Runtime.node_count rt;
          ob_epochs =
            Hashtbl.fold (fun n l acc -> (n, List.rev !l) :: acc) epochs []
            |> List.sort compare;
        }
    with e ->
      stop_rt ();
      Crashed (Printexc.to_string e)
  in
  (outcome, Sched.decision_log ())

(* ------------------------------------------------------------------ *)
(* Invariant checking. Absolute checks hold for any single run; relative
   checks compare a chaos run to the FIFO reference. *)

let strictly_increasing l =
  let rec go = function
    | a :: (b :: _ as rest) -> a < b && go rest
    | _ -> true
  in
  go l

let check_absolute wanted obs =
  let vs = ref [] in
  let add inv detail = vs := (inv, detail) :: !vs in
  if List.mem Accounting wanted then begin
    let lhs = obs.ob_messages + obs.ob_elided in
    let rhs = obs.ob_nodes * obs.ob_events in
    if lhs <> rhs then
      add Accounting
        (Printf.sprintf
           "messages(%d) + elided(%d) = %d, expected nodes(%d) * events(%d) \
            = %d"
           obs.ob_messages obs.ob_elided lhs obs.ob_nodes obs.ob_events rhs)
  end;
  if List.mem Node_epoch_order wanted then
    List.iter
      (fun (node, epochs) ->
        if not (strictly_increasing epochs) then
          add Node_epoch_order
            (Printf.sprintf
               "node %d stamped epochs out of order: [%s]" node
               (String.concat "; " (List.map string_of_int epochs))))
      obs.ob_epochs;
  List.rev !vs

let check_relative p wanted ~reference obs =
  let vs = ref [] in
  let add inv detail = vs := (inv, detail) :: !vs in
  if List.mem No_deadlock wanted && obs.ob_events <> reference.ob_events then
    add No_deadlock
      (Printf.sprintf "processed %d events, reference processed %d"
         obs.ob_events reference.ob_events);
  if List.mem Trace_equal wanted && p.p_deterministic then begin
    if obs.ob_changes <> reference.ob_changes then
      add Trace_equal
        (Printf.sprintf
           "change trace diverged from FIFO reference (%d vs %d changes)"
           (List.length obs.ob_changes)
           (List.length reference.ob_changes))
    else if obs.ob_messages <> reference.ob_messages then
      add Trace_equal
        (Printf.sprintf "message count %d, reference %d" obs.ob_messages
           reference.ob_messages)
    else if obs.ob_failures <> reference.ob_failures then
      add Trace_equal
        (Printf.sprintf "node failures %d, reference %d" obs.ob_failures
           reference.ob_failures)
  end;
  (* Node ids are drawn from a global counter, so two builds of the same
     program get different absolute ids; sorted ascending they follow
     creation order, which IS stable across builds — compare positionally. *)
  if List.mem Node_epoch_order wanted && p.p_deterministic then
    if List.map snd obs.ob_epochs <> List.map snd reference.ob_epochs then
      add Node_epoch_order
        "per-node epoch sequences diverged from FIFO reference";
  if List.mem Per_source_order wanted && p.p_classify <> None then
    List.iter
      (fun (c, seq) ->
        let ref_seq =
          match List.assoc_opt c reference.ob_classes with
          | Some s -> s
          | None -> []
        in
        if seq <> ref_seq then
          add Per_source_order
            (Printf.sprintf
               "source class %d emitted [%s], reference [%s]" c
               (String.concat "; " seq)
               (String.concat "; " ref_seq)))
      obs.ob_classes;
  List.rev !vs

let check p wanted ~reference outcome =
  match (outcome, reference) with
  | Crashed msg, _ ->
    if List.mem No_deadlock wanted then
      [ (No_deadlock, Printf.sprintf "run did not complete: %s" msg) ]
    else []
  | Done obs, Some (Done ref_obs) ->
    check_absolute wanted obs @ check_relative p wanted ~reference:ref_obs obs
  | Done obs, (None | Some (Crashed _)) -> check_absolute wanted obs

(* ------------------------------------------------------------------ *)

let take n l = List.filteri (fun i _ -> i < n) l

(* Shrink a failing decision log to a minimal failing prefix: replaying a
   prefix runs those switches verbatim and continues in FIFO order. Prefix
   failure is monotone for every schedule-dependent bug we know how to
   plant, so a binary search suffices; if the midpoint probes disagree with
   monotonicity the full log is returned, which is always a valid failing
   schedule. *)
let shrink p opts wanted ~reference log =
  let violates k =
    let outcome, _ = run_once p opts (Sched.Replay (take k log)) in
    check p wanted ~reference outcome <> []
  in
  let len = List.length log in
  if violates 0 then []
  else begin
    let lo = ref 0 and hi = ref len in
    (* invariant: violates !hi, not (violates !lo) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if violates mid then hi := mid else lo := mid
    done;
    let prefix = take !hi log in
    if violates !hi then prefix else log
  end

let default_invariants p =
  [ No_deadlock; Accounting; Node_epoch_order ]
  @ (if p.p_deterministic then [ Trace_equal ] else [])
  @ match p.p_classify with Some _ -> [ Per_source_order ] | None -> []

let run ?(schedules = 50) ?(seed = 0) ?invariants
    ?(backend : Runtime.backend = Runtime.Pipelined)
    ?(mode = Runtime.Pipelined) ?dispatch ?(fuse = true)
    ?(on_node_error = Runtime.Propagate) ?queue_capacity
    ?(max_switches = 5_000_000) ?mutate ?domains p =
  if Sched.running () then
    invalid_arg "Explore.run: must be called outside Cml.run";
  (* Checked here rather than surfacing as a crash in every run. *)
  if
    backend = Runtime.Compiled
    && (mutate <> None || queue_capacity <> None
       || dispatch = Some Runtime.Flood)
  then
    invalid_arg
      "Explore.run: the compiled backend takes neither mutate, \
       queue_capacity nor dispatch:Flood";
  if domains <> None && backend = Runtime.Pipelined then
    invalid_arg "Explore.run: domains needs the compiled backend";
  let opts =
    {
      o_backend = backend;
      o_mode = mode;
      o_dispatch = dispatch;
      o_fuse = fuse;
      o_on_node_error = on_node_error;
      o_queue_capacity = queue_capacity;
      o_max_switches = max_switches;
      o_mutate = mutate;
      o_domains = domains;
    }
  in
  let wanted =
    match invariants with Some l -> l | None -> default_invariants p
  in
  let violations = ref [] in
  let record policy decisions found =
    List.iter
      (fun (inv, detail) ->
        violations :=
          {
            v_invariant = inv;
            v_policy = policy;
            v_detail = detail;
            v_decisions = decisions;
          }
          :: !violations)
      found
  in
  (* FIFO reference: checked against the absolute invariants only. *)
  let ref_outcome, _ = run_once p opts Sched.Fifo in
  record Sched.Fifo [] (check p wanted ~reference:None ref_outcome);
  let reference = Some ref_outcome in
  for i = 0 to schedules - 1 do
    let policy =
      if i mod 2 = 0 then Sched.Seeded_random (seed + i)
      else Sched.Pct { seed = seed + i; depth = 2 + (i mod 4) }
    in
    let outcome, log = run_once p opts policy in
    match check p wanted ~reference outcome with
    | [] -> ()
    | found ->
      let prefix =
        match reference with
        | Some (Done _) -> shrink p opts wanted ~reference log
        | _ -> log
      in
      record policy prefix found
  done;
  {
    r_program = p.p_name;
    r_schedules = schedules;
    r_violations = List.rev !violations;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>explore %s: %d schedules, %d violation(s)@,"
    r.r_program r.r_schedules
    (List.length r.r_violations);
  List.iter
    (fun v ->
      Format.fprintf ppf "  [%s] under %a: %s@," (invariant_name v.v_invariant)
        pp_policy v.v_policy v.v_detail;
      Format.fprintf ppf "    shrunk schedule prefix (%d decisions): [%s]@,"
        (List.length v.v_decisions)
        (String.concat "; "
           (List.map string_of_int (take 32 v.v_decisions))
        ^ if List.length v.v_decisions > 32 then "; ..." else "");
      Format.fprintf ppf "    %s@," (replay_hint v))
    r.r_violations;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Live-upgrade exploration.

   The serve layer admits upgrades only between event waves, so the
   schedule axis for upgrades is not thread interleaving but the upgrade
   point: which prefix of the event stream has been injected — and
   whether it has drained — when [Dispatcher.upgrade_all] runs.
   [run_upgrade] sweeps every split point in both styles (quiescent: the
   prefix fully drained; pending: the prefix still queued, exercising the
   remap of the sessions' inbox wakes, each with its value), runs the
   suffix, and compares
   each session's change trace against a never-upgraded run of the old
   program — the replay-differential oracle. The programs this axis
   accepts are those whose replacement is observationally equivalent
   under correct migration (identity upgrades trivially; state-migrating
   ones by construction, e.g. a re-biased foldp accumulator whose new
   view undoes the bias), so any divergence, crash, accounting drift or
   dropped event at any upgrade point is a bug — which is exactly how the
   planted upgrade mutations (Stale_slot_map, Skip_migration,
   Leak_seam_mailbox) get caught. *)

module Upgrade = Elm_core.Upgrade
module Dispatcher = Elm_serve.Dispatcher
module Session = Elm_serve.Session
module Pool = Elm_core.Pool

type 'a ugraph = {
  ug_root : 'a Signal.t;
  ug_inputs : int Signal.t array;
}

type 'a uprogram = {
  u_name : string;
  u_show : 'a -> string;
  u_classify : ('a -> int option) option;
  u_old : unit -> 'a ugraph;
  u_new : unit -> 'a ugraph;
  u_migrate : unit -> Upgrade.migration list;
  u_events : (int * int) list;  (* (input index, value), arrival order *)
}

let upgrade_program ~name ?classify ~show ?(migrate = fun () -> [])
    ~old_graph ~new_graph events =
  {
    u_name = name;
    u_show = show;
    u_classify = classify;
    u_old = old_graph;
    u_new = new_graph;
    u_migrate = migrate;
    u_events = events;
  }

(* One run's observation: per-session shown change traces, per-source
   class projections, and the dispatcher's final accounting. *)
type uobs = {
  uo_traces : (int * string) list list;
  uo_classes : (int * string list) list list;
  uo_acc : Dispatcher.accounting;
  uo_dropped : int;
  uo_stepped : int;
}

let uclasses p changes =
  match p.u_classify with
  | None -> []
  | Some classify ->
    let tbl : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (_, v) ->
        match classify v with
        | None -> ()
        | Some c -> (
          let s = p.u_show v in
          match Hashtbl.find_opt tbl c with
          | Some l -> l := s :: !l
          | None -> Hashtbl.add tbl c (ref [ s ])))
      changes;
    Hashtbl.fold (fun c l acc -> (c, List.rev !l) :: acc) tbl []
    |> List.sort compare

let uobserve p d sessions =
  {
    uo_traces =
      List.map
        (fun s ->
          List.map (fun (e, v) -> (e, p.u_show v)) (Session.changes s))
        sessions;
    uo_classes = List.map (fun s -> uclasses p (Session.changes s)) sessions;
    uo_acc = Dispatcher.accounting d;
    uo_dropped = List.fold_left (fun t s -> t + Session.dropped s) 0 sessions;
    uo_stepped = List.fold_left (fun t s -> t + Session.epoch s) 0 sessions;
  }

(* Two sessions per run: upgrades must preserve isolation as well as each
   session's own trace. [upgrade_at = None] is the reference. *)
let urun p ~pool ~mutate ~upgrade_at =
  try
    let g = p.u_old () in
    let d = Dispatcher.create ?pool g.ug_root in
    let s1 = Dispatcher.open_session d in
    let s2 = Dispatcher.open_session d in
    let evs = Array.of_list p.u_events in
    let inject_range inputs lo hi =
      for j = lo to hi - 1 do
        let i, v = evs.(j) in
        Dispatcher.inject d s1 inputs.(i) v;
        Dispatcher.inject d s2 inputs.(i) v
      done
    in
    (match upgrade_at with
    | None -> inject_range g.ug_inputs 0 (Array.length evs)
    | Some (k, quiesce) ->
      inject_range g.ug_inputs 0 k;
      if quiesce then ignore (Dispatcher.drain d);
      let g' = p.u_new () in
      ignore
        (Dispatcher.upgrade_all ~migrate:(p.u_migrate ()) ?mutate d g'.ug_root);
      inject_range g'.ug_inputs k (Array.length evs));
    ignore (Dispatcher.drain d);
    Ok (uobserve p d [ s1; s2 ])
  with e -> Error (Printexc.to_string e)

let ucheck p ~reference outcome ~where =
  match outcome with
  | Error msg ->
    [ (No_deadlock, Printf.sprintf "%s: run did not complete: %s" where msg) ]
  | Ok obs ->
    let vs = ref [] in
    let add inv detail =
      vs := (inv, Printf.sprintf "%s: %s" where detail) :: !vs
    in
    if obs.uo_traces <> reference.uo_traces then
      add Trace_equal
        "change traces diverged from the never-upgraded reference";
    if obs.uo_stepped <> reference.uo_stepped then
      add No_deadlock
        (Printf.sprintf "stepped %d events, reference stepped %d"
           obs.uo_stepped reference.uo_stepped);
    if p.u_classify <> None && obs.uo_classes <> reference.uo_classes then
      add Per_source_order
        "per-source class projections diverged from the reference";
    let acc = obs.uo_acc in
    if
      acc.Dispatcher.pending_events <> 0
      || acc.Dispatcher.pending_delays <> 0
      || acc.Dispatcher.idle <> acc.Dispatcher.live
      || obs.uo_dropped > 0
    then
      add Accounting
        (Printf.sprintf
           "after final drain: pending=%d delays=%d idle=%d/%d dropped=%d"
           acc.Dispatcher.pending_events acc.Dispatcher.pending_delays
           acc.Dispatcher.idle acc.Dispatcher.live obs.uo_dropped);
    List.rev !vs

let run_upgrade ?mutate ?domains p =
  if Sched.running () then
    invalid_arg "Explore.run_upgrade: must be called outside Cml.run";
  let with_pool f =
    match domains with
    | Some k when k > 1 ->
      let pool = Pool.create ~domains:k () in
      Fun.protect ~finally:(fun () -> Pool.close pool) (fun () -> f (Some pool))
    | _ -> f None
  in
  with_pool (fun pool ->
      let n = List.length p.u_events in
      match urun p ~pool ~mutate:None ~upgrade_at:None with
      | Error msg ->
        {
          r_program = p.u_name;
          r_schedules = 0;
          r_violations =
            [
              {
                v_invariant = No_deadlock;
                v_policy = Sched.Fifo;
                v_detail = "reference run crashed: " ^ msg;
                v_decisions = [];
              };
            ];
        }
      | Ok reference ->
        let violations = ref [] in
        let runs = ref 0 in
        List.iter
          (fun quiesce ->
            for k = 0 to n do
              incr runs;
              let where =
                Printf.sprintf "upgrade at %d/%d (%s)" k n
                  (if quiesce then "quiescent" else "pending events")
              in
              let outcome =
                urun p ~pool ~mutate ~upgrade_at:(Some (k, quiesce))
              in
              List.iter
                (fun (inv, detail) ->
                  violations :=
                    {
                      v_invariant = inv;
                      v_policy = Sched.Fifo;
                      v_detail = detail;
                      v_decisions = [ k; (if quiesce then 1 else 0) ];
                    }
                    :: !violations)
                (ucheck p ~reference outcome ~where)
            done)
          [ true; false ];
        {
          r_program = p.u_name;
          r_schedules = !runs;
          r_violations = List.rev !violations;
        })

let policy_of_env () =
  let seed =
    match Sys.getenv_opt "FELM_SCHED_SEED" with
    | Some s -> int_of_string_opt (String.trim s)
    | None -> None
  in
  match seed with
  | Some n -> Some (Sched.Seeded_random n)
  | None -> (
    (* a malformed or empty FELM_SCHED_SEED falls through to PCT *)
    match Sys.getenv_opt "FELM_SCHED_PCT" with
    | Some s -> (
      match String.split_on_char ':' (String.trim s) with
      | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some seed, Some depth -> Some (Sched.Pct { seed; depth })
        | _ -> None)
      | _ -> None)
    | None -> None)
