(* Tests for the build-time fusion pass (Elm_core.Fuse): the fused runtime
   must be observationally identical to the unfused one across every
   mode x dispatch combination, sharing and stateful barriers must never be
   fused through, and the node accounting (fused_nodes + live = original)
   must balance. Also covers the Signal.to_dot escaping fix and composite
   rendering. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Event = Elm_core.Event
module Stats = Elm_core.Stats
module Fuse = Elm_core.Fuse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))
let check_str = Alcotest.(check string)

let with_world body = Gen_graph.with_world body
let values = Gen_graph.values

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Randomized fused-vs-unfused trace equivalence over the shared
   Gen_graph shape catalogue: deep pure chains, drop_repeats inside
   chains, shared subgraphs, constants absorbed into lift2, and every
   fusion barrier (foldp, async, delay, merge, sample_on, fan-out). Chain
   functions are injective and cost no virtual time, so fusion must be
   bit-identical: same change values, same virtual times, same display
   message log. *)

let prop_fused_equals_unfused =
  QCheck.Test.make
    ~name:"fusion: identical changes/current/log across mode x dispatch"
    ~count:60 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      List.for_all
        (fun (mode, dispatch) ->
          let off =
            Gen_graph.run_shape ~fuse:false ~mode ~dispatch shape events
          in
          let on =
            Gen_graph.run_shape ~fuse:true ~mode ~dispatch shape events
          in
          let log_off = Runtime.message_log off in
          let log_on = Runtime.message_log on in
          Runtime.changes off = Runtime.changes on
          && Runtime.current off = Runtime.current on
          && List.length log_off = List.length log_on
          && List.for_all2 Gen_graph.entry_equal log_off log_on)
        Gen_graph.all_combos)

let prop_node_accounting =
  QCheck.Test.make
    ~name:"fusion: fused_nodes + live nodes = original node count" ~count:60
    QCheck.(int_bound (Gen_graph.shape_count - 1))
    (fun shape ->
      let original =
        let _, _, s = Gen_graph.build_shape shape in
        List.length (Signal.reachable s)
      in
      let rt =
        Gen_graph.run_shape ~fuse:true ~mode:Runtime.Pipelined
          ~dispatch:Runtime.Cone shape []
      in
      (Runtime.stats rt).Stats.fused_nodes + Runtime.node_count rt = original)

(* ------------------------------------------------------------------ *)
(* Sharing is a hard barrier *)

let test_sharing_never_fused () =
  (* shared has two subscribers (the d-chain and the root); the chain above
     it fuses, but shared itself must stay a distinct node computed once
     per event — fusing it into both consumers would double the work and
     break the paper's let-sharing semantics. *)
  let rt =
    with_world (fun () ->
        let x = Signal.input ~name:"x" 1 in
        let shared = Signal.lift ~name:"shared" (fun v -> v * v) x in
        let d2 =
          Signal.lift ~name:"d2" (fun v -> v * 3) shared
          |> Signal.lift ~name:"d3" succ
        in
        let root = Signal.lift2 ~name:"root" (fun u v -> (u, v)) shared d2 in
        let rt = Runtime.start root in
        for i = 2 to 11 do
          Runtime.inject rt x i
        done;
        rt)
  in
  let st = Runtime.stats rt in
  (* Original: x, shared, d2, d3, root = 5. The d2 -> d3 chain fuses to one
     composite: live = 4, eliminated = 1. *)
  check_int "one node fused away" 1 st.Stats.fused_nodes;
  check_int "live nodes" 4 (Runtime.node_count rt);
  (* 10 events x 3 computing nodes (shared, composite, root): shared is
     applied once per event, not once per consumer. *)
  check_int "shared computed once per event" 30 st.Stats.applications;
  check_bool "values correct" true
    (Runtime.current rt = (121, (121 * 3) + 1))

let test_fan_out_chains_fuse_per_arm () =
  (* Each arm above the shared node fuses independently. *)
  let original, rt =
    with_world (fun () ->
        let x = Signal.input 1 in
        let shared = Signal.lift (fun v -> v + 10) x in
        let rec chain n s =
          if n = 0 then s else chain (n - 1) (Signal.lift succ s)
        in
        let root = Signal.lift2 ( + ) (chain 4 shared) (chain 3 shared) in
        let original = List.length (Signal.reachable root) in
        let rt = Runtime.start root in
        Runtime.inject rt x 5;
        (original, rt))
  in
  check_int "original: x+shared+4+3+root" 10 original;
  (* fused: x, shared, two composites, root *)
  check_int "live after fusion" 5 (Runtime.node_count rt);
  check_int "eliminated" 5 (Runtime.stats rt).Stats.fused_nodes;
  check_int "value" ((15 + 4) + (15 + 3)) (Runtime.current rt)

(* ------------------------------------------------------------------ *)
(* Unit behaviour of the pass itself *)

let test_length_one_chain_untouched () =
  (* A single lift is not worth a composite: the pass returns the graph
     as-is (physically), so node ids, names and counts are unchanged. *)
  let x = Signal.input ~name:"x" 0 in
  let s = Signal.lift ~name:"only" succ x in
  let fused = Fuse.fuse s in
  check_bool "root returned unchanged" true (fused == s)

let test_composite_name_joins_chain () =
  let x = Signal.input ~name:"x" 0 in
  let s =
    Signal.lift ~name:"h" succ
      (Signal.lift ~name:"g" succ (Signal.lift ~name:"f" succ x))
  in
  let fused = Fuse.fuse s in
  check_str "kind" "composite" (Signal.kind_name fused);
  check_str "input-side-first chain name" "f\u{2218}g\u{2218}h"
    (Signal.name fused);
  check_int "still rooted at the input" 1
    (List.length (Signal.deps fused))

let test_constant_absorbed () =
  let rt =
    with_world (fun () ->
        let x = Signal.input 0 in
        let s =
          Signal.lift (fun v -> v + 1)
            (Signal.lift2 ( + ) (Signal.lift (fun v -> v * 2) x) (Signal.constant 5))
        in
        let rt = Runtime.start s in
        Runtime.inject rt x 1;
        Runtime.inject rt x 10;
        rt)
  in
  (* x, lift, lift2, constant, lift -> x, composite *)
  check_int "three nodes eliminated (incl. the constant)" 3
    (Runtime.stats rt).Stats.fused_nodes;
  check_int "two live nodes" 2 (Runtime.node_count rt);
  check_ints "constant's value closed over correctly" [ 8; 26 ] (values rt)

let test_drop_repeats_fused_behaviour () =
  let run fuse =
    with_world (fun () ->
        let x = Signal.input 0 in
        let s =
          Signal.lift (fun v -> v * 10)
            (Signal.drop_repeats (Signal.lift (fun v -> v / 2) x))
        in
        let rt = Runtime.start ~fuse s in
        List.iter (fun v -> Runtime.inject rt x v) [ 1; 2; 3; 2; 3; 7; 6 ];
        rt)
  in
  let on = run true and off = run false in
  check_ints "fused drop_repeats elides repeats identically"
    (values off) (values on);
  check_int "same display rounds"
    (List.length (Runtime.message_log off))
    (List.length (Runtime.message_log on));
  check_bool "repeats were actually elided" true
    (List.length (values on) < 7)

let test_fused_state_fresh_per_runtime () =
  (* Each instantiation copies the composite's initial cells: restarting a
     graph containing a fused drop_repeats must start from the default
     again, not from the previous runtime's last value. *)
  let drive () =
    with_world (fun () ->
        let x = Signal.input 0 in
        let s = Signal.lift (fun v -> v + 100) (Signal.drop_repeats (Signal.lift (fun v -> v / 2) x)) in
        let rt = Runtime.start s in
        List.iter (fun v -> Runtime.inject rt x v) [ 0; 1; 2; 2; 5 ];
        rt)
  in
  let first = values (drive ()) in
  let second = values (drive ()) in
  check_ints "second runtime replays identically" first second

(* A [Restart] re-seeds the composite's cells on both backends: the crash
   on 198 leaves the drop_repeats cell at 99, the restart puts it back to
   its default 0, so a following 0 is a repeat again and stays dropped. *)
let test_restart_reseeds_cells () =
  List.iter
    (fun backend ->
      let rt =
        with_world (fun () ->
            let x = Signal.input 0 in
            let s =
              Signal.lift
                (fun v -> if v = 99 then failwith "boom" else v + 100)
                (Signal.drop_repeats (Signal.lift (fun v -> v / 2) x))
            in
            let rt =
              Runtime.start ~backend ~on_node_error:(Runtime.Restart 1) s
            in
            List.iter (fun v -> Runtime.inject rt x v) [ 4; 198; 0 ];
            rt)
      in
      check_ints "restarted cell drops its default again" [ 102 ] (values rt))
    [ Runtime.Pipelined; Runtime.Compiled ]

(* ------------------------------------------------------------------ *)
(* DOT rendering: composite boxes and name escaping *)

let test_dot_escapes_names () =
  let x = Signal.input ~name:"say \"hi\" <now> {x|y}" 0 in
  let s = Signal.lift ~name:"back\\slash" succ x in
  let dot = Signal.to_dot ~label:"quote \" label" s in
  check_bool "quotes escaped" true (contains dot "say \\\"hi\\\"");
  check_bool "angle brackets escaped" true (contains dot "\\<now\\>");
  check_bool "record specials escaped" true (contains dot "\\{x\\|y\\}");
  check_bool "backslash escaped" true (contains dot "back\\\\slash");
  check_bool "label escaped" true (contains dot "label=\"quote \\\" label\"");
  (* no raw quote may survive inside a label: every '"' is preceded by
     '\\' or is the label delimiter following '=' or preceding ',' / ']' *)
  check_bool "still one statement per node" true (contains dot "shape=ellipse")

let test_dot_composite_single_box () =
  let x = Signal.input ~name:"x" 0 in
  let s =
    Signal.lift ~name:"g" succ (Signal.lift ~name:"f" succ x)
  in
  let dot = Signal.to_dot (Fuse.fuse s) in
  check_bool "composite drawn as one box3d" true (contains dot "box3d");
  check_bool "labelled with the fused chain" true
    (contains dot "f\u{2218}g");
  check_bool "annotated with fused size" true (contains dot "(2 nodes fused)");
  check_bool "interior nodes gone" true
    (not (contains dot "label=\"f\", shape=box"))

(* ------------------------------------------------------------------ *)
(* The felm interpreter path: lift_list chains fuse, outcomes unchanged *)

let test_felm_interp_fuses () =
  let src =
    "input n : signal int = 0\n\
     main = lift (\\x -> x + 1) (lift (\\x -> x * 2) (lift (\\x -> x + 3) n))\n"
  in
  let trace = "0.1 n 5\n0.2 n 7\n" in
  let on = Felm.Interp.run_source src ~trace in
  let off = Felm.Interp.run_source ~fuse:false src ~trace in
  Alcotest.(check (list (pair (float 1e-9) string)))
    "displays identical"
    (List.map (fun (t, v) -> (t, Felm.Value.show v)) off.Felm.Interp.displays)
    (List.map (fun (t, v) -> (t, Felm.Value.show v)) on.Felm.Interp.displays);
  let fused_of o =
    match o.Felm.Interp.stats with
    | Some st -> st.Stats.fused_nodes
    | None -> -1
  in
  check_int "three lifts fused into one composite" 2 (fused_of on);
  check_int "unfused run fused nothing" 0 (fused_of off)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuse"
    [
      ( "equivalence",
        [ qc prop_fused_equals_unfused; qc prop_node_accounting ] );
      ( "barriers",
        [
          tc "sharing never fused through" `Quick test_sharing_never_fused;
          tc "fan-out arms fuse independently" `Quick
            test_fan_out_chains_fuse_per_arm;
        ] );
      ( "pass",
        [
          tc "length-1 chain untouched" `Quick test_length_one_chain_untouched;
          tc "composite name joins the chain" `Quick
            test_composite_name_joins_chain;
          tc "constants absorbed" `Quick test_constant_absorbed;
          tc "drop_repeats fused behaviour" `Quick
            test_drop_repeats_fused_behaviour;
          tc "fused state fresh per runtime" `Quick
            test_fused_state_fresh_per_runtime;
          tc "Restart re-seeds fused cells" `Quick test_restart_reseeds_cells;
        ] );
      ( "dot",
        [
          tc "names escaped" `Quick test_dot_escapes_names;
          tc "composite single box" `Quick test_dot_composite_single_box;
        ] );
      ("felm", [ tc "interpreted chains fuse" `Quick test_felm_interp_fuses ]);
    ]
