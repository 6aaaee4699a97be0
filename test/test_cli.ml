(* End-to-end tests of the felmc command-line tool: the four subcommands
   against the shipped example programs, plus error reporting and exit
   codes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let felmc =
  if Sys.file_exists "../bin/felmc.exe" then "../bin/felmc.exe"
  else "_build/default/bin/felmc.exe"

let examples_dir =
  if Sys.file_exists "../examples/felm/mouse.felm" then "../examples/felm/"
  else "examples/felm/"

let run_cmd args =
  let out_file = Filename.temp_file "felmc" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" felmc (String.concat " " args) out_file
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out_file in
  let output =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out_file)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, output)

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_check () =
  let code, out = run_cmd [ "check"; examples_dir ^ "mouse.felm" ] in
  check_int "exit 0" 0 code;
  check_bool "prints the type" true (contains out "signal string")

let test_check_type_error () =
  let bad = Filename.temp_file "bad" ".felm" in
  let oc = open_out bad in
  output_string oc "main = lift (\\x -> Mouse.y) Mouse.x\n";
  close_out oc;
  let code, out = run_cmd [ "check"; bad ] in
  Sys.remove bad;
  check_bool "nonzero exit" true (code <> 0);
  check_bool "reports a type error" true (contains out "Type error")

let test_check_syntax_error () =
  let bad = Filename.temp_file "bad" ".felm" in
  let oc = open_out bad in
  output_string oc "main = (1 +\n";
  close_out oc;
  let code, out = run_cmd [ "check"; bad ] in
  Sys.remove bad;
  check_bool "nonzero exit" true (code <> 0);
  check_bool "reports a syntax error with location" true
    (contains out "Syntax error" && contains out "line")

let test_run_with_replay () =
  let code, out =
    run_cmd
      [ "run"; examples_dir ^ "counter.felm"; "--replay"; examples_dir ^ "counter.trace" ]
  in
  check_int "exit 0" 0 code;
  check_bool "timestamped displays" true
    (contains out "[   0.100] 1" && contains out "[   0.300] 3")

(* A bounded queue is a pipelined-only feature: on the default (compiled)
   backend the flag is an error naming the backend that supports it. *)
let test_run_queue_capacity_needs_pipelined () =
  let args =
    [ "run"; examples_dir ^ "counter.felm"; "--replay"; examples_dir ^ "counter.trace";
      "--queue-capacity=4" ]
  in
  let code, out = run_cmd args in
  check_bool "compiled + --queue-capacity fails" true (code <> 0);
  check_bool "the error names --backend=pipelined" true
    (contains out "--backend=pipelined");
  let code, out = run_cmd (args @ [ "--backend=pipelined" ]) in
  check_int "pipelined + --queue-capacity runs" 0 code;
  check_bool "same displays" true (contains out "[   0.300] 3")

let test_run_sequential_and_stats () =
  let code, out =
    run_cmd
      [
        "run"; examples_dir ^ "mouse.felm"; "--replay";
        examples_dir ^ "mouse.trace"; "--sequential"; "--stats";
      ]
  in
  check_int "exit 0" 0 code;
  check_bool "stats printed" true (contains out "events=");
  check_bool "same outputs as pipelined" true (contains out "(30, 9)")

let test_run_trace_export () =
  let trace_json = Filename.temp_file "felmc" ".json" in
  let code, out =
    run_cmd
      [
        "run"; examples_dir ^ "counter.felm"; "--replay";
        examples_dir ^ "counter.trace"; "--trace"; trace_json;
      ]
  in
  check_int "exit 0" 0 code;
  check_bool "reports the trace file" true (contains out "trace: wrote");
  check_bool "prints the latency summary" true (contains out "p95");
  let ic = open_in_bin trace_json in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove trace_json;
  (* The file must be valid Chrome trace-event JSON: parseable by our own
     parser, with a nonempty traceEvents array of pid/ph-tagged events. *)
  let doc = Json.parse text in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Array evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing or not an array"
  in
  check_bool "nonempty traceEvents" true (List.length events > 0);
  List.iter
    (fun ev ->
      check_bool "event has ph" true (Option.is_some (Json.member "ph" ev));
      check_bool "event has pid" true (Option.is_some (Json.member "pid" ev)))
    events;
  check_bool "node spans present" true
    (List.exists
       (fun ev -> Json.member "ph" ev = Some (Json.String "B"))
       events)

let test_compile_html_and_js () =
  let out_html = Filename.temp_file "out" ".html" in
  let code, _ = run_cmd [ "compile"; examples_dir ^ "mouse.felm"; "-o"; out_html ] in
  check_int "compile exit 0" 0 code;
  let ic = open_in_bin out_html in
  let html = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out_html;
  check_bool "html page" true (contains html "<!DOCTYPE html>");
  check_bool "runtime embedded" true (contains html "var ElmRuntime");
  let code, js = run_cmd [ "compile"; examples_dir ^ "mouse.felm"; "--js" ] in
  check_int "js exit 0" 0 code;
  check_bool "plain js, no html" true
    (contains js "R.display(G, main)" && not (contains js "<!DOCTYPE"))

let test_graph_dot () =
  let code, dot = run_cmd [ "graph"; examples_dir ^ "wordpairs.felm" ] in
  check_int "exit 0" 0 code;
  check_bool "digraph" true (contains dot "digraph felm");
  check_bool "dispatcher present" true (contains dot "Global Event")

(* None of the shipped examples contain a >=2-lift stateless chain, so the
   fusion CLI tests synthesize one. *)
let write_tmp suffix text =
  let path = Filename.temp_file "fuse" suffix in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

let chain_src =
  "input n : signal int = 0\n\
   main = lift (\\x -> x + 1) (lift (\\x -> x * 2) (lift (\\x -> x + 3) n))\n"

let chain_trace = "0.1 n 5\n0.2 n 7\n"

let display_lines out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> String.length l > 0 && l.[0] = '[')

let test_run_no_fuse_identical () =
  let felm = write_tmp ".felm" chain_src in
  let trace = write_tmp ".trace" chain_trace in
  let code_on, out_on = run_cmd [ "run"; felm; "--replay"; trace; "--stats" ] in
  let code_off, out_off =
    run_cmd [ "run"; felm; "--replay"; trace; "--stats"; "--no-fuse" ]
  in
  Sys.remove felm;
  Sys.remove trace;
  check_int "exit 0 (default)" 0 code_on;
  check_int "exit 0 (--no-fuse)" 0 code_off;
  check_bool "default run fused the chain" true (contains out_on "fused=2");
  check_bool "--no-fuse fused nothing" true (contains out_off "fused=0");
  Alcotest.(check (list string))
    "timestamped displays identical" (display_lines out_off)
    (display_lines out_on)

let test_graph_fused () =
  let felm = write_tmp ".felm" chain_src in
  let code, dot = run_cmd [ "graph"; felm; "--fused" ] in
  let code_plain, plain = run_cmd [ "graph"; felm ] in
  Sys.remove felm;
  check_int "exit 0" 0 code;
  check_bool "composite drawn as one box" true (contains dot "box3d");
  check_bool "chain collapsed into it" true
    (contains dot "lift\u{2218}lift\u{2218}lift"
    && contains dot "(3 nodes fused)");
  check_int "plain graph still works" 0 code_plain;
  check_bool "plain graph has no composites" true (not (contains plain "box3d"));
  let pure = write_tmp ".felm" "main = 1 + 2\n" in
  let code_pure, err = run_cmd [ "graph"; pure; "--fused" ] in
  Sys.remove pure;
  check_bool "--fused rejects non-reactive programs" true (code_pure <> 0);
  check_bool "with a diagnostic" true (contains err "not a reactive")

let test_missing_file () =
  let code, _ = run_cmd [ "check"; "no_such_file.felm" ] in
  check_bool "nonzero exit for missing file" true (code <> 0)

let test_bad_trace () =
  let bad = Filename.temp_file "bad" ".trace" in
  let oc = open_out bad in
  output_string oc "0.5 Mouse.x \"not an int\"\n";
  close_out oc;
  let code, out =
    run_cmd [ "run"; examples_dir ^ "mouse.felm"; "--replay"; bad ]
  in
  Sys.remove bad;
  check_bool "nonzero exit" true (code <> 0);
  check_bool "trace error reported" true (contains out "Trace error")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "cli"
    [
      ( "felmc",
        [
          tc "check" `Quick test_check;
          tc "check type error" `Quick test_check_type_error;
          tc "check syntax error" `Quick test_check_syntax_error;
          tc "run with replay" `Quick test_run_with_replay;
          tc "run --queue-capacity needs pipelined" `Quick
            test_run_queue_capacity_needs_pipelined;
          tc "run sequential + stats" `Quick test_run_sequential_and_stats;
          tc "run --trace chrome export" `Quick test_run_trace_export;
          tc "compile html/js" `Quick test_compile_html_and_js;
          tc "graph dot" `Quick test_graph_dot;
          tc "run --no-fuse identical" `Quick test_run_no_fuse_identical;
          tc "graph --fused" `Quick test_graph_fused;
          tc "missing file" `Quick test_missing_file;
          tc "bad trace" `Quick test_bad_trace;
        ] );
    ]
