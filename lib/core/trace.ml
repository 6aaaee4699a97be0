type kind =
  | Node_start
  | Node_end
  | Node_fail
  | Dispatch
  | Display
  | Chan_send
  | Chan_recv
  | Switch

type record = {
  kind : kind;
  ts : float;
  node : int;
  epoch : int;
  chan : string;
  value : int;
}

(* Growable sample buffer; only ever allocated when tracing is on. *)
type samples = {
  mutable data : float array;
  mutable len : int;
}

let samples_create () = { data = [||]; len = 0 }

let samples_add s x =
  if s.len = Array.length s.data then begin
    let cap = max 64 (2 * s.len) in
    let grown = Array.make cap 0.0 in
    Array.blit s.data 0 grown 0 s.len;
    s.data <- grown
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let samples_sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile over a sorted array; 0 on no samples. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

type node_acc = {
  mutable acc_name : string;
  mutable rounds : int;
  mutable busy : float;
  mutable open_ts : float;  (* nan when no span is open *)
  mutable failures : int;  (* supervised step failures (Isolate/Restart) *)
  lat : samples;  (* dispatch-to-emit, per processed round *)
}

(* One shard holds everything a single domain records: its own ring, its
   own aggregates, its own hashtables. Recording never crosses shards, so
   no recording path takes a lock or issues an atomic RMW — the only
   synchronisation is the CAS that publishes a new shard the first time a
   domain touches the tracer, and the read-only merge at export time.

   Sharding by domain (not by session) is sound for span pairing because
   the pool pins a session to one domain for the whole of each task: a
   [Dispatch], the [Node_start]/[Node_end] spans it triggers, and the
   closing [Display] all land in the same shard, so [dispatch_ts] lookups
   and open-span bookkeeping behave exactly as in the single-domain
   tracer. *)
type shard = {
  cap : int;
  ring : record array;
  mutable next : int;  (* next slot to overwrite *)
  mutable written : int;  (* total records ever pushed *)
  node_accs : (int, node_acc) Hashtbl.t;
  dispatch_ts : (int, float) Hashtbl.t;  (* epoch -> dispatch time *)
  disp_lat : samples;  (* event-to-display, per displayed round *)
  mutable n_events : int;
  mutable n_displays : int;
  mutable n_changes : int;
  mutable n_failures : int;
  mutable last_switches : int;
  queue_peaks : (string, int) Hashtbl.t;
}

type t = {
  t_cap : int;
  mutable t_pid : int;
  (* id -> registered display name. Written by [register_node] (sessions
     are opened outside the parallel phase, but the lock keeps the table
     safe regardless); read at export. Kept outside the shards so a node
     registered on the opening domain keeps its name even when another
     domain ends up stepping it. *)
  t_names : (int, string) Hashtbl.t;
  t_names_lock : Mutex.t;
  (* Immutable assoc list domain-id -> shard, replaced by CAS on first
     touch from a new domain. Readers take a plain [Atomic.get]: the list
     only ever grows, and a stale read just retries the CAS. *)
  t_shards : (int * shard) list Atomic.t;
}

let null_record =
  { kind = Switch; ts = 0.0; node = -1; epoch = -1; chan = ""; value = 0 }

let shard_create cap =
  {
    cap;
    ring = Array.make cap null_record;
    next = 0;
    written = 0;
    node_accs = Hashtbl.create 64;
    dispatch_ts = Hashtbl.create 1024;
    disp_lat = samples_create ();
    n_events = 0;
    n_displays = 0;
    n_changes = 0;
    n_failures = 0;
    last_switches = 0;
    queue_peaks = Hashtbl.create 16;
  }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    t_cap = capacity;
    t_pid = 1;
    t_names = Hashtbl.create 64;
    t_names_lock = Mutex.create ();
    t_shards = Atomic.make [];
  }

let rec shard_of t =
  let did = (Domain.self () :> int) in
  let shards = Atomic.get t.t_shards in
  match List.assoc_opt did shards with
  | Some s -> s
  | None ->
    let s = shard_create t.t_cap in
    if Atomic.compare_and_set t.t_shards shards ((did, s) :: shards) then s
    else shard_of t

(* Shards ordered by domain id: exports must not depend on publication
   (CAS-race) order. *)
let shards t =
  Atomic.get t.t_shards
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  |> List.map snd

let push sh r =
  sh.ring.(sh.next) <- r;
  sh.next <- (sh.next + 1) mod sh.cap;
  sh.written <- sh.written + 1

let shard_dropped sh = max 0 (sh.written - sh.cap)

let dropped t = List.fold_left (fun acc sh -> acc + shard_dropped sh) 0 (shards t)

let shard_records sh =
  let n = min sh.written sh.cap in
  (* Oldest record: slot [next] when the ring has wrapped, 0 otherwise. *)
  let first = if sh.written > sh.cap then sh.next else 0 in
  List.init n (fun i -> sh.ring.((first + i) mod sh.cap))

(* Merge-sort shard streams by timestamp. Each shard's stream is already
   time-ordered (its domain recorded it sequentially), and the sort is
   stable, so records at equal virtual timestamps keep their shard-order —
   a single-domain run's export is bit-identical to the old
   single-ring tracer's. *)
let records t =
  List.concat_map shard_records (shards t)
  |> List.stable_sort (fun a b -> Float.compare a.ts b.ts)

let set_pid t pid = t.t_pid <- pid

let node_acc sh id =
  match Hashtbl.find_opt sh.node_accs id with
  | Some a -> a
  | None ->
    let a =
      {
        acc_name = Printf.sprintf "node-%d" id;
        rounds = 0;
        busy = 0.0;
        open_ts = Float.nan;
        failures = 0;
        lat = samples_create ();
      }
    in
    Hashtbl.replace sh.node_accs id a;
    a

let register_node t ~id ~name =
  Mutex.lock t.t_names_lock;
  Hashtbl.replace t.t_names id name;
  Mutex.unlock t.t_names_lock;
  (* Also seed the registering domain's shard so a registered-but-idle
     node still gets a (zero-round) summary row, as before sharding. *)
  (node_acc (shard_of t) id).acc_name <- name

let registered_name t id =
  Mutex.lock t.t_names_lock;
  let n = Hashtbl.find_opt t.t_names id in
  Mutex.unlock t.t_names_lock;
  n

let node_start t ~node ~epoch =
  let sh = shard_of t in
  let ts = Cml.now () in
  push sh { kind = Node_start; ts; node; epoch; chan = ""; value = 0 };
  (node_acc sh node).open_ts <- ts

let node_end t ~node ~epoch =
  let sh = shard_of t in
  let ts = Cml.now () in
  push sh { kind = Node_end; ts; node; epoch; chan = ""; value = 0 };
  let a = node_acc sh node in
  if not (Float.is_nan a.open_ts) then begin
    a.busy <- a.busy +. (ts -. a.open_ts);
    a.open_ts <- Float.nan
  end;
  a.rounds <- a.rounds + 1;
  match Hashtbl.find_opt sh.dispatch_ts epoch with
  | Some t0 -> samples_add a.lat (ts -. t0)
  | None -> ()

let node_failure t ~node ~epoch =
  let sh = shard_of t in
  push
    sh
    { kind = Node_fail; ts = Cml.now (); node; epoch; chan = ""; value = 0 };
  sh.n_failures <- sh.n_failures + 1;
  let a = node_acc sh node in
  a.failures <- a.failures + 1

let dispatch t ~source ~epoch ~targets =
  let sh = shard_of t in
  let ts = Cml.now () in
  push sh { kind = Dispatch; ts; node = source; epoch; chan = ""; value = targets };
  sh.n_events <- sh.n_events + 1;
  Hashtbl.replace sh.dispatch_ts epoch ts

let display t ~epoch ~changed =
  let sh = shard_of t in
  let ts = Cml.now () in
  push
    sh
    {
      kind = Display;
      ts;
      node = -1;
      epoch;
      chan = "";
      value = (if changed then 1 else 0);
    };
  sh.n_displays <- sh.n_displays + 1;
  if changed then sh.n_changes <- sh.n_changes + 1;
  match Hashtbl.find_opt sh.dispatch_ts epoch with
  | Some t0 -> samples_add sh.disp_lat (ts -. t0)
  | None -> ()

let bump_peak sh chan depth =
  match Hashtbl.find_opt sh.queue_peaks chan with
  | Some d when d >= depth -> ()
  | Some _ | None -> Hashtbl.replace sh.queue_peaks chan depth

let chan_send t ~chan ~depth =
  let sh = shard_of t in
  push
    sh
    { kind = Chan_send; ts = Cml.now (); node = -1; epoch = -1; chan; value = depth };
  bump_peak sh chan depth

let chan_recv t ~chan ~depth =
  let sh = shard_of t in
  push
    sh
    { kind = Chan_recv; ts = Cml.now (); node = -1; epoch = -1; chan; value = depth }

let switch t ~count =
  let sh = shard_of t in
  push
    sh
    { kind = Switch; ts = Cml.now (); node = -1; epoch = -1; chan = ""; value = count };
  sh.last_switches <- count

let attach t =
  Cml.Probe.set
    {
      Cml.Probe.on_send =
        (fun name depth ->
          match name with None -> () | Some chan -> chan_send t ~chan ~depth);
      on_recv =
        (fun name depth ->
          match name with None -> () | Some chan -> chan_recv t ~chan ~depth);
      on_switch = (fun count -> switch t ~count);
    }

(* ------------------------------------------------------------------ *)
(* Summary *)

type node_summary = {
  node_id : int;
  node_name : string;
  rounds : int;
  busy : float;
  node_failures : int;
  node_p50 : float;
  node_p95 : float;
  node_max : float;
}

type summary = {
  events : int;
  displays : int;
  changes : int;
  failures : int;
  p50 : float;
  p95 : float;
  max : float;
  nodes : node_summary list;
  queue_peaks : (string * int) list;
  switches : int;
  records_dropped : int;
}

(* Export-time merge across shards. Counters sum; latency samples
   concatenate (percentiles are over the union); per-node accumulators
   merge by id, summing rounds/busy/failures; queue peaks and the switch
   high-water mark take the max. A registered name wins over the default
   ["node-%d"] even when the registering and stepping domains differ. *)
let summary t =
  let shs = shards t in
  let sum f = List.fold_left (fun acc sh -> acc + f sh) 0 shs in
  let all_lat =
    let a =
      Array.concat (List.map (fun sh -> samples_sorted sh.disp_lat) shs)
    in
    Array.sort Float.compare a;
    a
  in
  let n = Array.length all_lat in
  let merged : (int, node_acc) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sh ->
      Hashtbl.iter
        (fun id a ->
          match Hashtbl.find_opt merged id with
          | None ->
            let m =
              {
                acc_name = a.acc_name;
                rounds = a.rounds;
                busy = a.busy;
                open_ts = Float.nan;
                failures = a.failures;
                lat = samples_create ();
              }
            in
            Array.iter (fun x -> samples_add m.lat x)
              (Array.sub a.lat.data 0 a.lat.len);
            Hashtbl.replace merged id m
          | Some m ->
            m.rounds <- m.rounds + a.rounds;
            m.busy <- m.busy +. a.busy;
            m.failures <- m.failures + a.failures;
            Array.iter (fun x -> samples_add m.lat x)
              (Array.sub a.lat.data 0 a.lat.len))
        sh.node_accs)
    shs;
  let nodes =
    Hashtbl.fold
      (fun id a acc ->
        let s = samples_sorted a.lat in
        let m = Array.length s in
        {
          node_id = id;
          node_name =
            (match registered_name t id with
            | Some n -> n
            | None -> a.acc_name);
          rounds = a.rounds;
          busy = a.busy;
          node_failures = a.failures;
          node_p50 = percentile s 0.5;
          node_p95 = percentile s 0.95;
          node_max = (if m = 0 then 0.0 else s.(m - 1));
        }
        :: acc)
      merged []
    |> List.sort (fun a b -> compare (b.busy, b.node_id) (a.busy, a.node_id))
  in
  let peaks_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (sh : shard) ->
      Hashtbl.iter
        (fun name d ->
          match Hashtbl.find_opt peaks_tbl name with
          | Some d' when d' >= d -> ()
          | Some _ | None -> Hashtbl.replace peaks_tbl name d)
        sh.queue_peaks)
    shs;
  let peaks =
    Hashtbl.fold (fun name d acc -> (name, d) :: acc) peaks_tbl []
    |> List.sort (fun (na, da) (nb, db) -> compare (db, na) (da, nb))
  in
  {
    events = sum (fun sh -> sh.n_events);
    displays = sum (fun sh -> sh.n_displays);
    changes = sum (fun sh -> sh.n_changes);
    failures = sum (fun sh -> sh.n_failures);
    p50 = percentile all_lat 0.5;
    p95 = percentile all_lat 0.95;
    max = (if n = 0 then 0.0 else all_lat.(n - 1));
    nodes;
    queue_peaks = peaks;
    switches = List.fold_left (fun acc sh -> Stdlib.max acc sh.last_switches) 0 shs;
    records_dropped = dropped t;
  }

let summary_to_json s =
  Json.Object
    [
      ("events", Json.of_int s.events);
      ("displays", Json.of_int s.displays);
      ("changes", Json.of_int s.changes);
      ("failures", Json.of_int s.failures);
      ( "event_to_display_latency",
        Json.Object
          [
            ("p50", Json.of_float s.p50);
            ("p95", Json.of_float s.p95);
            ("max", Json.of_float s.max);
            ("samples", Json.of_int s.displays);
          ] );
      ( "nodes",
        Json.Array
          (List.map
             (fun n ->
               Json.Object
                 [
                   ("id", Json.of_int n.node_id);
                   ("name", Json.of_string n.node_name);
                   ("rounds", Json.of_int n.rounds);
                   ("busy", Json.of_float n.busy);
                   ("failures", Json.of_int n.node_failures);
                   ("p50", Json.of_float n.node_p50);
                   ("p95", Json.of_float n.node_p95);
                   ("max", Json.of_float n.node_max);
                 ])
             s.nodes) );
      ( "queue_peaks",
        Json.Object (List.map (fun (n, d) -> (n, Json.of_int d)) s.queue_peaks) );
      ("switches", Json.of_int s.switches);
      ("records_dropped", Json.of_int s.records_dropped);
    ]

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>events=%d displays=%d changes=%d failures=%d switches=%d dropped=%d@,\
     event-to-display latency (virtual s): p50=%.4f p95=%.4f max=%.4f@]"
    s.events s.displays s.changes s.failures s.switches s.records_dropped
    s.p50 s.p95 s.max;
  List.iteri
    (fun i n ->
      if i < 8 then
        Format.fprintf ppf "@,  node %-3d %-16s rounds=%-5d busy=%-8.3f p95=%.4f"
          n.node_id n.node_name n.rounds n.busy n.node_p95)
    s.nodes;
  (match s.queue_peaks with
  | [] -> ()
  | (name, d) :: _ -> Format.fprintf ppf "@,  deepest queue: %s (%d)" name d)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export *)

let us ts = Json.of_float (ts *. 1e6)

let to_chrome_json t =
  let pid = Json.of_int t.t_pid in
  let meta name tid args =
    Json.Object
      [
        ("name", Json.of_string name);
        ("ph", Json.of_string "M");
        ("pid", pid);
        ("tid", Json.of_int tid);
        ("args", Json.Object args);
      ]
  in
  (* Known node ids across every shard, merged; a registered name wins. *)
  let known : (int, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sh ->
      Hashtbl.iter
        (fun id a ->
          if not (Hashtbl.mem known id) then Hashtbl.replace known id a.acc_name)
        sh.node_accs)
    (shards t);
  Mutex.lock t.t_names_lock;
  Hashtbl.iter (fun id name -> Hashtbl.replace known id name) t.t_names;
  Mutex.unlock t.t_names_lock;
  let node_name id =
    match Hashtbl.find_opt known id with
    | Some n -> n
    | None -> Printf.sprintf "node-%d" id
  in
  let metadata =
    meta "process_name" 0
      [ ("name", Json.of_string (Printf.sprintf "elm-frp runtime #%d" t.t_pid)) ]
    :: meta "thread_name" 0 [ ("name", Json.of_string "dispatcher") ]
    :: meta "thread_name" 1 [ ("name", Json.of_string "display") ]
    :: (Hashtbl.fold
          (fun id name acc ->
            meta "thread_name" (id + 2)
              [
                ("name", Json.of_string (Printf.sprintf "%s (node %d)" name id));
              ]
            :: acc)
          known []
       |> List.sort compare)
  in
  let event r =
    match r.kind with
    | Node_start ->
      Json.Object
        [
          ("name", Json.of_string (node_name r.node));
          ("cat", Json.of_string "node");
          ("ph", Json.of_string "B");
          ("pid", pid);
          ("tid", Json.of_int (r.node + 2));
          ("ts", us r.ts);
          ("args", Json.Object [ ("epoch", Json.of_int r.epoch) ]);
        ]
    | Node_end ->
      Json.Object
        [
          ("name", Json.of_string (node_name r.node));
          ("cat", Json.of_string "node");
          ("ph", Json.of_string "E");
          ("pid", pid);
          ("tid", Json.of_int (r.node + 2));
          ("ts", us r.ts);
        ]
    | Node_fail ->
      Json.Object
        [
          ("name", Json.of_string ("fail:" ^ node_name r.node));
          ("cat", Json.of_string "failure");
          ("ph", Json.of_string "i");
          ("s", Json.of_string "t");
          ("pid", pid);
          ("tid", Json.of_int (r.node + 2));
          ("ts", us r.ts);
          ("args", Json.Object [ ("epoch", Json.of_int r.epoch) ]);
        ]
    | Dispatch ->
      Json.Object
        [
          ("name", Json.of_string "dispatch");
          ("cat", Json.of_string "dispatcher");
          ("ph", Json.of_string "i");
          ("s", Json.of_string "p");
          ("pid", pid);
          ("tid", Json.of_int 0);
          ("ts", us r.ts);
          ( "args",
            Json.Object
              [
                ("source", Json.of_int r.node);
                ("epoch", Json.of_int r.epoch);
                ("targets", Json.of_int r.value);
              ] );
        ]
    | Display ->
      Json.Object
        [
          ("name", Json.of_string "display");
          ("cat", Json.of_string "display");
          ("ph", Json.of_string "i");
          ("s", Json.of_string "p");
          ("pid", pid);
          ("tid", Json.of_int 1);
          ("ts", us r.ts);
          ( "args",
            Json.Object
              [
                ("epoch", Json.of_int r.epoch);
                ("changed", Json.of_bool (r.value = 1));
              ] );
        ]
    | Chan_send | Chan_recv ->
      Json.Object
        [
          ("name", Json.of_string ("queue:" ^ r.chan));
          ("ph", Json.of_string "C");
          ("pid", pid);
          ("tid", Json.of_int 0);
          ("ts", us r.ts);
          ("args", Json.Object [ ("depth", Json.of_int r.value) ]);
        ]
    | Switch ->
      Json.Object
        [
          ("name", Json.of_string "switches");
          ("ph", Json.of_string "C");
          ("pid", pid);
          ("tid", Json.of_int 0);
          ("ts", us r.ts);
          ("args", Json.Object [ ("switches", Json.of_int r.value) ]);
        ]
  in
  Json.Object
    [
      ("traceEvents", Json.Array (metadata @ List.map event (records t)));
      ("displayTimeUnit", Json.of_string "ms");
    ]
