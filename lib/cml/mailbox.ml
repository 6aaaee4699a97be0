type overflow =
  | Block
  | Drop_oldest
  | Fail

exception Full of string option

type 'a t = {
  buf : 'a Queue.t;
  readers : 'a Scheduler.cont Queue.t;
  senders : ('a * unit Scheduler.cont) Queue.t;
  cap : int;  (* max_int when unbounded *)
  overflow : overflow;
  name : string option;
}

let create ?name ?capacity ?(overflow = Block) () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Mailbox.create: capacity must be >= 1"
  | _ -> ());
  {
    buf = Queue.create ();
    readers = Queue.create ();
    senders = Queue.create ();
    cap = Option.value capacity ~default:max_int;
    overflow;
    name;
  }

let name t = t.name

let capacity t = if t.cap = max_int then None else Some t.cap

(* A wait-site label for deadlock reports; only named mailboxes register one
   (see Scheduler.suspend), so anonymous scratch mailboxes stay silent. *)
let site t verb = Option.map (fun n -> verb ^ " " ^ n) t.name

let report_send t =
  match !Probe.current with
  | None -> ()
  | Some p -> p.on_send t.name (Queue.length t.buf)

let report_recv t =
  match !Probe.current with
  | None -> ()
  | Some p -> p.on_recv t.name (Queue.length t.buf)

(* Invariants: [readers] is non-empty only when [buf] is empty; [senders] is
   non-empty only when [buf] is at capacity (so probe-observed depth never
   exceeds [cap] under [Block]). *)
let send t v =
  Scheduler.home ();
  match Queue.take_opt t.readers with
  | Some k ->
    Scheduler.resume k v;
    report_send t
  | None ->
    if Queue.length t.buf < t.cap then begin
      Queue.push v t.buf;
      report_send t
    end
    else begin
      match t.overflow with
      | Drop_oldest ->
        ignore (Queue.pop t.buf);
        Queue.push v t.buf;
        report_send t
      | Fail -> raise (Full t.name)
      | Block ->
        (* Real backpressure: park the sender (value and all) until a reader
           frees a slot. The probe fires when the value actually enters the
           buffer, over in [drain_sender]. *)
        Scheduler.suspend ?site:(site t "send(full)")
          (fun k -> Queue.push (v, k) t.senders)
    end

(* A slot was just freed: move the oldest parked sender's value in and wake
   it. Runs on every successful receive, so FIFO order spans the buffer and
   the parked senders. *)
let drain_sender t =
  match Queue.take_opt t.senders with
  | None -> ()
  | Some (v, k) ->
    Queue.push v t.buf;
    Scheduler.resume k ();
    report_send t

let recv t =
  Scheduler.home ();
  match Queue.take_opt t.buf with
  | Some v ->
    report_recv t;
    drain_sender t;
    v
  | None -> Scheduler.suspend ?site:(site t "recv") (fun k -> Queue.push k t.readers)

let recv_opt t =
  Scheduler.home ();
  match Queue.take_opt t.buf with
  | None -> None
  | Some v ->
    (* Same bookkeeping as a blocking receive: fire the probe (queue-depth
       attribution must not drift when the runtime polls) and admit a parked
       sender into the freed slot. *)
    report_recv t;
    drain_sender t;
    Some v

let length t = Queue.length t.buf
