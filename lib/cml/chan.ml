(* A waiting receiver may be registered on several channels at once (by
   [select_recv]); the [claimed] cell makes sure only one sender resumes it. *)
type 'a waiter = { claimed : bool ref; k : 'a Scheduler.cont }

type 'a t = {
  senders : ('a * unit Scheduler.cont) Queue.t;
  receivers : 'a waiter Queue.t;
  name : string option;
}

let create ?name () =
  { senders = Queue.create (); receivers = Queue.create (); name }

let name t = t.name

(* Wait-site label for deadlock reports; named channels only. *)
let site t verb = Option.map (fun n -> verb ^ " " ^ n) t.name

let rec pop_live_receiver t =
  match Queue.take_opt t.receivers with
  | None -> None
  | Some w -> if !(w.claimed) then pop_live_receiver t else Some w

let send t v =
  Scheduler.home ();
  match pop_live_receiver t with
  | Some w ->
    w.claimed := true;
    (match !Probe.current with
    | None -> ()
    | Some p -> p.on_send t.name (Queue.length t.senders));
    Scheduler.resume w.k v
  | None ->
    (* Report the blocked-sender queue depth after parking: for a
       rendezvous channel that is the backlog a tracer wants to see. *)
    (match !Probe.current with
    | None -> ()
    | Some p -> p.on_send t.name (Queue.length t.senders + 1));
    Scheduler.suspend ?site:(site t "send") (fun k -> Queue.push (v, k) t.senders)

let recv t =
  Scheduler.home ();
  match Queue.take_opt t.senders with
  | Some (v, k) ->
    (match !Probe.current with
    | None -> ()
    | Some p -> p.on_recv t.name (Queue.length t.senders));
    Scheduler.resume k ();
    v
  | None ->
    Scheduler.suspend ?site:(site t "recv") (fun k ->
        Queue.push { claimed = ref false; k } t.receivers)

let select_recv chans =
  let rec try_ready = function
    | [] -> None
    | c :: rest -> (
      match Queue.take_opt c.senders with
      | Some (v, k) ->
        Scheduler.resume k ();
        Some v
      | None -> try_ready rest)
  in
  Scheduler.home ();
  match try_ready chans with
  | Some v -> v
  | None ->
    Scheduler.suspend (fun k ->
        let claimed = ref false in
        List.iter (fun c -> Queue.push { claimed; k } c.receivers) chans)
