type 'a port = 'a Mailbox.t

type 'a t = {
  ports : 'a port Queue.t; (* subscription order *)
  name : string option;
}

let create ?name () = { ports = Queue.create (); name }

(* Each port is a private mailbox; give it an indexed name so queue-depth
   probes can tell one subscriber's backlog from another's. The string is
   built once, at subscription (build) time. *)
let port t =
  let name =
    Option.map (fun n -> Printf.sprintf "%s#%d" n (Queue.length t.ports)) t.name
  in
  let p = Mailbox.create ?name () in
  Queue.add p t.ports;
  p

(* Hot path: iterate ports in subscription order without building any
   intermediate list (the seed reversed a fresh list on every send). *)
let send t v =
  Scheduler.home ();
  Queue.iter (fun p -> Mailbox.send p v) t.ports

let recv = Mailbox.recv

let port_length = Mailbox.length

let port_count t = Queue.length t.ports
