(* The pending values of [delay] nodes: a binary min-heap over flat
   arrays, one array per field, ordered by the key (due, epoch, node) with
   monomorphic float and int comparisons. The epoch is the one that
   emitted the value and the node is the delay node's id; ids are allotted
   in creation order, which is topological, so within one instance the
   key is total and does not depend on the schedule. Nothing is allocated
   per push or pop but the growth of the arrays. *)

type 'a t = {
  mutable due : float array;
  mutable epoch : int array;
  mutable node : int array;
  mutable ctx : 'a array;
  mutable value : Obj.t array;
  mutable size : int;
}

let create () =
  { due = [||]; epoch = [||]; node = [||]; ctx = [||]; value = [||]; size = 0 }

let min_due h = if h.size = 0 then infinity else h.due.(0)
let top h = h.ctx.(0)

let before h i j =
  let di = h.due.(i) and dj = h.due.(j) in
  let ei = h.epoch.(i) and ej = h.epoch.(j) in
  di < dj || (di = dj && (ei < ej || (ei = ej && h.node.(i) < h.node.(j))))

(* Not for the float array: a polymorphic read would box. *)
let swap_in a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let swap h i j =
  let d = h.due.(i) in
  h.due.(i) <- h.due.(j);
  h.due.(j) <- d;
  swap_in h.epoch i j;
  swap_in h.node i j;
  swap_in h.ctx i j;
  swap_in h.value i j

let rec up h i =
  let p = (i - 1) / 2 in
  if i > 0 && before h i p then begin
    swap h i p;
    up h p
  end

let rec down h i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < h.size && before h (l + 1) l then l + 1 else l in
  if c < h.size && before h c i then begin
    swap h i c;
    down h c
  end

(* The value array grows with an immediate, never with a pushed value: a
   float would make it a flat float array. *)
let grow h x =
  let more = max 16 h.size in
  h.due <- Array.append h.due (Array.make more 0.0);
  h.epoch <- Array.append h.epoch (Array.make more 0);
  h.node <- Array.append h.node (Array.make more 0);
  h.ctx <- Array.append h.ctx (Array.make more x);
  h.value <- Array.append h.value (Array.make more (Obj.repr ()))

let push h ~due ~epoch ~node x v =
  let n = h.size in
  if n = Array.length h.due then grow h x;
  h.due.(n) <- due;
  h.epoch.(n) <- epoch;
  h.node.(n) <- node;
  h.ctx.(n) <- x;
  h.value.(n) <- v;
  h.size <- n + 1;
  up h n

(* The popped slot keeps a live context (reachable only while the heap
   is empty) and no value. *)
let pop h f =
  let x = h.ctx.(0) and node = h.node.(0) and v = h.value.(0) in
  let n = h.size - 1 in
  swap h 0 n;
  h.ctx.(n) <- h.ctx.(0);
  h.value.(n) <- Obj.repr ();
  h.size <- n;
  down h 0;
  f x node v

(* Rebuild in place: kept entry [i] moves to slot [k <= i] and sifts up
   among the [k] entries already placed, under its new node. *)
let remap h f =
  let n = h.size in
  h.size <- 0;
  for i = 0 to n - 1 do
    match f h.ctx.(i) h.node.(i) with
    | None -> ()
    | Some node ->
      let k = h.size in
      h.due.(k) <- h.due.(i);
      h.epoch.(k) <- h.epoch.(i);
      h.node.(k) <- node;
      h.ctx.(k) <- h.ctx.(i);
      h.value.(k) <- h.value.(i);
      h.size <- k + 1;
      up h k
  done;
  Array.fill h.value h.size (n - h.size) (Obj.repr ());
  if h.size > 0 then Array.fill h.ctx h.size (n - h.size) h.ctx.(0)
