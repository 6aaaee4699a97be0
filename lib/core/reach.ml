(* Build-time source-reachability analysis over a signal DAG.

   For every node we compute the set of *runtime source* ids that can reach
   it through synchronous edges. Runtime sources are the nodes the global
   dispatcher can name in an event: inputs, constants, async and delay
   nodes, and degenerate dependency-free nodes (an empty lift_list behaves
   as a never-firing source). An async/delay node deliberately *cuts* the
   analysis: its inner subgraph reaches it only through the dispatcher (a
   change re-enters as a fresh global event carrying the async node's own
   source id), so the async node's reach set is just itself — exactly the
   Fig. 8(c) ordering boundary.

   The dispatcher uses [cone] to notify only the nodes an event can affect;
   everything outside the cone stays quiescent and its edges are
   epoch-compressed (see Event.stamped and Runtime). *)

module Int_set = Set.Make (Int)

type set = Int_set.t

type t = {
  order : Signal.packed list;  (* dependencies before dependents *)
  sets : (int, set) Hashtbl.t;  (* node id -> source ids reaching it *)
  srcs : int list;  (* runtime-source ids, topological order *)
  count : int;
}

let set_mem = Int_set.mem

(* A node the runtime registers with the dispatcher as a source: it answers
   events rather than edge messages. [Signal.is_source] covers
   input/constant/async/delay; a node with no dependencies (empty
   lift_list) is instantiated as a never-firing source. *)
let runtime_source (Signal.Pack s) =
  Signal.is_source s || Signal.deps s = []

let analyze root =
  let order = Signal.reachable root in
  let sets = Hashtbl.create 64 in
  let srcs = ref [] in
  List.iter
    (fun (Signal.Pack s as p) ->
      let id = Signal.id s in
      let set =
        if runtime_source p then begin
          srcs := id :: !srcs;
          Int_set.singleton id
        end
        else
          List.fold_left
            (fun acc (Signal.Pack d) ->
              match Hashtbl.find_opt sets (Signal.id d) with
              | Some ds -> Int_set.union acc ds
              | None -> acc)
            Int_set.empty (Signal.deps s)
      in
      Hashtbl.replace sets id set)
    order;
  { order; sets; srcs = List.rev !srcs; count = List.length order }

let node_count t = t.count

let order t = t.order

let sources t = t.srcs

let reaching t id =
  match Hashtbl.find_opt t.sets id with
  | Some s -> s
  | None -> Int_set.empty

let affects t ~source ~node = set_mem source (reaching t node)

let cone t source =
  List.filter
    (fun (Signal.Pack s) -> set_mem source (reaching t (Signal.id s)))
    t.order

let cone_size t source =
  List.fold_left
    (fun n (Signal.Pack s) ->
      if set_mem source (reaching t (Signal.id s)) then n + 1 else n)
    0 t.order

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (Signal.Pack s) ->
      Format.fprintf ppf "%d %s <- {%s}@,"
        (Signal.id s) (Signal.name s)
        (String.concat ","
           (List.map string_of_int (Int_set.elements (reaching t (Signal.id s))))))
    t.order;
  Format.fprintf ppf "@]"
