(* Live graph upgrade: diff two compiled plans and remap running arenas.

   Node ids are minted fresh per build (Signal.fresh_id), so a rebuilt
   program shares no ids with the graph it replaces. What survives a
   rebuild is structure: Compile stamps every slot with a structural key
   (kind + name + dependency keys, occurrence-disambiguated), identical
   across builds of the same program text. [diff] matches slots of the old
   and new plan on those keys; everything matched keeps its live value and
   stamp (optionally through a user migration), everything else is a
   subgraph attach (seeded from the new plan's defaults) or detach
   (released with the old arena).

   The patch is pure data — computed once per upgrade, applied to every
   live arena by [remap]. Function hot-swap needs no bookkeeping at all:
   ops live in the plan, not the arena, so a matched slot whose lift
   function changed simply runs the new plan's op against the carried
   value from the next event on. The serve layer (Dispatcher.upgrade_all)
   owns the other half of the seam: moving each session's inbox wakes and
   the delay heap's entries onto the new node ids. The planted upgrade
   mutations hook in via [remap]'s [?mutate] ([Stale_slot_map],
   [Skip_migration]) and in the dispatcher ([Leak_seam_mailbox]). *)

(* Planted upgrade bugs for the mutation-testing catalogue (Check.Mutate).
   The [int] selects the nth upgrade of a dispatcher (1-based), counted by
   Dispatcher.upgrade_all, which plants the bug on that upgrade only. *)
type mutation =
  | Stale_slot_map of int
      (* rotate the matched-slot mapping by one: values land in the
         neighbouring slot, as if the remap table were stale *)
  | Skip_migration of int
      (* apply the upgrade without running user migrations: migrated
         state keeps its old representation *)
  | Leak_seam_mailbox of int
      (* forget each session's inbox, wakes and values together, instead
         of moving it onto the new node ids: accepted events lost at the
         seam *)

type migration = {
  m_name : string;
  m_fn : Obj.t -> Obj.t;
}

let migrate ~name f = { m_name = name; m_fn = (fun o -> Obj.repr (f (Obj.obj o))) }

type patch = {
  up_new : Compile.plan;
  up_slot_map : int array;  (* new slot -> old slot, -1 = attached *)
  up_state_map : int array;  (* new state slot -> old state slot, -1 *)
  up_node_map : (int, int) Hashtbl.t;  (* old node id -> new node id *)
  up_added : int list;  (* new slots with no old counterpart, ascending *)
  up_dropped : int list;  (* old slots with no new counterpart, ascending *)
  up_detached_regions : int list;  (* old regions made only of dropped slots *)
  up_migrations : (Obj.t -> Obj.t) option array;  (* per new slot *)
  up_migration_names : string list;
}

let new_plan p = p.up_new
let slot_map p = p.up_slot_map
let added_slots p = p.up_added
let dropped_slots p = p.up_dropped
let detached_regions p = p.up_detached_regions
let node_of_old p id = Hashtbl.find_opt p.up_node_map id

let is_identity p =
  p.up_added = [] && p.up_dropped = [] && p.up_migration_names = []

let diff ?(migrate = []) old_pl new_pl =
  let old_keys = Compile.slot_keys old_pl in
  let new_keys = Compile.slot_keys new_pl in
  let old_ids = Compile.slot_ids old_pl in
  let new_ids = Compile.slot_ids new_pl in
  let n_old = Compile.node_count old_pl in
  let n_new = Compile.node_count new_pl in
  (* Keys are unique within a plan (occurrence-suffixed), so this table is
     a bijection between the matched slot sets. *)
  let by_key = Hashtbl.create n_old in
  Array.iteri (fun sl k -> Hashtbl.replace by_key k sl) old_keys;
  let slot_map =
    Array.init n_new (fun i ->
        match Hashtbl.find_opt by_key new_keys.(i) with
        | Some j -> j
        | None -> -1)
  in
  let old_to_new = Array.make n_old (-1) in
  let node_map = Hashtbl.create n_new in
  let node_map_rev = Hashtbl.create n_new in
  Array.iteri
    (fun i j ->
      if j >= 0 then begin
        old_to_new.(j) <- i;
        Hashtbl.replace node_map old_ids.(j) new_ids.(i);
        Hashtbl.replace node_map_rev new_ids.(i) old_ids.(j)
      end)
    slot_map;
  let added = ref [] and dropped = ref [] in
  Array.iteri (fun i j -> if j < 0 then added := i :: !added) slot_map;
  Array.iteri (fun j i -> if i < 0 then dropped := j :: !dropped) old_to_new;
  (* State slots follow their owning node: a matched owner carries its
     foldp restart flag / keep_when gate / fused drop_repeats cells across,
     slot by slot in the owner's order; an unmatched one re-initialises
     from the new plan. *)
  let first_state pl =
    let first = Hashtbl.create 8 in
    for k = Compile.state_count pl - 1 downto 0 do
      Hashtbl.replace first (Compile.state_node pl k) k
    done;
    first
  in
  let old_first = first_state old_pl and new_first = first_state new_pl in
  let state_map =
    Array.init (Compile.state_count new_pl) (fun k ->
        let owner = Compile.state_node new_pl k in
        match Hashtbl.find_opt node_map_rev owner with
        | None -> -1
        | Some old_owner -> (
          match Hashtbl.find_opt old_first old_owner with
          | None -> -1
          | Some ok ->
            let j = ok + k - Hashtbl.find new_first owner in
            if
              j < Compile.state_count old_pl
              && Compile.state_node old_pl j = old_owner
            then j
            else -1))
  in
  (* Region granularity: an old region every one of whose members is
     unmatched is a whole detached subgraph — the unit the detach oracle
     inspects. *)
  let detached =
    List.filter_map
      (fun rg ->
        if
          List.for_all
            (fun id -> old_to_new.(Compile.slot old_pl id) < 0)
            rg.Compile.rg_member_ids
        then Some rg.Compile.rg_index
        else None)
      (Compile.regions old_pl)
  in
  (* User migrations, keyed by node name against the *new* plan: the slot
     must exist there and must be matched (there is no old value to
     migrate into an attached slot — seed those via the program's own
     initial value instead). *)
  let migrations = Array.make n_new None in
  let new_names = Compile.slot_names new_pl in
  List.iter
    (fun m ->
      let hit = ref false in
      Array.iteri
        (fun i name ->
          if name = m.m_name then begin
            if slot_map.(i) < 0 then
              invalid_arg
                (Printf.sprintf
                   "Upgrade.diff: migration %S targets an attached slot (no \
                    old value to migrate)"
                   m.m_name);
            migrations.(i) <- Some m.m_fn;
            hit := true
          end)
        new_names;
      if not !hit then
        invalid_arg
          (Printf.sprintf "Upgrade.diff: migration %S matches no slot of the \
                           new plan"
             m.m_name))
    migrate;
  {
    up_new = new_pl;
    up_slot_map = slot_map;
    up_state_map = state_map;
    up_node_map = node_map;
    up_added = List.rev !added;
    up_dropped = List.rev !dropped;
    up_detached_regions = detached;
    up_migrations = migrations;
    up_migration_names = List.map (fun m -> m.m_name) migrate;
  }

(* Seed-then-fill, as Compile's obj_array: never build an Obj.t array by
   [Array.init] over values that might start with a float (a flat float
   array would crash on the first non-float store). *)
let obj_array n fill =
  let a = Array.make n (Obj.repr 0) in
  for i = 0 to n - 1 do
    a.(i) <- fill i
  done;
  a

(* The two planted upgrade bugs that live at arena granularity.
   [Stale_slot_map] rotates the matched-slot assignment by one — not an
   identity permutation, so any program with >= 2 matched stateful or
   observable slots detects it; [Skip_migration] drops the user migration
   and copies raw. The third ([Leak_seam_mailbox]) forgets the sessions'
   inboxes, a dispatcher-side bug, and has no site here. *)
let remap ?mutate p (ar : Compile.arena) =
  let stale_map, skip_migration =
    match mutate with
    | Some (Stale_slot_map _) -> (true, false)
    | Some (Skip_migration _) -> (false, true)
    | Some (Leak_seam_mailbox _) | None -> (false, false)
  in
  let np = p.up_new in
  let n = Compile.node_count np in
  let map =
    if not stale_map then p.up_slot_map
    else begin
      let matched = ref [] in
      Array.iteri
        (fun i j -> if j >= 0 then matched := i :: !matched)
        p.up_slot_map;
      let ms = Array.of_list (List.rev !matched) in
      let k = Array.length ms in
      let m = Array.copy p.up_slot_map in
      if k > 1 then
        for x = 0 to k - 1 do
          m.(ms.(x)) <- p.up_slot_map.(ms.((x + 1) mod k))
        done;
      m
    end
  in
  let defaults = Compile.defaults np in
  (* A shadow slot copies its source's slot (see [Compile.shadow_sources]). *)
  let shadows = Compile.shadow_sources np in
  let of_slot i = if i < n then i else shadows.(i - n) in
  let slots = n + Array.length shadows in
  let values =
    obj_array slots (fun i ->
        let i = of_slot i in
        let j = map.(i) in
        if j < 0 then defaults.(i)
        else
          let v = ar.Compile.ar_values.(j) in
          match p.up_migrations.(i) with
          | Some f when not skip_migration -> f v
          | _ -> v)
  in
  let stamps =
    Array.init slots (fun i ->
        let j = map.(of_slot i) in
        if j < 0 then 0 else ar.Compile.ar_stamps.(j))
  in
  let state =
    obj_array (Compile.state_count np) (fun k ->
        let jk = p.up_state_map.(k) in
        if jk >= 0 then ar.Compile.ar_state.(jk)
        else Compile.state_initial np k)
  in
  { Compile.ar_values = values; ar_stamps = stamps; ar_state = state }

let pp ppf p =
  let matched =
    Array.fold_left (fun a j -> if j >= 0 then a + 1 else a) 0 p.up_slot_map
  in
  Format.fprintf ppf
    "@[<v>upgrade: %d slots -> %d slots@,\
     matched=%d added=%d dropped=%d migrations=%d@,\
     detached regions: %s@]"
    (matched + List.length p.up_dropped)
    (Compile.node_count p.up_new)
    matched
    (List.length p.up_added)
    (List.length p.up_dropped)
    (List.length p.up_migration_names)
    (String.concat "," (List.map string_of_int p.up_detached_regions))
