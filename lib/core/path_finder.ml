(* The NM's path finder (§III-C.1): a depth-first traversal of the
   potential-connectivity graph that tracks encapsulation and
   decapsulation so only protocol-"sane" paths survive, and prunes paths
   that would peer modules from different address domains (figure 6).

   A path is the sequence of modules customer traffic crosses between the
   goal's two customer-facing modules. The traversal carries the traffic's
   header stack, and each step acts on its top by the switch kind it
   takes: [up=>down] and [up=>phy] push the module's own header, [down=>up]
   and [phy=>up] pop it, [down=>down] and [phy=>phy] inspect it. A header
   is named after the module that pushed it, and a module acts only on a
   header bearing its own name, so no protocol is named here. Customer
   traffic is the stack's two bottom entries: the customer's frame, named
   after [g_from]'s protocol, popped at [g_from] and pushed back out at
   the target; and the customer's packet, named after the modules serving
   the customer's address domain, which no module terminates. *)

type action = Push | Pop | Inspect

type visit = {
  v_mod : Ids.t;
  v_kind : Abstraction.switch_kind;
  v_action : action;
  v_chain : int; (* 0 = the customer's frame, 1 = its packet, >=2 pushed headers *)
}

type path = { visits : visit list }

type goal = {
  g_from : Ids.t; (* customer-facing module at the source site *)
  g_to : Ids.t;
  g_customer : string; (* address domain of the customer, e.g. "C1" *)
  g_src_domain : string; (* e.g. "C1-S1" *)
  g_dst_domain : string;
  g_src_site : string; (* e.g. "S1" *)
  g_dst_site : string;
  g_tradeoffs : string list;
  g_scope : string list; (* device ids the NM manages *)
}

let base_eth = 0
let base_ip = 1

type entry = From_phy | From_above | From_below

(* a header on the traffic's stack: its chain, the protocol of the module
   that pushed it and that module's address domain *)
type hdr = { h_chain : int; h_proto : string; h_domain : string option }

(* --- the search's view of the index ---------------------------------------------------

   The topology's potential graph numbers every module once
   ([Potential_graph]); a search adds only its own arrays over it. [free]
   is the search's mask: an entry is free while it belongs to a usable
   in-scope device and is not on the partial path being extended. The
   traversal steps only onto free entries, so the graph's neighbour arrays
   serve every scope in their own order. [g_from] is the root whatever its
   device, and stays on the path throughout. *)

type view = {
  graph : Potential_graph.t;
  free : Bytes.t;
  from : int;
  target : int; (* [g_to]'s entry, or -1 when it is out of scope *)
}

let unreached = max_int
let is_free (v : view) e = Bytes.unsafe_get v.free e = '\001'

let view ?(usable = fun _ -> true) topo goal =
  let graph = Topology.graph topo in
  let from = Potential_graph.entry_exn graph goal.g_from in
  let free = Bytes.make (Potential_graph.size graph) '\000' in
  List.iter
    (fun dev ->
      if usable dev then
        Array.iter
          (fun e -> Bytes.unsafe_set free e '\001')
          (Potential_graph.device_entries graph dev))
    goal.g_scope;
  let target =
    match Potential_graph.entry graph goal.g_to with
    | Some e when Bytes.get free e = '\001' -> e
    | _ -> -1
  in
  { graph; free; from; target }

(* --- the traversal -------------------------------------------------------------------- *)

(* One traversal serves both searches. The enumerator admits every
   entry and keeps every completed path; the best-first search also
   bounds what it admits and keeps only an incumbent. *)
type dfs_state = {
  graph : Potential_graph.t;
  free : Bytes.t; (* the view's mask, cleared along the partial path *)
  target : int;
  prune_domains : bool;
  mutable next_chain : int;
  mutable expanded : int;
  admit : int -> depth:int -> pipes:int -> bool;
      (* may the traversal step onto this entry as the path's [depth]-th
         visit (the root is the 0th), [pipes] pipes into the path? *)
  complete : visit list -> pipes:int -> fast:int -> unit;
      (* a sane path reached the goal: its visits, pipe count and number
         of fast-forwarding modules *)
}

(* Figure 6(b): a module handles a header only within one address domain.
   A header carries the domain of the module that pushed it (the
   customer's packet the customer's), and a module the NM knows no domain
   for handles only headers that carry none. *)
let domain_compatible st (node : Potential_graph.node) hdr =
  (not st.prune_domains)
  ||
  match (hdr.h_domain, node.domain) with
  | None, None -> true
  | Some a, Some b -> String.equal a b
  | Some _, None | None, Some _ -> false

(* Is [h] the module's own header, in its address domain? *)
let mine st (node : Potential_graph.node) h =
  String.equal h.h_proto node.abs.Abstraction.name && domain_compatible st node h

(* every transition but a physical hop instantiates a pipe *)
let pipes_after kind pipes =
  match kind with Abstraction.Up_phy | Abstraction.Phy_phy -> pipes | _ -> pipes + 1

let visit (node : Potential_graph.node) kind action chain acc =
  { v_mod = node.id; v_kind = kind; v_action = action; v_chain = chain } :: acc

let rec step st ~pos ~entry ~stack ~acc ~depth ~pipes ~fast =
  st.expanded <- st.expanded + 1;
  let node : Potential_graph.node = Potential_graph.node st.graph pos in
  let fast = if node.abs.Abstraction.fast_forwarding then fast + 1 else fast in
  let was_free = Bytes.unsafe_get st.free pos in
  Bytes.unsafe_set st.free pos '\000';
  (match stack with
  | [ _ ]
    when pos = st.target && entry = From_above
         && Abstraction.can_switch node.abs Abstraction.Up_phy ->
      (* goal completion: at the target, entered from above, with every
         header but the customer's packet undone — push the customer's
         frame back out *)
      st.complete (List.rev (visit node Abstraction.Up_phy Push base_eth acc)) ~pipes ~fast
  | _ -> switch st node ~entry ~stack ~acc ~depth ~pipes ~fast node.abs.Abstraction.switch);
  Bytes.unsafe_set st.free pos was_free

(* Tries each of the module's switch kinds in turn. A kind takes the
   traffic that enters from its first side. *)
and switch st node ~entry ~stack ~acc ~depth ~pipes ~fast = function
  | [] -> ()
  | kind :: kinds ->
      (match (kind, entry) with
      | (Abstraction.Phy_up, From_phy | Abstraction.Down_up, From_below) -> (
          (* pop the module's header, never the customer's packet *)
          match stack with
          | h :: (_ :: _ as rest) when mine st node h ->
              next st node ~acc ~depth ~pipes ~fast kind Pop h.h_chain ~stack:rest
          | _ -> ())
      | (Abstraction.Phy_phy, From_phy | Abstraction.Down_down, From_below) -> (
          match stack with
          | h :: _ when mine st node h ->
              next st node ~acc ~depth ~pipes ~fast kind Inspect h.h_chain ~stack
          | _ -> ())
      | (Abstraction.Up_down | Abstraction.Up_phy), From_above ->
          st.next_chain <- st.next_chain + 1;
          let h =
            { h_chain = st.next_chain; h_proto = node.abs.Abstraction.name; h_domain = node.domain }
          in
          next st node ~acc ~depth ~pipes ~fast kind Push h.h_chain ~stack:(h :: stack)
      | Abstraction.Up_up, _ ->
          (* loopback switching creates no inter-device paths; skipped *)
          ()
      | ( ( Abstraction.Phy_up | Abstraction.Phy_phy | Abstraction.Down_up
          | Abstraction.Down_down | Abstraction.Up_down | Abstraction.Up_phy ),
          _ ) ->
          ());
      switch st node ~entry ~stack ~acc ~depth ~pipes ~fast kinds

(* Takes [kind] here and tries each module it leads to, entered from the
   side it leaves by. *)
and next st node ~acc ~depth ~pipes ~fast kind action chain ~stack =
  let acc = visit node kind action chain acc and depth = depth + 1 in
  let pipes = pipes_after kind pipes in
  match kind with
  | Abstraction.Phy_up | Abstraction.Down_up ->
      go st ~entry:From_below ~stack ~acc ~depth ~pipes ~fast node.above
  | Abstraction.Down_down | Abstraction.Up_down ->
      go st ~entry:From_above ~stack ~acc ~depth ~pipes ~fast node.below
  | Abstraction.Phy_phy | Abstraction.Up_phy ->
      go st ~entry:From_phy ~stack ~acc ~depth ~pipes ~fast node.phys
  | Abstraction.Up_up -> ()

and go st ~entry ~stack ~acc ~depth ~pipes ~fast mods =
  for i = 0 to Array.length mods - 1 do
    let m = mods.(i) in
    if Bytes.unsafe_get st.free m = '\001' && st.admit m ~depth ~pipes then
      step st ~pos:m ~entry ~stack ~acc ~depth ~pipes ~fast
  done

(* The protocol of the modules serving address domain [d], as they name
   it; "" (no module's) when the NM knows none. *)
let rec serving graph d e =
  if e >= Potential_graph.size graph then ""
  else
    let node : Potential_graph.node = Potential_graph.node graph e in
    match node.domain with
    | Some d' when String.equal d d' -> node.abs.Abstraction.name
    | _ -> serving graph d (e + 1)

(* Runs from [g_from]; the root stays on the path throughout, so the
   search never steps back onto it. The traversal leaves the view's mask
   as it found it. *)
let traverse ?(prune_domains = true) (v : view) goal ~admit ~complete =
  let st =
    {
      graph = v.graph;
      free = v.free;
      target = v.target;
      prune_domains;
      next_chain = base_ip;
      expanded = 0;
      admit;
      complete;
    }
  in
  let frame =
    {
      h_chain = base_eth;
      h_proto = (Potential_graph.node v.graph v.from).abs.Abstraction.name;
      h_domain = None;
    }
  and packet =
    {
      h_chain = base_ip;
      h_proto = serving v.graph goal.g_customer 0;
      h_domain = Some goal.g_customer;
    }
  in
  step st ~pos:v.from ~entry:From_phy ~stack:[ frame; packet ] ~acc:[] ~depth:0 ~pipes:0 ~fast:0;
  st.expanded

type search = { completed : path list; expanded : int }

(* [prune_domains:false] disables the figure-6(b) address-domain check —
   an ablation showing how many protocol-plausible but semantically invalid
   paths the pruning removes. *)
let enumerate ?prune_domains topo goal =
  let found = ref [] in
  let expanded =
    traverse ?prune_domains (view topo goal) goal
      ~admit:(fun _ ~depth:_ ~pipes:_ -> true)
      ~complete:(fun visits ~pipes:_ ~fast:_ -> found := { visits } :: !found)
  in
  { completed = List.rev !found; expanded }

let find ?prune_domains topo goal = (enumerate ?prune_domains topo goal).completed

(* --- hierarchical two-step traversal (§III-C.3) -------------------------------

   The paper's scalability suggestion: "a hierarchical two-step traversal
   wherein the first step finds paths between devices that have been
   pre-established using a routing algorithm while the next step finds the
   complete module-level path given the device-level path". Step one is a
   BFS over physical connectivity; step two restricts the module-level DFS
   to the devices on that walk, so its cost no longer depends on the rest
   of the network. *)

let find_hierarchical ?prune_domains topo goal =
  match
    Topology.device_walk topo
      ~within:(fun dev -> List.mem dev goal.g_scope)
      ~src:goal.g_from.Ids.dev ~dst:goal.g_to.Ids.dev
  with
  | None -> []
  | Some devices ->
      (* restrict the module-level search to the chosen device walk *)
      find ?prune_domains topo { goal with g_scope = devices }

(* The devices a path visits, in the order it first reaches them. *)
let devices path =
  List.rev
    (List.fold_left
       (fun acc v ->
         let d = v.v_mod.Ids.dev in
         if List.mem d acc then acc else d :: acc)
       [] path.visits)

(* The paper's rendering: "a, g, l, h, b, c, i, d, e, j, n, k, f". *)
let signature path = String.concat ", " (List.map (fun v -> Ids.short v.v_mod) path.visits)

let pp ppf path = Fmt.string ppf (signature path)

(* Counts the up-down pipes a path would instantiate: the chooser's metric
   ("minimize the total number of pipes instantiated in the routers"). *)
let pipe_count path =
  (* one pipe per transition that is not a physical hop, plus the two
     customer-side pipes at the ends are already transitions... transitions
     = |visits| - 1; physical hops are transitions out of Up_phy/Phy_phy *)
  let rec count = function
    | v :: (_ :: _ as rest) ->
        (match v.v_kind with
        | Abstraction.Up_phy | Abstraction.Phy_phy -> 0
        | _ -> 1)
        + count rest
    | _ -> 0
  in
  count path.visits

(* Tie-break: paths through modules advertising fast forwarding win. *)
let fast_modules topo path =
  List.length
    (List.filter
       (fun v -> (Topology.find_module_exn topo v.v_mod).Abstraction.fast_forwarding)
       path.visits)

(* The chooser's order on (pipes, fast-forwarding modules): fewer pipes
   first, then more fast forwarding. [choose] and [best] both rank with it,
   so they cannot drift apart. *)
let compare_cost (p1, f1) (p2, f2) = match compare p1 p2 with 0 -> compare f2 f1 | c -> c

let choose topo paths =
  List.fold_left
    (fun acc p ->
      let cost = (pipe_count p, fast_modules topo p) in
      match acc with Some (_, best) when compare_cost cost best >= 0 -> acc | _ -> Some (p, cost))
    None paths
  |> Option.map fst

(* --- best-first search -----------------------------------------------------------

   [best] returns the path [choose] would pick from the enumeration,
   without enumerating: the same traversal run as a branch-and-bound. It
   carries the partial path's pipe and fast-forwarding counts, keeps the
   first optimum in traversal order as its incumbent, and skips a branch
   once its pipes plus a lower bound on the pipes still to come exceed the
   incumbent's. A skipped branch holds only strictly worse paths, so the
   answer cannot change.

   The bound works at the module level: a shortest path to the target
   module over the potential graph, charging each step exactly what
   [step] charges for it. Lifting traffic to a module above (by [phy=>up] or [down=>up])
   or pushing it to one below (by [down=>down] or [up=>down]) instantiates
   a pipe; a physical hop (by [up=>phy] or [phy=>phy]) does not, and
   neither does completing at the target. Header stacks and the on-path
   flags only remove steps from a real path, so no path from a module
   costs fewer pipes than its bound. *)

(* Every entry's bound for one view: a 0/1 BFS backwards from the target
   over the index's predecessor lists, restricted to the view's mask and
   settling each distance's free closure before the next distance. An
   entry stays [unreached] if it cannot reach the target within the mask;
   the root is reached but never passed through when out of scope. *)
let lower_bounds (v : view) =
  let bound = Array.make (Potential_graph.size v.graph) unreached in
  let settle d queue m =
    if (m = v.from || is_free v m) && bound.(m) > d then begin
      bound.(m) <- d;
      m :: queue
    end
    else queue
  in
  (* [now] holds entries settled at [d], [later] those reached at [d + 1];
     an entry lowered since it was queued is skipped *)
  let rec drain d now later =
    match now with
    | u :: rest when bound.(u) = d && is_free v u ->
        let node : Potential_graph.node = Potential_graph.node v.graph u in
        let later = Array.fold_left (settle (d + 1)) later node.paid_preds in
        drain d (Array.fold_left (settle d) rest node.free_preds) later
    | _ :: rest -> drain d rest later
    | [] -> if later <> [] then drain (d + 1) later []
  in
  if v.target >= 0 then begin
    bound.(v.target) <- 0;
    drain 0 [ v.target ] []
  end;
  bound

let bounds ?usable topo goal =
  let v = view ?usable topo goal in
  let bound = lower_bounds v in
  fun m ->
    match Potential_graph.entry v.graph m with
    | Some i when is_free v i && bound.(i) <> unreached -> Some bound.(i)
    | _ -> None

let best ?(exclude = []) ?(usable = fun _ -> true) topo goal =
  (* the endpoints' usability is checked before the search starts; the
     view admits only the modules of usable in-scope devices *)
  if not (usable goal.g_from.Ids.dev && usable goal.g_to.Ids.dev) then
    (None, { completed = []; expanded = 0 })
  else begin
    let v = view ~usable topo goal in
    let bound = lower_bounds v in
    let incumbent = ref None and completed = ref [] in
    let limit () = match !incumbent with Some (_, (pipes, _)) -> pipes | None -> max_int in
    (* only entries that can still reach the target have a bound *)
    let admit m ~depth:_ ~pipes =
      let lb = bound.(m) in
      lb <> unreached && pipes + lb <= limit ()
    in
    let complete visits ~pipes ~fast =
      let path = { visits } in
      if exclude = [] || not (List.mem (signature path) exclude) then begin
        completed := path :: !completed;
        match !incumbent with
        | Some (_, cost) when compare_cost (pipes, fast) cost >= 0 -> ()
        | _ -> incumbent := Some (path, (pipes, fast))
      end
    in
    let expanded = traverse v goal ~admit ~complete in
    (Option.map fst !incumbent, { completed = List.rev !completed; expanded })
  end

(* --- bounded searches for a failed goal and a journalled path ----------------------- *)

let blockers ?exclude ?usable ~down topo goal =
  match best ?exclude ?usable topo goal with
  | None, search -> (None, search)
  | Some path, search ->
      let on_path d = List.exists (fun v -> v.v_mod.Ids.dev = d) path.visits in
      (Some (List.filter on_path down), search)

(* The labels of a signature, in path order. *)
let labels_of signature =
  let n = String.length signature in
  let rec split start i acc =
    if i >= n then List.rev (String.sub signature start (n - start) :: acc)
    else if i + 1 < n && signature.[i] = ',' && signature.[i + 1] = ' ' then
      split (i + 2) (i + 2) (String.sub signature start (i - start) :: acc)
    else split start (i + 1) acc
  in
  Array.of_list (split 0 0 [])

(* The enumerator's traversal, admitting at each depth only the modules
   the signature names there: a subtree of the same DFS in the same
   order, so its first completed path of full length is the enumerator's
   first path with that signature. It stops admitting once found. *)
let follow topo goal signature =
  let labels = labels_of signature in
  if labels.(0) <> Ids.short goal.g_from then (None, { completed = []; expanded = 0 })
  else begin
    let v = view topo goal in
    let found = ref None in
    let admit m ~depth ~pipes:_ =
      Option.is_none !found
      && depth < Array.length labels
      && (Potential_graph.node v.graph m).Potential_graph.id.Ids.mid = labels.(depth)
    in
    let complete visits ~pipes:_ ~fast:_ =
      if Option.is_none !found && List.length visits = Array.length labels then
        found := Some { visits }
    in
    let expanded = traverse v goal ~admit ~complete in
    (!found, { completed = Option.to_list !found; expanded })
  end
