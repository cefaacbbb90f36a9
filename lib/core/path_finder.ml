(* The NM's path finder (§III-C.1): a depth-first traversal of the
   potential-connectivity graph that tracks encapsulation and
   decapsulation so only protocol-"sane" paths survive, and prunes paths
   that would peer IP modules from different address domains (figure 6).

   A path is the sequence of modules customer traffic crosses between the
   two customer-facing ETH modules of the goal. Customer traffic itself is
   modelled as two base headers (the customer's Ethernet frame and IP
   packet): [phy=>up] at the first module pops the base Ethernet header,
   and the final [up=>phy] at the target restores it. *)

type action = Push | Pop | Inspect

type visit = {
  v_mod : Ids.t;
  v_kind : Abstraction.switch_kind;
  v_action : action;
  v_chain : int; (* 0 = base ETH, 1 = base (customer) IP, >=2 pushed headers *)
}

type path = { visits : visit list }

type goal = {
  g_from : Ids.t; (* customer-facing ETH module at the source site *)
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

(* a pushed header on the logical stack *)
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
  customer_ip : hdr; (* the customer's packet, outermost once its frame is popped *)
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

let customer_eth = { h_chain = base_eth; h_proto = "ETH"; h_domain = None }

(* What the traversal sees as the outermost header. *)
let logical_top st stack ~eth_missing =
  match stack with h :: _ -> h | [] -> if eth_missing then st.customer_ip else customer_eth

let domain_compatible st (node : Potential_graph.node) hdr =
  if (not st.prune_domains) || hdr.h_proto <> "IP" then true
  else
    match (hdr.h_domain, node.domain) with
    | Some a, Some b -> a = b
    | _ -> false (* IP modules without domain knowledge cannot be placed *)

(* every transition but a physical hop instantiates a pipe *)
let pipes_after kind pipes =
  match kind with Abstraction.Up_phy | Abstraction.Phy_phy -> pipes | _ -> pipes + 1

let rec step st ~pos ~entry ~stack ~eth_missing ~acc ~depth ~pipes ~fast =
  st.expanded <- st.expanded + 1;
  let node : Potential_graph.node = Potential_graph.node st.graph pos in
  let abs = node.abs in
  let fast = if abs.Abstraction.fast_forwarding then fast + 1 else fast in
  let visit kind action chain =
    { v_mod = node.id; v_kind = kind; v_action = action; v_chain = chain } :: acc
  in
  (* take [kind] here, then try each of [mods], entered as [entry] *)
  let next kind action chain ~entry ~stack ~eth_missing mods =
    go st ~entry ~stack ~eth_missing ~acc:(visit kind action chain) ~depth:(depth + 1)
      ~pipes:(pipes_after kind pipes) ~fast mods
  in
  let was_free = Bytes.unsafe_get st.free pos in
  Bytes.unsafe_set st.free pos '\000';
  (* goal completion: at the target ETH module, entered from above, with all
     transit encapsulations undone — push the customer frame back out. *)
  if
    pos = st.target && entry = From_above && stack = [] && eth_missing
    && Abstraction.can_switch abs Abstraction.Up_phy
  then st.complete (List.rev (visit Abstraction.Up_phy Push base_eth)) ~pipes ~fast
  else
    List.iter
      (fun kind ->
        match (kind, entry) with
        | Abstraction.Phy_up, From_phy -> (
            match stack with
            | h :: rest when h.h_proto = "ETH" ->
                next kind Pop h.h_chain ~entry:From_below ~stack:rest ~eth_missing node.above
            | _ :: _ -> ()
            | [] ->
                if not eth_missing then
                  (* popping the customer's own frame: path entry *)
                  next kind Pop base_eth ~entry:From_below ~stack ~eth_missing:true node.above)
        | Abstraction.Phy_phy, From_phy ->
            let h = logical_top st stack ~eth_missing in
            if h.h_proto = "ETH" then
              next kind Inspect h.h_chain ~entry:From_phy ~stack ~eth_missing node.phys
        | Abstraction.Down_up, From_below -> (
            match stack with
            | h :: rest when h.h_proto = abs.Abstraction.name && domain_compatible st node h ->
                next kind Pop h.h_chain ~entry:From_below ~stack:rest ~eth_missing node.above
            | _ -> () (* base headers are never terminated mid-path *))
        | Abstraction.Down_down, From_below ->
            let h = logical_top st stack ~eth_missing in
            if h.h_proto = abs.Abstraction.name && domain_compatible st node h then
              next kind Inspect h.h_chain ~entry:From_above ~stack ~eth_missing node.below
        | Abstraction.Up_down, From_above ->
            st.next_chain <- st.next_chain + 1;
            let h =
              { h_chain = st.next_chain; h_proto = abs.Abstraction.name; h_domain = node.domain }
            in
            next kind Push h.h_chain ~entry:From_above ~stack:(h :: stack) ~eth_missing node.below
        | Abstraction.Up_phy, From_above ->
            st.next_chain <- st.next_chain + 1;
            let h = { h_chain = st.next_chain; h_proto = "ETH"; h_domain = None } in
            next kind Push h.h_chain ~entry:From_phy ~stack:(h :: stack) ~eth_missing node.phys
        | Abstraction.Up_up, _ ->
            (* loopback switching creates no inter-device paths; skipped *)
            ()
        | ( ( Abstraction.Phy_up | Abstraction.Phy_phy | Abstraction.Down_up
            | Abstraction.Down_down | Abstraction.Up_down | Abstraction.Up_phy ),
            _ ) ->
            ())
      abs.Abstraction.switch;
  Bytes.unsafe_set st.free pos was_free

and go st ~entry ~stack ~eth_missing ~acc ~depth ~pipes ~fast mods =
  for i = 0 to Array.length mods - 1 do
    let m = mods.(i) in
    if Bytes.unsafe_get st.free m = '\001' && st.admit m ~depth ~pipes then
      step st ~pos:m ~entry ~stack ~eth_missing ~acc ~depth ~pipes ~fast
  done

(* Runs from [g_from]; the root stays on the path throughout, so the
   search never steps back onto it. The traversal leaves the view's mask
   as it found it. *)
let traverse ?(prune_domains = true) (v : view) goal ~admit ~complete =
  let st =
    {
      graph = v.graph;
      free = v.free;
      target = v.target;
      customer_ip = { h_chain = base_ip; h_proto = "IP"; h_domain = Some goal.g_customer };
      prune_domains;
      next_chain = base_ip;
      expanded = 0;
      admit;
      complete;
    }
  in
  step st ~pos:v.from ~entry:From_phy ~stack:[] ~eth_missing:false ~acc:[] ~depth:0 ~pipes:0
    ~fast:0;
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
