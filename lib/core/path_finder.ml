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

(* --- the search table --------------------------------------------------------------

   Each search numbers the modules it may visit once, up front: [g_from]
   as entry 0, then every module of the usable in-scope devices in
   [g_scope] order. An entry holds what the traversal reads of its module
   and its potential-graph neighbours as entry numbers, in the graph's
   order, so a search state costs array reads. Neighbours outside the
   table are dropped: the search may not step onto them. The table lives
   for one search; nothing is cached across goals. *)

type node = {
  id : Ids.t;
  abs : Abstraction.t;
  domain : string option; (* the module's address domain, if the NM knows one *)
  above : int array;
  below : int array;
  phys : int array;
  mutable bound : int; (* fewest pipes to the target, [unreached] if none *)
  mutable on_path : bool; (* on the partial path being extended *)
}

type table = {
  nodes : node array;
  index : (Ids.t, int) Hashtbl.t; (* the in-scope entries; [g_from] only if in scope *)
  target : int; (* [g_to]'s entry, or -1 when it is out of scope *)
}

let unreached = max_int

let table ?(usable = fun _ -> true) topo goal =
  (* one pass each over the devices and the domain list; the first match
     wins, as in [Topology.device] and [Topology.domain_of] *)
  let devices = Hashtbl.create 64 and domains = Hashtbl.create 64 in
  List.iter
    (fun (d : Topology.device_info) ->
      if not (Hashtbl.mem devices d.Topology.di_id) then
        Hashtbl.add devices d.Topology.di_id d.Topology.di_modules)
    topo.Topology.devices;
  List.iter
    (fun (m, dom) -> if not (Hashtbl.mem domains m) then Hashtbl.add domains m dom)
    topo.Topology.module_domains;
  let modules_of dev = Option.value ~default:[] (Hashtbl.find_opt devices dev) in
  let index = Hashtbl.create 64 in
  let numbered = ref [ (goal.g_from, Topology.find_module_exn topo goal.g_from) ] in
  let count = ref 1 in
  List.iter
    (fun dev ->
      if usable dev then
        List.iter
          (fun (m, a) ->
            if Ids.equal m goal.g_from then Hashtbl.replace index m 0
            else if not (Hashtbl.mem index m) then begin
              Hashtbl.add index m !count;
              numbered := (m, a) :: !numbered;
              incr count
            end)
          (modules_of dev))
    goal.g_scope;
  let entries ms = Array.of_list (List.filter_map (Hashtbl.find_opt index) ms) in
  let node (m, a) =
    let mods = modules_of m.Ids.dev in
    {
      id = m;
      abs = a;
      domain = Hashtbl.find_opt domains m;
      above = entries (Potential_graph.above_in mods m a);
      below = entries (Potential_graph.below_in mods m a);
      phys =
        entries (List.map (fun (_, remote, _) -> remote) (Potential_graph.phys_in ~modules_of m a));
      bound = unreached;
      on_path = false;
    }
  in
  {
    nodes = Array.of_list (List.rev_map node !numbered);
    index;
    target = Option.value ~default:(-1) (Hashtbl.find_opt index goal.g_to);
  }

(* --- the traversal -------------------------------------------------------------------- *)

(* One traversal serves both searches. The enumerator admits every
   entry and keeps every completed path; the best-first search also
   bounds what it admits and keeps only an incumbent. *)
type dfs_state = {
  nodes : node array;
  target : int;
  customer_ip : hdr; (* the customer's packet, outermost once its frame is popped *)
  prune_domains : bool;
  mutable next_chain : int;
  mutable expanded : int;
  admit : int -> pipes:int -> bool;
      (* may the traversal step onto this entry, [pipes] pipes into the
         path? *)
  complete : visit list -> pipes:int -> fast:int -> unit;
      (* a sane path reached the goal: its visits, pipe count and number
         of fast-forwarding modules *)
}

let customer_eth = { h_chain = base_eth; h_proto = "ETH"; h_domain = None }

(* What the traversal sees as the outermost header. *)
let logical_top st stack ~eth_missing =
  match stack with h :: _ -> h | [] -> if eth_missing then st.customer_ip else customer_eth

let domain_compatible st node hdr =
  if (not st.prune_domains) || hdr.h_proto <> "IP" then true
  else
    match (hdr.h_domain, node.domain) with
    | Some a, Some b -> a = b
    | _ -> false (* IP modules without domain knowledge cannot be placed *)

(* every transition but a physical hop instantiates a pipe *)
let pipes_after kind pipes =
  match kind with Abstraction.Up_phy | Abstraction.Phy_phy -> pipes | _ -> pipes + 1

let rec step st ~pos ~entry ~stack ~eth_missing ~acc ~pipes ~fast =
  st.expanded <- st.expanded + 1;
  let node = st.nodes.(pos) in
  let abs = node.abs in
  let fast = if abs.Abstraction.fast_forwarding then fast + 1 else fast in
  let visit kind action chain =
    { v_mod = node.id; v_kind = kind; v_action = action; v_chain = chain } :: acc
  in
  (* take [kind] here, then try each of [mods], entered as [entry] *)
  let next kind action chain ~entry ~stack ~eth_missing mods =
    go st ~entry ~stack ~eth_missing ~acc:(visit kind action chain) ~pipes:(pipes_after kind pipes)
      ~fast mods
  in
  node.on_path <- true;
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
  node.on_path <- false

and go st ~entry ~stack ~eth_missing ~acc ~pipes ~fast mods =
  for i = 0 to Array.length mods - 1 do
    let m = mods.(i) in
    if (not st.nodes.(m).on_path) && st.admit m ~pipes then
      step st ~pos:m ~entry ~stack ~eth_missing ~acc ~pipes ~fast
  done

(* Runs from [g_from], entry 0; the root stays on the path throughout, so
   the search never steps back onto it. *)
let traverse ?(prune_domains = true) (t : table) goal ~admit ~complete =
  let st =
    {
      nodes = t.nodes;
      target = t.target;
      customer_ip = { h_chain = base_ip; h_proto = "IP"; h_domain = Some goal.g_customer };
      prune_domains;
      next_chain = base_ip;
      expanded = 0;
      admit;
      complete;
    }
  in
  step st ~pos:0 ~entry:From_phy ~stack:[] ~eth_missing:false ~acc:[] ~pipes:0 ~fast:0;
  st.expanded

type search = { completed : path list; expanded : int }

(* [prune_domains:false] disables the figure-6(b) address-domain check —
   an ablation showing how many protocol-plausible but semantically invalid
   paths the pruning removes. *)
let enumerate ?prune_domains topo goal =
  let found = ref [] in
  let expanded =
    traverse ?prune_domains (table topo goal) goal
      ~admit:(fun _ ~pipes:_ -> true)
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

(* Fills every entry's [bound]: a 0/1 BFS backwards from the target over
   predecessor lists, settling each distance's free closure before the
   next distance. An entry stays [unreached] if it cannot reach the
   target within the table. *)
let lower_bounds (t : table) =
  let n = Array.length t.nodes in
  let free = Array.make n [] and paid = Array.make n [] in
  Array.iteri
    (fun m node ->
      let can kinds = List.exists (Abstraction.can_switch node.abs) kinds in
      let pred preds u = preds.(u) <- m :: preds.(u) in
      if can Abstraction.[ Phy_up; Down_up ] then Array.iter (pred paid) node.above;
      if can Abstraction.[ Down_down; Up_down ] then Array.iter (pred paid) node.below;
      if can Abstraction.[ Up_phy; Phy_phy ] then Array.iter (pred free) node.phys)
    t.nodes;
  let settle d queue m =
    let node = t.nodes.(m) in
    if node.bound > d then begin
      node.bound <- d;
      m :: queue
    end
    else queue
  in
  (* [now] holds entries settled at [d], [later] those reached at [d + 1];
     an entry lowered since it was queued is skipped *)
  let rec drain d now later =
    match now with
    | u :: rest when t.nodes.(u).bound = d ->
        let later = List.fold_left (settle (d + 1)) later paid.(u) in
        drain d (List.fold_left (settle d) rest free.(u)) later
    | _ :: rest -> drain d rest later
    | [] -> if later <> [] then drain (d + 1) later []
  in
  if t.target >= 0 then begin
    t.nodes.(t.target).bound <- 0;
    drain 0 [ t.target ] []
  end

let bounds ?usable topo goal =
  let t = table ?usable topo goal in
  lower_bounds t;
  fun m ->
    match Hashtbl.find_opt t.index m with
    | Some i when t.nodes.(i).bound <> unreached -> Some t.nodes.(i).bound
    | _ -> None

let best ?(exclude = []) ?(usable = fun _ -> true) topo goal =
  (* the endpoints' usability is checked before the search starts; the
     table holds only the modules of usable in-scope devices *)
  if not (usable goal.g_from.Ids.dev && usable goal.g_to.Ids.dev) then
    (None, { completed = []; expanded = 0 })
  else begin
    let t = table ~usable topo goal in
    lower_bounds t;
    let incumbent = ref None and completed = ref [] in
    let limit () = match !incumbent with Some (_, (pipes, _)) -> pipes | None -> max_int in
    (* only entries that can still reach the target have a bound *)
    let admit m ~pipes =
      let lb = t.nodes.(m).bound in
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
    let expanded = traverse t goal ~admit ~complete in
    (Option.map fst !incumbent, { completed = List.rev !completed; expanded })
  end
