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

(* What the traversal needs of a module: looked up once per traversal,
   since branches revisit the same modules many times. *)
type node = { abs : Abstraction.t; above : Ids.t list; below : Ids.t list; phys : Ids.t list }

(* One traversal serves both searches. The enumerator admits every
   in-scope module and keeps every completed path; the best-first search
   also bounds what it admits and keeps only an incumbent. *)
type dfs_state = {
  topo : Topology.t;
  goal : goal;
  prune_domains : bool;
  nodes : (Ids.t, node) Hashtbl.t;
  mutable next_chain : int;
  mutable expanded : int;
  admit : Ids.t -> pipes:int -> bool;
      (* may the traversal step onto this module, [pipes] pipes into the
         path? *)
  complete : visit list -> pipes:int -> fast:int -> unit;
      (* a sane path reached the goal: its visits, pipe count and number
         of fast-forwarding modules *)
}

let in_scope goal (m : Ids.t) = List.mem m.Ids.dev goal.g_scope

(* The module's entry in a traversal's table, derived on first use. *)
let node_of topo nodes m =
  match Hashtbl.find_opt nodes m with
  | Some n -> n
  | None ->
      let n =
        {
          abs = Topology.find_module_exn topo m;
          above = Potential_graph.above topo m;
          below = Potential_graph.below topo m;
          phys = List.map (fun (_, remote, _) -> remote) (Potential_graph.phys_neighbours topo m);
        }
      in
      Hashtbl.replace nodes m n;
      n

let domain st m = Topology.domain_of st.topo m

(* What the traversal sees as the outermost header. *)
let logical_top st stack ~eth_missing =
  match stack with
  | h :: _ -> Some h
  | [] ->
      if eth_missing then Some { h_chain = base_ip; h_proto = "IP"; h_domain = Some st.goal.g_customer }
      else Some { h_chain = base_eth; h_proto = "ETH"; h_domain = None }

let domain_compatible st m hdr =
  if (not st.prune_domains) || hdr.h_proto <> "IP" then true
  else
    match (hdr.h_domain, domain st m) with
    | Some a, Some b -> a = b
    | _ -> false (* IP modules without domain knowledge cannot be placed *)

let rec step st ~pos ~entry ~stack ~eth_missing ~visited ~acc ~pipes ~fast =
  st.expanded <- st.expanded + 1;
  let node = node_of st.topo st.nodes pos in
  let abs = node.abs in
  let fast = if abs.Abstraction.fast_forwarding then fast + 1 else fast in
  let visited' = pos :: visited in
  let emit kind action chain next =
    let visit = { v_mod = pos; v_kind = kind; v_action = action; v_chain = chain } in
    (* every transition but a physical hop instantiates a pipe *)
    let pipes =
      match kind with Abstraction.Up_phy | Abstraction.Phy_phy -> pipes | _ -> pipes + 1
    in
    next (visit :: acc) pipes
  in
  let go ~entry ~stack ~eth_missing acc pipes mods =
    List.iter
      (fun m ->
        if (not (List.exists (Ids.equal m) visited')) && st.admit m ~pipes then
          step st ~pos:m ~entry ~stack ~eth_missing ~visited:visited' ~acc ~pipes ~fast)
      mods
  in
  let go_above ~stack ~eth_missing acc pipes =
    go ~entry:From_below ~stack ~eth_missing acc pipes node.above
  in
  let go_below ~stack ~eth_missing acc pipes =
    go ~entry:From_above ~stack ~eth_missing acc pipes node.below
  in
  let go_phys ~stack ~eth_missing acc pipes = go ~entry:From_phy ~stack ~eth_missing acc pipes node.phys in
  (* goal completion: at the target ETH module, entered from above, with all
     transit encapsulations undone — push the customer frame back out. *)
  if
    Ids.equal pos st.goal.g_to && entry = From_above && stack = [] && eth_missing
    && Abstraction.can_switch abs Abstraction.Up_phy
  then begin
    let visit = { v_mod = pos; v_kind = Abstraction.Up_phy; v_action = Push; v_chain = base_eth } in
    st.complete (List.rev (visit :: acc)) ~pipes ~fast
  end
  else
    List.iter
      (fun kind ->
        match (kind, entry) with
        | Abstraction.Phy_up, From_phy -> (
            match stack with
            | h :: rest when h.h_proto = "ETH" -> emit kind Pop h.h_chain (go_above ~stack:rest ~eth_missing)
            | _ :: _ -> ()
            | [] ->
                if not eth_missing then
                  (* popping the customer's own frame: path entry *)
                  emit kind Pop base_eth (go_above ~stack ~eth_missing:true))
        | Abstraction.Phy_phy, From_phy -> (
            match logical_top st stack ~eth_missing with
            | Some h when h.h_proto = "ETH" -> emit kind Inspect h.h_chain (go_phys ~stack ~eth_missing)
            | _ -> ())
        | Abstraction.Down_up, From_below -> (
            match stack with
            | h :: rest when h.h_proto = abs.Abstraction.name && domain_compatible st pos h ->
                emit kind Pop h.h_chain (go_above ~stack:rest ~eth_missing)
            | _ -> () (* base headers are never terminated mid-path *))
        | Abstraction.Down_down, From_below -> (
            match logical_top st stack ~eth_missing with
            | Some h when h.h_proto = abs.Abstraction.name && domain_compatible st pos h ->
                emit kind Inspect h.h_chain (go_below ~stack ~eth_missing)
            | _ -> ())
        | Abstraction.Up_down, From_above ->
            st.next_chain <- st.next_chain + 1;
            let h =
              { h_chain = st.next_chain; h_proto = abs.Abstraction.name; h_domain = domain st pos }
            in
            emit kind Push h.h_chain (go_below ~stack:(h :: stack) ~eth_missing)
        | Abstraction.Up_phy, From_above ->
            st.next_chain <- st.next_chain + 1;
            let h = { h_chain = st.next_chain; h_proto = "ETH"; h_domain = None } in
            emit kind Push h.h_chain (go_phys ~stack:(h :: stack) ~eth_missing)
        | Abstraction.Up_up, _ ->
            (* loopback switching creates no inter-device paths; skipped *)
            ()
        | ( ( Abstraction.Phy_up | Abstraction.Phy_phy | Abstraction.Down_up
            | Abstraction.Down_down | Abstraction.Up_down | Abstraction.Up_phy ),
            _ ) ->
            ())
      abs.Abstraction.switch

let traverse ?(prune_domains = true) topo goal ~nodes ~admit ~complete =
  let st =
    {
      topo;
      goal;
      prune_domains;
      nodes;
      next_chain = base_ip;
      expanded = 0;
      admit;
      complete;
    }
  in
  step st ~pos:goal.g_from ~entry:From_phy ~stack:[] ~eth_missing:false ~visited:[] ~acc:[] ~pipes:0
    ~fast:0;
  st.expanded

type search = { completed : path list; expanded : int }

(* [prune_domains:false] disables the figure-6(b) address-domain check —
   an ablation showing how many protocol-plausible but semantically invalid
   paths the pruning removes. *)
let enumerate ?prune_domains topo goal =
  let found = ref [] in
  let expanded =
    traverse ?prune_domains topo goal ~nodes:(Hashtbl.create 64)
      ~admit:(fun m ~pipes:_ -> in_scope goal m)
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

let device_path topo goal =
  let neighbours dev =
    match Topology.device topo dev with
    | Some d ->
        List.filter_map
          (fun (_, peer, _) -> if List.mem peer goal.g_scope then Some peer else None)
          d.Topology.di_links
        |> List.sort_uniq compare
    | None -> []
  in
  let src = goal.g_from.Ids.dev and dst = goal.g_to.Ids.dev in
  let rec bfs frontier seen =
    match frontier with
    | [] -> None
    | (dev, acc) :: rest ->
        if dev = dst then Some (List.rev (dev :: acc))
        else
          let next =
            List.filter (fun p -> not (List.mem p seen)) (neighbours dev)
            |> List.map (fun p -> (p, dev :: acc))
          in
          bfs (rest @ next) (List.map fst next @ seen)
  in
  bfs [ (src, []) ] [ src ]

let find_hierarchical ?prune_domains topo goal =
  match device_path topo goal with
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
   neither does completing at the target. Header stacks and visited sets
   only remove steps from a real path, so no path from a module costs
   fewer pipes than its bound. *)

(* The traversal's entries for every module of the in-scope devices
   [usable] allows: the only modules [best] may step onto. *)
let module_table topo goal ~usable =
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun dev ->
      if usable dev then
        List.iter
          (fun (m, _) -> ignore (node_of topo nodes m))
          (Topology.modules_of_device topo dev))
    goal.g_scope;
  nodes

(* Fewest pipes from each module of [nodes] to the target; modules that
   cannot reach it within [nodes] are absent. *)
let lower_bounds nodes goal =
  let preds = Hashtbl.create 64 in
  let edge m cost u =
    if Hashtbl.mem nodes u then
      Hashtbl.replace preds u ((m, cost) :: Option.value ~default:[] (Hashtbl.find_opt preds u))
  in
  Hashtbl.iter
    (fun m n ->
      let can kinds = List.exists (Abstraction.can_switch n.abs) kinds in
      if can Abstraction.[ Phy_up; Down_up ] then List.iter (edge m 1) n.above;
      if can Abstraction.[ Down_down; Up_down ] then List.iter (edge m 1) n.below;
      if can Abstraction.[ Up_phy; Phy_phy ] then List.iter (edge m 0) n.phys)
    nodes;
  let dist = Hashtbl.create 64 in
  (* a 0/1-weighted BFS backwards from the target: settle each layer's
     free closure before the next *)
  let rec layer d frontier =
    if frontier <> [] then begin
      let later = ref [] in
      let rec spread = function
        | [] -> ()
        | u :: rest ->
            let now = ref rest in
            List.iter
              (fun (m, cost) ->
                if not (Hashtbl.mem dist m) then
                  if cost = 0 then begin
                    Hashtbl.replace dist m d;
                    now := m :: !now
                  end
                  else later := m :: !later)
              (Option.value ~default:[] (Hashtbl.find_opt preds u));
            spread !now
      in
      spread frontier;
      let next = List.filter (fun m -> not (Hashtbl.mem dist m)) (List.sort_uniq compare !later) in
      List.iter (fun m -> Hashtbl.replace dist m (d + 1)) next;
      layer (d + 1) next
    end
  in
  if Hashtbl.mem nodes goal.g_to then begin
    Hashtbl.replace dist goal.g_to 0;
    layer 0 [ goal.g_to ]
  end;
  dist

let bounds ?(usable = fun _ -> true) topo goal =
  Hashtbl.find_opt (lower_bounds (module_table topo goal ~usable) goal)

let best ?(exclude = []) ?(usable = fun _ -> true) topo goal =
  let nodes = module_table topo goal ~usable in
  let lower = lower_bounds nodes goal in
  let incumbent = ref None and completed = ref [] in
  let limit () = match !incumbent with Some (_, (pipes, _)) -> pipes | None -> max_int in
  (* only modules of usable in-scope devices that can still reach the
     target have a bound; the endpoints' usability is checked before the
     search starts *)
  let admit m ~pipes =
    match Hashtbl.find_opt lower m with Some lb -> pipes + lb <= limit () | None -> false
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
  let expanded =
    if usable goal.g_from.Ids.dev && usable goal.g_to.Ids.dev then
      traverse topo goal ~nodes ~admit ~complete
    else 0
  in
  (Option.map fst !incumbent, { completed = List.rev !completed; expanded })
