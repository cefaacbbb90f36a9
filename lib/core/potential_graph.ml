(* The potential-connectivity graph (§III-C.1, figure 5): which up-down
   pipes could exist between the modules of each device, and which physical
   pipes connect ETH modules across devices. Derived purely from the
   abstractions returned by showPotential.

   The [_in] functions are the one definition of the edges: they read a
   device's module list as given. [build] numbers every module once and
   stores those edges as entry numbers; the topology keeps the result until
   a change to what it reads drops it, and every search runs over it. *)

let connectable (top : Abstraction.t) (bottom : Abstraction.t) =
  let mem name = function Some s -> List.mem name s.Abstraction.connectable | None -> false in
  mem bottom.Abstraction.name top.Abstraction.down && mem top.Abstraction.name bottom.Abstraction.up

(* Modules of [modules] (m's device) that [m] could have a down pipe to. *)
let below_in modules (m : Ids.t) am =
  List.filter_map
    (fun (other, a) -> if (not (Ids.equal other m)) && connectable am a then Some other else None)
    modules

(* Modules of [modules] (m's device) that could sit above [m]. *)
let above_in modules (m : Ids.t) am =
  List.filter_map
    (fun (other, a) -> if (not (Ids.equal other m)) && connectable a am then Some other else None)
    modules

(* Physical neighbours of an ETH module: (phys pipe id, remote ETH module,
   remote phys pipe id). The remote module is the ETH module of the peer
   device that lists the peer port among its physical pipes. *)
let phys_in ~modules_of (m : Ids.t) (am : Abstraction.t) =
  let facing_us (q : Abstraction.physical_pipe) = q.Abstraction.peer_device = m.Ids.dev in
  List.filter_map
    (fun (p : Abstraction.physical_pipe) ->
      if p.Abstraction.peer_device = "" then None
      else
        modules_of p.Abstraction.peer_device
        |> List.find_map (fun (other, a) ->
               if a.Abstraction.name = "ETH" && List.exists facing_us a.Abstraction.physical then
                 (* the remote module's phys pipe id facing us *)
                 let remote_phys =
                   List.find_map
                     (fun (q : Abstraction.physical_pipe) ->
                       if facing_us q then Some q.Abstraction.phys_id else None)
                     a.Abstraction.physical
                 in
                 Some (p.Abstraction.phys_id, other, Option.value ~default:"" remote_phys)
               else None))
    am.Abstraction.physical

(* --- the index ----------------------------------------------------------------

   Every module is numbered once, device by device in the order given and
   each device's modules in list order; the first listing of a device or a
   module wins, as in [Topology.device] and [Topology.find_module]. A node
   holds its module's abstraction, its address domain and its neighbours
   as entry numbers, in the graph's order (module-list order above and
   below, port order across physical pipes). The predecessor lists serve
   the path finder's backward lower bound: [paid_preds] are the entries
   with a pipe-instantiating step onto this one, [free_preds] those with a
   physical hop onto it. Nothing in an index changes after [build]. *)

type node = {
  id : Ids.t;
  abs : Abstraction.t;
  domain : string option;
  above : int array;
  below : int array;
  phys : int array;
  paid_preds : int array;
  free_preds : int array;
}

type device = {
  d_modules : (Ids.t * Abstraction.t) list; (* as the topology lists them *)
  d_entries : int array; (* the entry of each listed module, in list order *)
}

type t = {
  nodes : node array;
  entries : (Ids.t, int) Hashtbl.t;
  devices : (string, device) Hashtbl.t;
}

let build ~devices ~module_domains =
  let entries = Hashtbl.create 64 and by_dev = Hashtbl.create 32 in
  let numbered = ref [] and count = ref 0 in
  List.iter
    (fun (dev, mods) ->
      if not (Hashtbl.mem by_dev dev) then begin
        List.iter
          (fun (m, a) ->
            if not (Hashtbl.mem entries m) then begin
              Hashtbl.add entries m !count;
              numbered := (m, a) :: !numbered;
              incr count
            end)
          mods;
        let d_entries = Array.of_list (List.map (fun (m, _) -> Hashtbl.find entries m) mods) in
        Hashtbl.add by_dev dev { d_modules = mods; d_entries }
      end)
    devices;
  let domains = Hashtbl.create 64 in
  List.iter
    (fun (m, dom) -> if not (Hashtbl.mem domains m) then Hashtbl.add domains m dom)
    module_domains;
  let modules_of dev = match Hashtbl.find_opt by_dev dev with Some d -> d.d_modules | None -> [] in
  let entries_of ms = Array.of_list (List.filter_map (Hashtbl.find_opt entries) ms) in
  let n = !count in
  let adjacency =
    Array.of_list
      (List.rev_map
         (fun (m, a) ->
           let mods = modules_of m.Ids.dev in
           ( (m, a),
             entries_of (above_in mods m a),
             entries_of (below_in mods m a),
             entries_of (List.map (fun (_, remote, _) -> remote) (phys_in ~modules_of m a)) ))
         !numbered)
  in
  let paid = Array.make n [] and free = Array.make n [] in
  Array.iteri
    (fun e ((_, a), above, below, phys) ->
      let can kinds = List.exists (Abstraction.can_switch a) kinds in
      let pred preds u = preds.(u) <- e :: preds.(u) in
      if can Abstraction.[ Phy_up; Down_up ] then Array.iter (pred paid) above;
      if can Abstraction.[ Down_down; Up_down ] then Array.iter (pred paid) below;
      if can Abstraction.[ Up_phy; Phy_phy ] then Array.iter (pred free) phys)
    adjacency;
  let nodes =
    Array.mapi
      (fun e ((m, a), above, below, phys) ->
        {
          id = m;
          abs = a;
          domain = Hashtbl.find_opt domains m;
          above;
          below;
          phys;
          paid_preds = Array.of_list paid.(e);
          free_preds = Array.of_list free.(e);
        })
      adjacency
  in
  { nodes; entries; devices = by_dev }

let size g = Array.length g.nodes
let node g e = g.nodes.(e)
let entry g m = Hashtbl.find_opt g.entries m

let entry_exn g m =
  match Hashtbl.find_opt g.entries m with
  | Some e -> e
  | None -> failwith (Fmt.str "topology: unknown module %a" Ids.pp m)

let find g m = Option.map (fun e -> g.nodes.(e).abs) (entry g m)

let modules_of g dev =
  match Hashtbl.find_opt g.devices dev with Some d -> d.d_modules | None -> []

let device_entries g dev =
  match Hashtbl.find_opt g.devices dev with Some d -> d.d_entries | None -> [||]

let below g m = Array.to_list (Array.map (fun e -> g.nodes.(e).id) g.nodes.(entry_exn g m).below)

let phys_neighbours g m = phys_in ~modules_of:(modules_of g) m g.nodes.(entry_exn g m).abs

(* Rendering in the style of figure 5 (device A's potential sub-graph). *)
let pp_device ppf (g, dev) =
  List.iter
    (fun (m, (a : Abstraction.t)) ->
      let belows = below g m in
      if belows <> [] then
        Fmt.pf ppf "%a can sit above: %a@." Ids.pp m (Fmt.list ~sep:Fmt.comma Ids.pp) belows;
      List.iter
        (fun (p : Abstraction.physical_pipe) ->
          Fmt.pf ppf "%a has physical pipe %s to %s@." Ids.pp m p.Abstraction.phys_id
            (if p.Abstraction.peer_device = "" then "(edge)" else p.Abstraction.peer_device))
        a.Abstraction.physical;
      let kinds = List.map Abstraction.switch_kind_to_string a.Abstraction.switch in
      if kinds <> [] then Fmt.pf ppf "%a switching: [%s]@." Ids.pp m (String.concat "],[" kinds))
    (modules_of g dev)
