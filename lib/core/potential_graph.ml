(* The potential-connectivity graph (§III-C.1, figure 5): which up-down
   pipes could exist between the modules of each device, and which physical
   pipes connect ETH modules across devices. Derived purely from the
   abstractions returned by showPotential.

   The [_in] functions are the one definition: they read a device's module
   list as given, so a caller holding its own index of the topology (the
   path finder's per-search table) derives exactly what [below] and
   [phys_neighbours] derive through [Topology]. *)

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

let below topo (m : Ids.t) =
  below_in (Topology.modules_of_device topo m.Ids.dev) m (Topology.find_module_exn topo m)

let phys_neighbours topo m =
  phys_in ~modules_of:(Topology.modules_of_device topo) m (Topology.find_module_exn topo m)

(* Rendering in the style of figure 5 (device A's potential sub-graph). *)
let pp_device ppf (topo, dev) =
  List.iter
    (fun (m, (a : Abstraction.t)) ->
      let belows = below topo m in
      if belows <> [] then
        Fmt.pf ppf "%a can sit above: %a@." Ids.pp m (Fmt.list ~sep:Fmt.comma Ids.pp) belows;
      List.iter
        (fun (p : Abstraction.physical_pipe) ->
          Fmt.pf ppf "%a has physical pipe %s to %s@." Ids.pp m p.Abstraction.phys_id
            (if p.Abstraction.peer_device = "" then "(edge)" else p.Abstraction.peer_device))
        a.Abstraction.physical;
      let kinds = List.map Abstraction.switch_kind_to_string a.Abstraction.switch in
      if kinds <> [] then Fmt.pf ppf "%a switching: [%s]@." Ids.pp m (String.concat "],[" kinds))
    (Topology.modules_of_device topo dev)
