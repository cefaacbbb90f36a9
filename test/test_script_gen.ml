(* The script generator and the deletion script against verbatim copies of
   their earlier versions, which scanned lists ([List.assoc] per pipe,
   [List.assoc_opt] per chain neighbour, one filter per device) and looked
   modules up through [Topology]'s lists: prims, per-device slices and
   reporter must match on every enumerated path of the VPN (plain and
   secure, with every trade-off set), the diamond and chains n = 2..8, and
   on the planner's path at n = 20, 64 and 160. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool

module Reference = struct
  open Script_gen

  (* --- chains ----------------------------------------------------------------

     For every header chain, the ordered list of (visit index, module).
     Terminals are the pusher and popper; the base chains have only
     inspectors/endpoint modules. *)

  let chains (path : Path_finder.path) =
    let tbl = Hashtbl.create 8 in
    List.iteri
      (fun i (v : Path_finder.visit) ->
        let cur = try Hashtbl.find tbl v.Path_finder.v_chain with Not_found -> [] in
        Hashtbl.replace tbl v.Path_finder.v_chain ((i, v.Path_finder.v_mod) :: cur))
      path.Path_finder.visits;
    Hashtbl.fold (fun c members acc -> (c, List.rev members) :: acc) tbl []

  (* Chain neighbours of the module at visit [i] in chain [c]. *)
  let chain_prev all c i =
    match List.assoc_opt c all with
    | None -> None
    | Some members ->
        List.fold_left (fun acc (j, m) -> if j < i then Some m else acc) None members

  let chain_next all c i =
    match List.assoc_opt c all with
    | None -> None
    | Some members -> List.find_map (fun (j, m) -> if j > i then Some m else None) members

  let chain_first all c =
    Option.map (fun ms -> snd (List.hd ms)) (List.assoc_opt c all)

  let chain_last all c =
    Option.map (fun ms -> snd (List.hd (List.rev ms))) (List.assoc_opt c all)

  (* The other terminal of [m]'s own chain: the peer a module sees on its up
     pipe (its header travels to that terminal). *)
  let other_terminal all c (m : Ids.t) =
    match (chain_first all c, chain_last all c) with
    | Some f, Some l -> if Ids.equal f m then (if Ids.equal l m then None else Some l) else Some f
    | _ -> None

  (* --- pipes ------------------------------------------------------------------ *)

  type pipe_info = {
    pi_id : string;
    pi_phys : bool;
    pi_top : Ids.t; (* for phys pipes: the two ETH endpoints *)
    pi_bottom : Ids.t;
    pi_spec : Primitive.pipe_spec option; (* None for phys *)
  }

  (* Dependencies the bottom module declares for its up pipes, resolved to
     same-device modules advertising that they provide them (§II-F): e.g. an
     ESP module's "esp-keys" dependency resolves to the local IKE module. *)
  let resolve_deps topo (bottom : Ids.t) =
    match Topology.find_module topo bottom with
    | None -> []
    | Some a -> (
        match a.Abstraction.up with
        | None -> []
        | Some side ->
            List.filter_map
              (fun dep ->
                Topology.modules_of_device topo bottom.Ids.dev
                |> List.find_map (fun (m, ab) ->
                       if List.mem dep ab.Abstraction.provides then Some (dep, m) else None))
              side.Abstraction.dependencies)

  let generate topo (goal : Path_finder.goal) (path : Path_finder.path) =
    let visits = Array.of_list path.Path_finder.visits in
    let n = Array.length visits in
    let all = chains path in
    let endpoint i = i = 0 || i = n - 1 in
    (* peer of the module at visit [i] on a pipe:
       - as pipe bottom (its up pipe): the other terminal of its own chain;
       - as pipe top (its down pipe): the adjacent member of its chain on the
         side the pipe faces;
       - the customer-facing endpoint modules peer with nothing (fig. 7(b)). *)
    let peer_as_bottom i =
      if endpoint i then None
      else
        let v = visits.(i) in
        other_terminal all v.Path_finder.v_chain v.Path_finder.v_mod
    in
    let peer_as_top i ~towards_end =
      if endpoint i then None
      else
        let v = visits.(i) in
        if towards_end then chain_next all v.Path_finder.v_chain i
        else chain_prev all v.Path_finder.v_chain i
    in
    (* one pipe per transition *)
    let counter = ref (-1) in
    let fresh () =
      incr counter;
      Printf.sprintf "P%d" !counter
    in
    let pipes =
      List.init (n - 1) (fun i ->
          let v = visits.(i) and w = visits.(i + 1) in
          let id = fresh () in
          match v.Path_finder.v_kind with
          | Abstraction.Up_phy | Abstraction.Phy_phy ->
              (* physical pipe; referenced, never created *)
              ( i,
                {
                  pi_id = id;
                  pi_phys = true;
                  pi_top = v.Path_finder.v_mod;
                  pi_bottom = w.Path_finder.v_mod;
                  pi_spec = None;
                } )
          | Abstraction.Phy_up | Abstraction.Down_up ->
              (* next module sits on top *)
              let top = w.Path_finder.v_mod and bottom = v.Path_finder.v_mod in
              let spec =
                {
                  Primitive.pipe_id = id;
                  top;
                  bottom;
                  peer_top = peer_as_top (i + 1) ~towards_end:false;
                  peer_bottom = peer_as_bottom i;
                  tradeoffs = [];
                  deps = resolve_deps topo bottom;
                }
              in
              (i, { pi_id = id; pi_phys = false; pi_top = top; pi_bottom = bottom; pi_spec = Some spec })
          | Abstraction.Down_down | Abstraction.Up_down ->
              let top = v.Path_finder.v_mod and bottom = w.Path_finder.v_mod in
              let tradeoffs =
                if bottom.Ids.name = "GRE" then goal.Path_finder.g_tradeoffs else []
              in
              let spec =
                {
                  Primitive.pipe_id = id;
                  top;
                  bottom;
                  peer_top = peer_as_top i ~towards_end:true;
                  peer_bottom = peer_as_bottom (i + 1);
                  tradeoffs;
                  deps = resolve_deps topo bottom;
                }
              in
              (i, { pi_id = id; pi_phys = false; pi_top = top; pi_bottom = bottom; pi_spec = Some spec })
          | Abstraction.Up_up -> assert false)
    in
    let pipe_after i = List.assoc i pipes in
    (* switch rules, one per mid-path visit *)
    let rules =
      List.concat
        (List.init n (fun i ->
             if endpoint i then [] (* customer-facing ETH modules pass through *)
             else
               let v = visits.(i) in
               let entry_pipe = (pipe_after (i - 1)).pi_id in
               let exit_pipe = (pipe_after i).pi_id in
               if
                 v.Path_finder.v_action = Path_finder.Inspect
                 && v.Path_finder.v_chain = Path_finder.base_ip
               then
                 (* a customer-edge IP module: route the customer prefixes *)
                 let first_inspector =
                   match chain_first all Path_finder.base_ip with
                   | Some m -> Ids.equal m v.Path_finder.v_mod
                   | None -> false
                 in
                 (* the source-side edge module enters from the customer and
                    exits into the path; the far edge is the other way round *)
                 let customer_pipe, path_pipe, dst_domain, gateway =
                   if first_inspector then
                     ( entry_pipe,
                       exit_pipe,
                       goal.Path_finder.g_dst_domain,
                       goal.Path_finder.g_src_site ^ "-gateway" )
                   else
                     ( exit_pipe,
                       entry_pipe,
                       goal.Path_finder.g_src_domain,
                       goal.Path_finder.g_dst_site ^ "-gateway" )
                 in
                 [
                   Primitive.Create_switch
                     {
                       owner = v.Path_finder.v_mod;
                       rule =
                         Primitive.Directed
                           {
                             from_pipe = customer_pipe;
                             to_pipe = path_pipe;
                             sel = Primitive.Dst_domain dst_domain;
                           };
                     };
                   Primitive.Create_switch
                     {
                       owner = v.Path_finder.v_mod;
                       rule =
                         Primitive.Directed
                           {
                             from_pipe = path_pipe;
                             to_pipe = customer_pipe;
                             sel = Primitive.To_gateway gateway;
                           };
                     };
                 ]
               else
                 [
                   Primitive.Create_switch
                     {
                       owner = v.Path_finder.v_mod;
                       rule = Primitive.Bidi (entry_pipe, exit_pipe);
                     };
                 ]))
    in
    let creates =
      List.filter_map (fun (_, p) -> Option.map (fun s -> Primitive.Create_pipe s) p.pi_spec) pipes
    in
    let prims = creates @ rules in
    let per_device =
      let devs =
        List.sort_uniq compare (List.map (fun v -> v.Path_finder.v_mod.Ids.dev) path.Path_finder.visits)
      in
      List.map (fun d -> (d, List.filter (fun p -> Primitive.target p = d) prims)) devs
    in
    let reporter =
      List.fold_left
        (fun acc (v : Path_finder.visit) ->
          if v.Path_finder.v_mod.Ids.name = "MPLS" || v.Path_finder.v_mod.Ids.name = "VLAN" then
            Some v.Path_finder.v_mod
          else acc)
        None path.Path_finder.visits
    in
    { prims; per_device; reporter; path }

  (* The inverse script: switch rules removed first (in reverse), then the
     pipes — used by the NM to tear a configured path down. *)
  let deletion_script (s : script) =
    let invert = function
      | Primitive.Create_pipe p ->
          Some (Primitive.Delete_pipe { owner = p.Primitive.top; pipe_id = p.Primitive.pipe_id })
      | Primitive.Create_switch { owner; rule } -> Some (Primitive.Delete_switch { owner; rule })
      | Primitive.Create_filter { owner; drop_src; drop_dst } ->
          Some (Primitive.Delete_filter { owner; drop_src; drop_dst })
      | Primitive.Create_perf { owner; pipe_id; _ } ->
          Some (Primitive.Delete_perf { owner; pipe_id })
      | Primitive.Delete_pipe _ | Primitive.Delete_switch _ | Primitive.Delete_filter _
      | Primitive.Delete_perf _ ->
          None
    in
    let is_pipe_delete = function Primitive.Delete_pipe _ -> true | _ -> false in
    let inverted = List.rev (List.filter_map invert s.prims) in
    let switches, pipes = List.partition (fun p -> not (is_pipe_delete p)) inverted in
    let prims = switches @ pipes in
    let per_device =
      List.map (fun (d, _) -> (d, List.filter (fun p -> Primitive.target p = d) prims)) s.per_device
    in
    { prims; per_device; reporter = None; path = s.path }
end

let body (s : Script_gen.script) =
  (s.Script_gen.prims, s.Script_gen.per_device, s.Script_gen.reporter)

let check_paths name topo goal paths =
  List.iter
    (fun p ->
      let got = Script_gen.generate topo goal p and want = Reference.generate topo goal p in
      let label = Printf.sprintf "%s: %s" name (Path_finder.signature p) in
      check tbool label true (body got = body want);
      check tbool (label ^ " (deletion)") true
        (body (Script_gen.deletion_script got) = body (Reference.deletion_script want)))
    paths

let tradeoff_sets =
  [ []; [ "in-order-delivery" ]; [ "low-error-rate" ]; [ "in-order-delivery"; "low-error-rate" ] ]

let test_vpn () =
  List.iter
    (fun (name, secure) ->
      let v = Scenarios.build_vpn ~secure () in
      let topo = Nm.topology v.Scenarios.nm in
      List.iter
        (fun tradeoffs ->
          let goal = { v.Scenarios.goal with Path_finder.g_tradeoffs = tradeoffs } in
          check_paths
            (Printf.sprintf "%s [%s]" name (String.concat "+" tradeoffs))
            topo goal (Path_finder.find topo goal))
        tradeoff_sets)
    [ ("vpn", false); ("secure vpn", true) ]

let test_diamond_and_chains () =
  let d = Scenarios.build_diamond () in
  let topo = Nm.topology d.Scenarios.dnm in
  check_paths "diamond" topo d.Scenarios.dgoal (Path_finder.find topo d.Scenarios.dgoal);
  for n = 2 to 8 do
    let c = Scenarios.build_chain n in
    let topo = Nm.topology c.Scenarios.cnm in
    check_paths (Printf.sprintf "chain n=%d" n) topo c.Scenarios.cgoal
      (Path_finder.find topo c.Scenarios.cgoal)
  done

let test_long_chains () =
  List.iter
    (fun n ->
      let c = Scenarios.build_chain n in
      let topo = Nm.topology c.Scenarios.cnm in
      check_paths (Printf.sprintf "chain n=%d" n) topo c.Scenarios.cgoal
        (Option.to_list (fst (Path_finder.best topo c.Scenarios.cgoal))))
    [ 20; 64; 160 ]

let () =
  Alcotest.run "script_gen"
    [
      ( "reference",
        [
          Alcotest.test_case "every vpn path, every trade-off set" `Quick test_vpn;
          Alcotest.test_case "every diamond and chain n=2..8 path" `Quick test_diamond_and_chains;
          Alcotest.test_case "the planner's path at n=20/64/160" `Quick test_long_chains;
        ] );
    ]
