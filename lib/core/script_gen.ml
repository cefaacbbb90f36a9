(* Translation of a chosen path into the CONMan primitive script
   (§III-C.1, figures 7(b) and 8(b)): pipe creations with peer assignments
   derived from the encapsulation chains, followed by switch rules, grouped
   per device for bundle delivery. *)

type script = {
  prims : Primitive.t list; (* full script in path order *)
  per_device : (string * Primitive.t list) list; (* grouped, order preserved *)
  reporter : Ids.t option; (* the last module on the path that reports completion *)
  path : Path_finder.path;
}

(* --- chains ----------------------------------------------------------------

   Every visit acts on one header chain. [chains] gives each visit its
   chain's members (visit indices, in path order) and its position among
   them; the terminals are a chain's first and last members (its pusher
   and popper), and the base chains have only inspectors and endpoint
   modules. *)

let chains visits =
  let n = Array.length visits in
  let tbl = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let c = visits.(i).Path_finder.v_chain in
    match Hashtbl.find_opt tbl c with Some is -> is := i :: !is | None -> Hashtbl.add tbl c (ref [ i ])
  done;
  let members = Array.make n [||] and pos = Array.make n 0 in
  Hashtbl.iter
    (fun _ is ->
      let a = Array.of_list !is in
      Array.iteri
        (fun k i ->
          members.(i) <- a;
          pos.(i) <- k)
        a)
    tbl;
  (members, pos)

(* --- pipes ------------------------------------------------------------------ *)

type pipe_info = { pi_id : string; pi_spec : Primitive.pipe_spec option (* None for phys *) }

(* The abstraction of a module on the path. *)
let abstraction graph m = (Potential_graph.node graph (Potential_graph.entry_exn graph m)).abs

(* Dependencies the bottom module declares for its up pipes, resolved to
   same-device modules advertising that they provide them (§II-F): e.g. an
   ESP module's "esp-keys" dependency resolves to the local IKE module. *)
let resolve_deps graph (bottom : Ids.t) (a : Abstraction.t) =
  match a.Abstraction.up with
  | None -> []
  | Some side ->
      List.filter_map
        (fun dep ->
          Potential_graph.modules_of graph bottom.Ids.dev
          |> List.find_map (fun (m, ab) ->
                 if List.mem dep ab.Abstraction.provides then Some (dep, m) else None))
        side.Abstraction.dependencies

(* Groups [prims] by target device, in the order of [devs]; each group
   keeps the script's order. *)
let group_by_device devs prims =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let d = Primitive.target p in
      match Hashtbl.find_opt groups d with
      | Some group -> group := p :: !group
      | None -> Hashtbl.add groups d (ref [ p ]))
    prims;
  List.map
    (fun d -> (d, match Hashtbl.find_opt groups d with Some group -> List.rev !group | None -> []))
    devs

let generate topo (goal : Path_finder.goal) (path : Path_finder.path) =
  let graph = Topology.graph topo in
  let visits = Array.of_list path.Path_finder.visits in
  let n = Array.length visits in
  let members, pos = chains visits in
  let mod_at i = visits.(i).Path_finder.v_mod in
  let endpoint i = i = 0 || i = n - 1 in
  (* peer of the module at visit [i] on a pipe:
     - as pipe bottom (its up pipe): the other terminal of its own chain;
     - as pipe top (its down pipe): the adjacent member of its chain on the
       side the pipe faces;
     - the customer-facing endpoint modules peer with nothing (fig. 7(b)). *)
  let peer_as_bottom i =
    if endpoint i then None
    else
      let chain = members.(i) and m = mod_at i in
      let first = mod_at chain.(0) and last = mod_at chain.(Array.length chain - 1) in
      if Ids.equal first m then if Ids.equal last m then None else Some last else Some first
  in
  let peer_as_top i ~towards_end =
    if endpoint i then None
    else
      let chain = members.(i) in
      let k = if towards_end then pos.(i) + 1 else pos.(i) - 1 in
      if k < 0 || k >= Array.length chain then None else Some (mod_at chain.(k))
  in
  (* one pipe per transition *)
  let pipes =
    Array.init (n - 1) (fun i ->
        let v = visits.(i) and w = visits.(i + 1) in
        let id = "P" ^ string_of_int i in
        (* a pipe the traffic enters from its top gets the goal's
           trade-offs when its bottom module lists trade-offs (Table III) *)
        let spec ~top ~bottom ~peer_top ~peer_bottom ~downwards =
          let a = abstraction graph bottom in
          Some
            {
              Primitive.pipe_id = id;
              top;
              bottom;
              peer_top;
              peer_bottom;
              tradeoffs =
                (if downwards && a.Abstraction.perf_tradeoffs <> [] then goal.Path_finder.g_tradeoffs
                 else []);
              deps = resolve_deps graph bottom a;
            }
        in
        match v.Path_finder.v_kind with
        | Abstraction.Up_phy | Abstraction.Phy_phy ->
            (* physical pipe; referenced, never created *)
            { pi_id = id; pi_spec = None }
        | Abstraction.Phy_up | Abstraction.Down_up ->
            (* next module sits on top *)
            {
              pi_id = id;
              pi_spec =
                spec ~top:w.Path_finder.v_mod ~bottom:v.Path_finder.v_mod
                  ~peer_top:(peer_as_top (i + 1) ~towards_end:false)
                  ~peer_bottom:(peer_as_bottom i) ~downwards:false;
            }
        | Abstraction.Down_down | Abstraction.Up_down ->
            {
              pi_id = id;
              pi_spec =
                spec ~top:v.Path_finder.v_mod ~bottom:w.Path_finder.v_mod
                  ~peer_top:(peer_as_top i ~towards_end:true)
                  ~peer_bottom:(peer_as_bottom (i + 1))
                  ~downwards:true;
            }
        | Abstraction.Up_up -> assert false)
  in
  (* the switch rules of the mid-path visit [i] *)
  let rules_at i =
    let v = visits.(i) in
    let owner = v.Path_finder.v_mod in
    let entry_pipe = pipes.(i - 1).pi_id and exit_pipe = pipes.(i).pi_id in
    if v.Path_finder.v_action = Path_finder.Inspect && v.Path_finder.v_chain = Path_finder.base_ip
    then begin
      (* a customer-edge module (an inspector of the customer's packet):
         route the customer prefixes; the source-side edge module (the
         chain's first inspector) enters from the customer and exits into
         the path, the far edge the other way round *)
      let first_inspector = Ids.equal (mod_at members.(i).(0)) owner in
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
            owner;
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
            owner;
            rule =
              Primitive.Directed
                {
                  from_pipe = path_pipe;
                  to_pipe = customer_pipe;
                  sel = Primitive.To_gateway gateway;
                };
          };
      ]
    end
    else [ Primitive.Create_switch { owner; rule = Primitive.Bidi (entry_pipe, exit_pipe) } ]
  in
  (* switch rules, one per mid-path visit; the customer-facing modules
     pass through *)
  let rules = List.concat (List.init n (fun i -> if endpoint i then [] else rules_at i)) in
  let creates =
    Array.fold_right
      (fun p acc -> match p.pi_spec with Some s -> Primitive.Create_pipe s :: acc | None -> acc)
      pipes []
  in
  let prims = creates @ rules in
  let per_device =
    let devs = List.map (fun v -> v.Path_finder.v_mod.Ids.dev) path.Path_finder.visits in
    group_by_device (List.sort_uniq compare devs) prims
  in
  let reporter =
    List.fold_left
      (fun acc (v : Path_finder.visit) ->
        if (abstraction graph v.Path_finder.v_mod).Abstraction.reports_completion then
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
  let per_device = group_by_device (List.map fst s.per_device) prims in
  { prims; per_device; reporter = None; path = s.path }

(* Renders a per-device script like the bottom half of figure 7(b). *)
let pp_device_script ppf prims =
  List.iter (fun p -> Fmt.pf ppf "%a@." Primitive.pp p) prims

(* Table V counts for one device's slice of a CONMan script. *)
let table5_counts script ~device =
  match List.assoc_opt device script.per_device with
  | Some prims -> Primitive.table5_counts prims
  | None -> Primitive.table5_counts []
