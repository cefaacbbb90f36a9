(* The NM's view of the network: physical connectivity learnt from Hello
   announcements, module abstractions harvested with showPotential, and the
   address-domain knowledge the NM holds itself (§III-C). *)

type device_info = {
  di_id : string;
  mutable di_links : (string * string * string) list; (* port, peer dev, peer port *)
  mutable di_modules : (Ids.t * Abstraction.t) list;
  mutable di_reachable : bool;
      (* false once the NM exhausts retries against the device; restored on
         a fresh Hello *)
}

(* The potential graph is built from the devices' module lists and the
   domain list, on first use after a change; every change to either drops
   it. Links and reachability are not part of it, and a new device arrives
   with no modules, so adding one changes nothing the graph holds until
   its showPotential drops it. *)
type t = {
  mutable devices : device_info list;
  mutable module_domains : (Ids.t * string) list; (* IP module -> address domain *)
  mutable domain_prefixes : (string * string) list; (* domain -> prefix *)
  mutable graph : Potential_graph.t option;
  mutable graph_builds : int;
}

let create () =
  { devices = []; module_domains = []; domain_prefixes = []; graph = None; graph_builds = 0 }

let graph t =
  match t.graph with
  | Some g -> g
  | None ->
      let g =
        Potential_graph.build
          ~devices:(List.map (fun d -> (d.di_id, d.di_modules)) t.devices)
          ~module_domains:t.module_domains
      in
      t.graph <- Some g;
      t.graph_builds <- t.graph_builds + 1;
      g

let device t id = List.find_opt (fun d -> d.di_id = id) t.devices

let device_or_add t id =
  match device t id with
  | Some d -> d
  | None ->
      let d = { di_id = id; di_links = []; di_modules = []; di_reachable = true } in
      t.devices <- t.devices @ [ d ];
      d

let record_hello t ~src ports = (device_or_add t src).di_links <- ports

(* Unknown devices count as reachable: the NM has no evidence otherwise. *)
let is_reachable t id = match device t id with Some d -> d.di_reachable | None -> true
let set_reachable t id v = (device_or_add t id).di_reachable <- v
let unreachable t = List.filter_map (fun d -> if d.di_reachable then None else Some d.di_id) t.devices

let record_potential t ~src modules =
  (device_or_add t src).di_modules <- modules;
  t.graph <- None

let set_domains t ~module_domains ~domain_prefixes =
  t.module_domains <- module_domains;
  t.domain_prefixes <- domain_prefixes;
  t.graph <- None

(* Device records are copied, so later changes to either side stay apart;
   the graph is immutable and describes the same data, so it is shared. *)
let assign t ~from =
  t.devices <- List.map (fun d -> { d with di_id = d.di_id }) from.devices;
  t.module_domains <- from.module_domains;
  t.domain_prefixes <- from.domain_prefixes;
  t.graph <- from.graph

let find_module t mref =
  Option.bind (device t mref.Ids.dev) (fun d ->
      List.find_map
        (fun (m, a) -> if Ids.equal m mref then Some a else None)
        d.di_modules)

let find_module_exn t mref =
  match find_module t mref with
  | Some a -> a
  | None -> failwith (Fmt.str "topology: unknown module %a" Ids.pp mref)

let modules_of_device t dev =
  match device t dev with Some d -> d.di_modules | None -> []

(* Fewest-hop walk over physical links (BFS), stepping only onto devices
   [within] accepts; neighbours are tried in id order, so the first of
   several equally short walks is the same on every run. *)
let device_walk t ~within ~src ~dst =
  let neighbours dev =
    match device t dev with
    | Some d ->
        List.filter_map (fun (_, peer, _) -> if within peer then Some peer else None) d.di_links
        |> List.sort_uniq compare
    | None -> []
  in
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

(* Renders the network map of figure 4(b)/Table IV. *)
let pp_table4 ppf t =
  List.iter
    (fun d ->
      List.iter
        (fun (m, a) -> Fmt.pf ppf "%a  %a@." Ids.pp m Abstraction.pp_table4_line a)
        d.di_modules)
    t.devices
