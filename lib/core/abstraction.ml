(* The Module Abstraction (CONMan §II-C, Table II): the generic
   self-description every protocol module exposes through showPotential.
   The NM reasons about the network exclusively in these terms. *)

type switch_kind = Up_down | Down_up | Down_down | Up_up | Up_phy | Phy_up | Phy_phy

let switch_kind_to_string = function
  | Up_down -> "up=>down"
  | Down_up -> "down=>up"
  | Down_down -> "down=>down"
  | Up_up -> "up=>up"
  | Up_phy -> "up=>phy"
  | Phy_up -> "phy=>up"
  | Phy_phy -> "phy=>phy"

let switch_kind_of_string = function
  | "up=>down" -> Up_down
  | "down=>up" -> Down_up
  | "down=>down" -> Down_down
  | "up=>up" -> Up_up
  | "up=>phy" -> Up_phy
  | "phy=>up" -> Phy_up
  | "phy=>phy" -> Phy_phy
  | s -> invalid_arg ("switch_kind_of_string: " ^ s)

(* Where the state that drives a switch comes from (Table II): generated
   locally by the module (through peer coordination) or provided by an
   external entity (a control module the paper deliberately omits). *)
type switch_origin = Local | External

(* Performance trade-offs (§II-C.4): named trade-offs a module can enforce
   for a given pipe, without exposing the option that implements them. *)
type tradeoff = { gives : string list; costs : string list }

type pipe_side = {
  connectable : string list; (* module names this side can connect to *)
  dependencies : string list; (* must be satisfied before pipe creation *)
}

type physical_pipe = {
  phys_id : string; (* pipe identifier, e.g. "P-A-eth1" *)
  peer_device : string; (* device id on the other side, "" if unplugged *)
  peer_port : string;
  broadcast : bool;
}

type t = {
  name : string; (* protocol name: "IP", "GRE", "MPLS", "ETH", "VLAN"; opaque to the NM *)
  up : pipe_side option; (* None: module cannot have up pipes *)
  down : pipe_side option;
  physical : physical_pipe list;
  peerable : string list;
  filterable : string list; (* component kinds filter rules may reference *)
  switch : switch_kind list;
  switch_origin : switch_origin;
  multicast : bool;
  perf_reporting : string list; (* counters reported per pipe *)
  perf_tradeoffs : tradeoff list;
  perf_enforcement : string list;
  security : string list;
  (* Control modules (§II-F) "advertise their ability to provide the state
     for certain data modules": the dependency names they satisfy. *)
  provides : string list;
  (* advertised forwarding quality; the paper's NM prefers MPLS because "the
     MPLS abstraction mentions that it offers good forwarding bandwidth" *)
  fast_forwarding : bool;
  (* the module tells the NM when the path it sits on is established (an
     LSP or a VLAN negotiated end to end) *)
  reports_completion : bool;
}

let default =
  {
    name = "";
    up = None;
    down = None;
    physical = [];
    peerable = [];
    filterable = [];
    switch = [];
    switch_origin = Local;
    multicast = false;
    perf_reporting = [];
    perf_tradeoffs = [];
    perf_enforcement = [];
    security = [];
    provides = [];
    fast_forwarding = false;
    reports_completion = false;
  }

let can_switch t k = List.mem k t.switch

(* --- sexp conversions ---------------------------------------------------- *)

let side_to_sexp s =
  Sexp.List
    [
      Sexp.List (List.map Sexp.atom s.connectable);
      Sexp.List (List.map Sexp.atom s.dependencies);
    ]

let side_of_sexp = function
  | Sexp.List [ Sexp.List c; Sexp.List d ] ->
      { connectable = List.map Sexp.to_atom c; dependencies = List.map Sexp.to_atom d }
  | _ -> raise (Sexp.Parse_error "pipe_side")

let phys_to_sexp p =
  Sexp.List
    [ Sexp.atom p.phys_id; Sexp.atom p.peer_device; Sexp.atom p.peer_port; Sexp.of_bool p.broadcast ]

let phys_of_sexp = function
  | Sexp.List [ a; b; c; d ] ->
      {
        phys_id = Sexp.to_atom a;
        peer_device = Sexp.to_atom b;
        peer_port = Sexp.to_atom c;
        broadcast = Sexp.to_bool d;
      }
  | _ -> raise (Sexp.Parse_error "physical_pipe")

let tradeoff_to_sexp t =
  Sexp.List [ Sexp.List (List.map Sexp.atom t.gives); Sexp.List (List.map Sexp.atom t.costs) ]

let tradeoff_of_sexp = function
  | Sexp.List [ Sexp.List g; Sexp.List c ] ->
      { gives = List.map Sexp.to_atom g; costs = List.map Sexp.to_atom c }
  | _ -> raise (Sexp.Parse_error "tradeoff")

let to_sexp t =
  Sexp.List
    [
      Sexp.atom t.name;
      Sexp.of_option side_to_sexp t.up;
      Sexp.of_option side_to_sexp t.down;
      Sexp.List (List.map phys_to_sexp t.physical);
      Sexp.List (List.map Sexp.atom t.peerable);
      Sexp.List (List.map Sexp.atom t.filterable);
      Sexp.List (List.map (fun k -> Sexp.atom (switch_kind_to_string k)) t.switch);
      Sexp.atom (match t.switch_origin with Local -> "local" | External -> "external");
      Sexp.of_bool t.multicast;
      Sexp.List (List.map Sexp.atom t.perf_reporting);
      Sexp.List (List.map tradeoff_to_sexp t.perf_tradeoffs);
      Sexp.List (List.map Sexp.atom t.perf_enforcement);
      Sexp.List (List.map Sexp.atom t.security);
      Sexp.List (List.map Sexp.atom t.provides);
      Sexp.of_bool t.fast_forwarding;
      Sexp.of_bool t.reports_completion;
    ]

let of_sexp = function
  | Sexp.List
      [ name; up; down; phys; peerable; filterable; switch; origin; mcast; perf; trade; enf; sec; prov; fast; reports ]
    ->
      {
        name = Sexp.to_atom name;
        up = Sexp.to_option side_of_sexp up;
        down = Sexp.to_option side_of_sexp down;
        physical = List.map phys_of_sexp (Sexp.to_list phys);
        peerable = List.map Sexp.to_atom (Sexp.to_list peerable);
        filterable = List.map Sexp.to_atom (Sexp.to_list filterable);
        switch = List.map (fun s -> switch_kind_of_string (Sexp.to_atom s)) (Sexp.to_list switch);
        switch_origin =
          (match Sexp.to_atom origin with
          | "local" -> Local
          | "external" -> External
          | s -> raise (Sexp.Parse_error ("switch_origin: " ^ s)));
        multicast = Sexp.to_bool mcast;
        perf_reporting = List.map Sexp.to_atom (Sexp.to_list perf);
        perf_tradeoffs = List.map tradeoff_of_sexp (Sexp.to_list trade);
        perf_enforcement = List.map Sexp.to_atom (Sexp.to_list enf);
        security = List.map Sexp.to_atom (Sexp.to_list sec);
        provides = List.map Sexp.to_atom (Sexp.to_list prov);
        fast_forwarding = Sexp.to_bool fast;
        reports_completion = Sexp.to_bool reports;
      }
  | _ -> raise (Sexp.Parse_error "abstraction")

(* Rendering in the style of the paper's Table III / Table IV. *)
let pp_side ppf = function
  | None -> Fmt.string ppf "None"
  | Some s ->
      Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma string) s.connectable;
      if s.dependencies <> [] then
        Fmt.pf ppf " deps:[%a]" Fmt.(list ~sep:comma string) s.dependencies

let pp_table3 ppf t =
  Fmt.pf ppf "Name           %s@." t.name;
  Fmt.pf ppf "Up.Con-Modules %a@." pp_side t.up;
  Fmt.pf ppf "Down.Con-Mod.  %a@." pp_side t.down;
  Fmt.pf ppf "Physical pipes %s@."
    (if t.physical = [] then "None" else String.concat ", " (List.map (fun p -> p.phys_id) t.physical));
  Fmt.pf ppf "Peerable-Mod.  %a@." Fmt.(list ~sep:comma string) t.peerable;
  Fmt.pf ppf "Filter         %s@."
    (if t.filterable = [] then "Nil" else String.concat ", " t.filterable);
  Fmt.pf ppf "Switch         [%a]@."
    Fmt.(list ~sep:comma string)
    (List.map switch_kind_to_string t.switch);
  Fmt.pf ppf "Perf Reporting %s@."
    (if t.perf_reporting = [] then "Nil" else String.concat ", " t.perf_reporting);
  Fmt.pf ppf "Perf Trade-Off %s@."
    (if t.perf_tradeoffs = [] then "Nil"
     else
       String.concat "; "
         (List.map
            (fun tr ->
              Printf.sprintf "{[%s] Vs [%s]}" (String.concat ", " tr.costs)
                (String.concat ", " tr.gives))
            t.perf_tradeoffs));
  Fmt.pf ppf "Perf Enforce.  %s@."
    (if t.perf_enforcement = [] then "Nil" else String.concat ", " t.perf_enforcement);
  Fmt.pf ppf "Security       %s@." (if t.security = [] then "Nil" else String.concat ", " t.security)

(* One-line rendering in the style of Table IV. *)
let pp_table4_line ppf t =
  let side label = function
    | None -> label ^ ": None"
    | Some s -> Printf.sprintf "%s: {%s}" label (String.concat ", " s.connectable)
  in
  Fmt.pf ppf "%s, %s, Phy: %s, Switching: [%s]"
    (side "Up" t.up) (side "Down" t.down)
    (if t.physical = [] then "None"
     else String.concat "," (List.map (fun p -> "to " ^ p.peer_device) t.physical))
    (String.concat "],[" (List.map switch_kind_to_string t.switch))
