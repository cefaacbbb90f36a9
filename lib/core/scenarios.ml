(* Ready-made CONMan deployments of the paper's experimental set-ups:
   the figure-4 VPN testbed and the figure-9 switch chain, with management
   agents, protocol modules and an NM wired to either management channel
   (§III-A: pre-configured out-of-band, or raw in-band flooding). Each is a
   layout, the modules every managed device runs and the NM station its
   agent reports to, put up by [deploy] and learnt by [discover]. *)

open Netsim

let nm_station_id = "id-NM"

(* Station id of the warm-standby NM in HA deployments (see Ha). *)
let standby_station_id = "id-NM2"

type channel_kind = [ `Oob | `Raw ]

(* --- deploying a layout ---------------------------------------------------------- *)

type spec =
  | Eth of string * int
  | Switch of string
  | Ip of string * string list * string
  | Gre of string
  | Esp of string
  | Ike of string
  | Mpls of string
  | Vlan of string

type node = { device : Device.t; station : string; modules : spec list }

type deployment = {
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t;
  transport : Mgmt.Reliable.t;
  admission : Mgmt.Admission.t;
  agents : (Device.t * Agent.t) list; (* in layout order *)
  ip_handles : (string * Ip_module.handle) list; (* module id -> handle, newest first *)
}

(* The NM-side knowledge every deployment shares: where customer C1's two
   sites live. *)
let customer_prefixes = [ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ]

(* Creates a device's agent, homed to [station], and registers its modules
   in order; returns the agent and its IP modules' handles, newest first. *)
let start_agent chan net { device = dev; station; modules } =
  let agent = Agent.create ~chan ~nm_device:station dev in
  let env = Agent.env agent in
  let mref name mid = Ids.v name mid dev.Device.dev_id in
  let eth mid ports ~switching =
    let neighbours i =
      Net.neighbours net dev i
      |> List.map (fun (d, pi) -> (d.Device.dev_id, (Device.port d pi).Device.port_name))
    in
    Eth_module.make ~env ~mref:(mref "ETH" mid) ~ports ~switching ~neighbours ()
  in
  let handles = ref [] in
  List.iter
    (fun spec ->
      Agent.register agent
        (match spec with
        | Eth (mid, port) -> eth mid [ port ] ~switching:false
        | Switch mid -> eth mid (List.init (Array.length dev.Device.ports) Fun.id) ~switching:true
        | Ip (mid, ifaces, domain) ->
            let impl, handle = Ip_module.make ~env ~mref:(mref "IP" mid) ~ifaces ~domain () in
            handles := (mid, handle) :: !handles;
            impl
        | Gre mid -> Gre_module.make ~env ~mref:(mref "GRE" mid) ()
        | Esp mid -> Esp_module.make ~env ~mref:(mref "ESP" mid) ()
        | Ike mid -> Ike_module.make ~env ~mref:(mref "IKE" mid) ()
        | Mpls mid -> Mpls_module.make ~env ~mref:(mref "MPLS" mid) ()
        | Vlan mid -> Vlan_module.make ~env ~mref:(mref "VLAN" mid) ()))
    modules;
  (agent, !handles)

(* Builds the channel stack: base channel (Oob or Raw), fault-injection
   layer, reliable delivery, overload admission on top. The fault layer is
   a no-op and the admission layer passes everything until a knob is
   turned, so every deployment can be made lossy ([fault_seed] keeps it
   deterministic) and the NM always has a transport to learn give-ups
   from. For the raw in-band channel a management station device is
   created and wired to [attach_to]. Then starts the layout's agents, in
   order. *)
let deploy ?(fault_seed = 42) kind net ~attach_to layout =
  let base =
    match kind with
    | `Oob -> Mgmt.Channel.Oob.create (Net.eq net)
    | `Raw ->
        let chan, attach = Mgmt.Channel.Raw.create () in
        let nms = Net.add_device net ~id:nm_station_id ~name:"NMS" in
        ignore (Device.add_port ~name:"mgmt0" nms);
        let host_port = Device.add_port ~name:"mgmt" attach_to in
        let _ =
          Net.connect net ~name:"NMS-uplink" (nms, 0) (attach_to, host_port.Device.port_index)
        in
        List.iter attach (nms :: List.map (fun n -> n.device) layout);
        chan
  in
  let faulty, faults = Mgmt.Faults.wrap ~seed:fault_seed ~eq:(Net.eq net) base in
  let reliable, transport = Mgmt.Reliable.create ~eq:(Net.eq net) faulty in
  let chan, admission = Mgmt.Admission.wrap ~eq:(Net.eq net) reliable in
  let started = List.map (start_agent chan net) layout in
  {
    chan;
    faults;
    transport;
    admission;
    agents = List.map2 (fun n (agent, _) -> (n.device, agent)) layout started;
    ip_handles = List.concat_map snd (List.rev started);
  }

(* One NM's bring-up: the agents in [announce] say Hello, the NM harvests
   the showPotential of the layout's devices homed to its station, in
   layout order, and is told which address domain each of their IP modules
   serves (newest registration first). An NM that learns no IP module
   learns no customer prefixes either. *)
let discover nm ~announce net layout =
  List.iter (fun a -> Agent.announce a net) announce;
  Nm.run nm;
  let mine = List.filter (fun n -> n.station = Nm.my_id nm) layout in
  Nm.harvest_potentials nm (List.map (fun n -> n.device.Device.dev_id) mine);
  let ip n = function
    | Ip (mid, _, domain) -> Some (Ids.v "IP" mid n.device.Device.dev_id, domain)
    | _ -> None
  in
  match List.rev (List.concat_map (fun n -> List.filter_map (ip n) n.modules) mine) with
  | [] -> ()
  | module_domains ->
      Topology.set_domains (Nm.topology nm) ~module_domains ~domain_prefixes:customer_prefixes

(* A device managed by the single NM of the deployments below. *)
let node device modules = { device; station = nm_station_id; modules }

let scope_of layout = List.map (fun n -> n.device.Device.dev_id) layout
let announce_all d = List.map snd d.agents

(* --- figure 4: the VPN testbed --------------------------------------------- *)

type vpn = {
  tb : Testbeds.vpn;
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t;
  transport : Mgmt.Reliable.t;
  admission : Mgmt.Admission.t;
  nm : Nm.t;
  goal : Path_finder.goal;
  scope : string list;
  agents : (string * Agent.t) list; (* device name -> agent *)
  ip_handles : (string * Ip_module.handle) list; (* module id -> handle *)
}

(* Customer C1's goal: connect its sites S1 and S2. *)
let vpn_goal ?(tradeoffs = [ "in-order-delivery"; "low-error-rate" ]) () =
  {
    Path_finder.g_from = Ids.v "ETH" "a" "id-A";
    g_to = Ids.v "ETH" "f" "id-C";
    g_customer = "C1";
    g_src_domain = "C1-S1";
    g_dst_domain = "C1-S2";
    g_src_site = "S1";
    g_dst_site = "S2";
    g_tradeoffs = tradeoffs;
    g_scope = [ "id-A"; "id-B"; "id-C" ];
  }

(* Module layout of figure 4(b); [secure] adds the figure-1 IPsec pair (an
   ESP data module depending on an IKE control module) at the edges. *)
let vpn_layout ~secure (tb : Testbeds.vpn) =
  let ipsec esp ike = if secure then [ Esp esp; Ike ike ] else [] in
  [
    node tb.Testbeds.ra
      ([
         Eth ("a", 0); (* eth1, customer-facing *)
         Eth ("b", 1); (* eth2, core-facing *)
         Ip ("g", [ "eth1" ], "C1");
         Ip ("h", [ "eth2" ], "ISP");
         Gre "l";
         Mpls "o";
       ]
      @ ipsec "s" "m");
    node tb.Testbeds.rb
      [ Eth ("c", 0); Eth ("d", 1); Ip ("i", [ "eth1"; "eth2" ], "ISP"); Mpls "p" ];
    node tb.Testbeds.rc
      ([
         Eth ("e", 1); (* eth2, core-facing *)
         Eth ("f", 0); (* eth1, customer-facing *)
         Ip ("j", [ "eth2" ], "ISP");
         Ip ("k", [ "eth1" ], "C1");
         Gre "n";
         Mpls "q";
       ]
      @ ipsec "t" "w");
  ]

let build_vpn ?(channel = `Oob) ?(secure = false) ?tradeoffs ?fault_seed ?journal () =
  let tb = Testbeds.vpn () in
  let net = tb.Testbeds.vpn_net in
  let layout = vpn_layout ~secure tb in
  let d = deploy ?fault_seed channel net ~attach_to:tb.Testbeds.rb layout in
  (* The customer hosts also run management agents with a single IP module
     each, so module-level filter rules can be resolved against them
     (section II-E's example). Only reachable over the out-of-band channel
     (the customer routers run no agents to flood through), and never
     announced: the NM does not manage them. *)
  if channel = `Oob then
    List.iter
      (fun (device, mid) ->
        ignore (start_agent d.chan net (node device [ Ip (mid, [ "eth0" ], "C1") ])))
      [ (tb.Testbeds.host1, "x"); (tb.Testbeds.host2, "y") ];
  let nm = Nm.create ~transport:d.transport ?journal ~chan:d.chan ~net ~my_id:nm_station_id () in
  discover nm ~announce:(announce_all d) net layout;
  {
    tb;
    chan = d.chan;
    faults = d.faults;
    transport = d.transport;
    admission = d.admission;
    nm;
    goal = vpn_goal ?tradeoffs ();
    scope = scope_of layout;
    agents = List.map (fun (dev, a) -> (dev.Device.dev_name, a)) d.agents;
    ip_handles = d.ip_handles;
  }

let vpn_reachable v = Testbeds.vpn_reachable v.tb

(* Re-runs discovery for a replacement NM over the same testbed: agents
   re-announce (their Hellos now reach the new NM, which subscribed under
   the same station id), potentials are harvested and the operator's
   domain knowledge re-entered. The second half of an NM restart; pair it
   with [Nm.recover] to re-converge the journalled intents. The IPsec pair
   adds no IP module, so the plain layout names the same domains. *)
let vpn_adopt v nm =
  discover nm ~announce:(List.map snd v.agents) v.tb.Testbeds.vpn_net
    (vpn_layout ~secure:false v.tb)

(* --- generalised n-router chain (Table VI sweep) ------------------------------ *)

type chain = {
  ctb : Testbeds.chain;
  cchan : Mgmt.Channel.t;
  cfaults : Mgmt.Faults.t;
  ctransport : Mgmt.Reliable.t;
  cadmission : Mgmt.Admission.t;
  cnm : Nm.t;
  cgoal : Path_finder.goal;
  cscope : string list;
}

(* Figure 4(b)'s layout stretched over n routers: A's modules on the first,
   C's on the last and B's on each one between. *)
let chain_layout station (tb : Testbeds.chain) =
  let n = Array.length tb.Testbeds.routers in
  List.mapi
    (fun idx device ->
      let modules =
        if idx = 0 then
          [
            Eth ("a", 0);
            Eth ("b", 1);
            Ip ("g", [ "eth1" ], "C1");
            Ip ("h", [ "eth2" ], "ISP");
            Gre "l";
            Mpls "o";
          ]
        else if idx = n - 1 then
          [
            Eth ("e", 0); (* eth1, towards the core *)
            Eth ("f", 1); (* eth2, customer-facing *)
            Ip ("j", [ "eth1" ], "ISP");
            Ip ("k", [ "eth2" ], "C1");
            Gre "n";
            Mpls "q";
          ]
        else
          let mid prefix = Printf.sprintf "%s%d" prefix (idx + 1) in
          [
            Eth (mid "c", 0); Eth (mid "d", 1); Ip (mid "i", [ "eth1"; "eth2" ], "ISP"); Mpls (mid "p");
          ]
      in
      { device; station = station idx; modules })
    (Array.to_list tb.Testbeds.routers)

let chain_goal (tb : Testbeds.chain) =
  let n = Array.length tb.Testbeds.routers in
  {
    (vpn_goal ()) with
    Path_finder.g_from = Ids.v "ETH" "a" "id-R1";
    g_to = Ids.v "ETH" "f" (Printf.sprintf "id-R%d" n);
    g_scope = Array.to_list (Array.map (fun d -> d.Device.dev_id) tb.Testbeds.routers);
  }

let build_chain ?(addressed = true) ?fault_seed n =
  let tb = Testbeds.chain ~addressed n in
  let net = tb.Testbeds.chain_net in
  let layout = chain_layout (fun _ -> nm_station_id) tb in
  let d = deploy ?fault_seed `Oob net ~attach_to:tb.Testbeds.routers.(0) layout in
  let nm = Nm.create ~transport:d.transport ~chan:d.chan ~net ~my_id:nm_station_id () in
  discover nm ~announce:(announce_all d) net layout;
  {
    ctb = tb;
    cchan = d.chan;
    cfaults = d.faults;
    ctransport = d.transport;
    cadmission = d.admission;
    cnm = nm;
    cgoal = chain_goal tb;
    cscope = scope_of layout;
  }

let chain_reachable c = Testbeds.chain_reachable c.ctb

(* --- diamond: two parallel cores (multi-route experiments) -------------------- *)

type diamond = {
  dtb : Testbeds.diamond;
  dchan : Mgmt.Channel.t;
  dfaults : Mgmt.Faults.t;
  dtransport : Mgmt.Reliable.t;
  dadmission : Mgmt.Admission.t;
  dnm : Nm.t;
  dgoal : Path_finder.goal;
  dscope : string list;
  dagents : (string * Agent.t) list; (* device id -> agent *)
}

let diamond_layout (tb : Testbeds.diamond) =
  [
    node tb.Testbeds.dia_a
      [
        Eth ("a", 0);
        Eth ("b1", 1);
        Eth ("b2", 2);
        Ip ("g", [ "eth1" ], "C1");
        Ip ("h", [ "eth2"; "eth3" ], "ISP");
        Gre "l";
        Mpls "o";
      ];
    node tb.Testbeds.dia_b1
      [ Eth ("c1", 0); Eth ("d1", 1); Ip ("i1", [ "eth1"; "eth2" ], "ISP"); Mpls "p1" ];
    node tb.Testbeds.dia_b2
      [ Eth ("c2", 0); Eth ("d2", 1); Ip ("i2", [ "eth1"; "eth2" ], "ISP"); Mpls "p2" ];
    node tb.Testbeds.dia_c
      [
        Eth ("e1", 0);
        Eth ("e2", 1);
        Eth ("f", 2);
        Ip ("j", [ "eth1"; "eth2" ], "ISP");
        Ip ("k", [ "eth3" ], "C1");
        Gre "n";
        Mpls "q";
      ];
  ]

let build_diamond ?fault_seed () =
  let tb = Testbeds.diamond () in
  let net = tb.Testbeds.dia_net in
  let layout = diamond_layout tb in
  let d = deploy ?fault_seed `Oob net ~attach_to:tb.Testbeds.dia_a layout in
  let nm = Nm.create ~transport:d.transport ~chan:d.chan ~net ~my_id:nm_station_id () in
  discover nm ~announce:(announce_all d) net layout;
  let scope = scope_of layout in
  {
    dtb = tb;
    dchan = d.chan;
    dfaults = d.faults;
    dtransport = d.transport;
    dadmission = d.admission;
    dnm = nm;
    dgoal = { (vpn_goal ()) with Path_finder.g_scope = scope };
    dscope = scope;
    dagents = List.map (fun (dev, a) -> (dev.Device.dev_id, a)) d.agents;
  }

let diamond_reachable d = Testbeds.diamond_reachable d.dtb

let diamond_adopt d nm =
  discover nm ~announce:(List.map snd d.dagents) d.dtb.Testbeds.dia_net (diamond_layout d.dtb)

(* Path classification helpers for picking the pure-GRE/MPLS/IP-IP paths out
   of the enumeration. *)
let path_uses name (p : Path_finder.path) =
  List.exists (fun v -> v.Path_finder.v_mod.Ids.name = name) p.Path_finder.visits

let pure_gre p = path_uses "GRE" p && not (path_uses "MPLS" p)
let pure_mpls p = path_uses "MPLS" p && not (path_uses "GRE" p) && not (List.exists (fun v -> Ids.short v.Path_finder.v_mod = "h") p.Path_finder.visits)
let pure_ipip p =
  (not (path_uses "GRE" p)) && (not (path_uses "MPLS" p)) && not (path_uses "ESP" p)

(* A path satisfying a confidentiality requirement: it crosses an ESP
   module (whose abstraction advertises security). *)
let secure p = path_uses "ESP" p

(* --- figure 9: the VLAN switch chain ----------------------------------------- *)

type vlan = {
  vtb : Testbeds.vlan;
  vchan : Mgmt.Channel.t;
  vfaults : Mgmt.Faults.t;
  vtransport : Mgmt.Reliable.t;
  vadmission : Mgmt.Admission.t;
  vnm : Nm.t;
  vscope : string list;
  vagents : (string * Agent.t) list;
}

(* Every switch runs one switching ETH module over all its ports and a
   VLAN module. *)
let switch_node device eth vlan = node device [ Switch eth; Vlan vlan ]

let build_vlan ?(channel = `Oob) () =
  let tb = Testbeds.vlan () in
  let net = tb.Testbeds.vlan_net in
  let layout =
    [
      switch_node tb.Testbeds.swa "a" "d";
      switch_node tb.Testbeds.swb "b" "e";
      switch_node tb.Testbeds.swc "c" "f";
    ]
  in
  let d = deploy channel net ~attach_to:tb.Testbeds.swb layout in
  let nm = Nm.create ~transport:d.transport ~chan:d.chan ~net ~my_id:nm_station_id () in
  discover nm ~announce:(announce_all d) net layout;
  {
    vtb = tb;
    vchan = d.chan;
    vfaults = d.faults;
    vtransport = d.transport;
    vadmission = d.admission;
    vnm = nm;
    vscope = scope_of layout;
    vagents = List.map (fun (dev, a) -> (dev.Device.dev_name, a)) d.agents;
  }

let vlan_reachable v = Testbeds.vlan_reachable v.vtb

(* n-switch generalisation of the VLAN scenario. *)
type vlan_chain = {
  vctb : Testbeds.vlan_chain;
  vcchan : Mgmt.Channel.t;
  vcfaults : Mgmt.Faults.t;
  vctransport : Mgmt.Reliable.t;
  vcadmission : Mgmt.Admission.t;
  vcnm : Nm.t;
  vcscope : string list;
}

let build_vlan_chain n =
  let tb = Testbeds.vlan_chain n in
  let net = tb.Testbeds.vc_net in
  let layout =
    List.mapi
      (fun idx sw ->
        let suffix = string_of_int (idx + 1) in
        switch_node sw ("eth" ^ suffix) ("vl" ^ suffix))
      (Array.to_list tb.Testbeds.switches)
  in
  let d = deploy `Oob net ~attach_to:tb.Testbeds.switches.(0) layout in
  let nm = Nm.create ~transport:d.transport ~chan:d.chan ~net ~my_id:nm_station_id () in
  discover nm ~announce:(announce_all d) net layout;
  {
    vctb = tb;
    vcchan = d.chan;
    vcfaults = d.faults;
    vctransport = d.transport;
    vcadmission = d.admission;
    vcnm = nm;
    vcscope = scope_of layout;
  }

let vlan_chain_reachable v = Testbeds.vlan_chain_reachable v.vctb
