(* Ready-made CONMan deployments of the paper's experimental set-ups:
   the figure-4 VPN testbed and the figure-9 switch chain, with management
   agents, protocol modules and an NM wired to either management channel
   (§III-A: pre-configured out-of-band, or raw in-band flooding). *)

open Netsim

let nm_station_id = "id-NM"

(* Station id of the warm-standby NM in HA deployments (see Ha). *)
let standby_station_id = "id-NM2"

type channel_kind = [ `Oob | `Raw ]

(* Builds the channel stack: base channel (Oob or Raw), fault-injection
   layer, reliable delivery, overload admission on top. With default knobs
   the fault layer is a no-op and the admission layer passes everything,
   so fault-free runs behave as before — but every scenario can be made
   lossy ([fault_seed] keeps it deterministic), squeezed ([admission]
   tightens the overload budget) and the NM always has a transport to
   learn give-ups from. For the raw in-band channel a management station
   device is created and wired to [attach_to]. *)
let make_channel ?(fault_seed = 42) ?reliability ?admission kind net ~devices ~attach_to =
  let base, nms =
    match kind with
    | `Oob -> (Mgmt.Channel.Oob.create (Net.eq net), None)
    | `Raw ->
        let chan, attach = Mgmt.Channel.Raw.create () in
        let nms = Net.add_device net ~id:nm_station_id ~name:"NMS" in
        ignore (Device.add_port ~name:"mgmt0" nms);
        let host_port = Device.add_port ~name:"mgmt" attach_to in
        let _ =
          Net.connect net ~name:"NMS-uplink" (nms, 0) (attach_to, host_port.Device.port_index)
        in
        List.iter attach (nms :: devices);
        (chan, Some nms)
  in
  let faulty, faults = Mgmt.Faults.wrap ~seed:fault_seed ~eq:(Net.eq net) base in
  let reliable, transport = Mgmt.Reliable.create ?config:reliability ~eq:(Net.eq net) faulty in
  let chan, adm = Mgmt.Admission.wrap ?config:admission ~eq:(Net.eq net) reliable in
  (chan, faults, transport, adm, nms)

let eth_neighbours net dev i =
  Net.neighbours net dev i
  |> List.map (fun (d, pi) ->
         (d.Device.dev_id, (Device.port d pi).Device.port_name))

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

let mref name mid dev = Ids.v name mid dev.Device.dev_id

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

(* The NM-side configuration knowledge of figure 4: which IP module serves
   which address domain. Shared between the initial build and [vpn_adopt]
   (a replacement NM re-learning the deployment after a restart). *)
let vpn_domain_knowledge nm =
  Topology.set_domains (Nm.topology nm)
    ~module_domains:
      [
        (Ids.v "IP" "g" "id-A", "C1");
        (Ids.v "IP" "h" "id-A", "ISP");
        (Ids.v "IP" "i" "id-B", "ISP");
        (Ids.v "IP" "j" "id-C", "ISP");
        (Ids.v "IP" "k" "id-C", "C1");
      ]
    ~domain_prefixes:[ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ]

let build_vpn ?(channel = `Oob) ?(secure = false) ?tradeoffs ?fault_seed ?reliability ?admission
    ?journal () =
  let tb = Testbeds.vpn () in
  let net = tb.Testbeds.vpn_net in
  let managed = [ tb.Testbeds.ra; tb.Testbeds.rb; tb.Testbeds.rc ] in
  let chan, faults, transport, admission, _ =
    make_channel ?fault_seed ?reliability ?admission channel net ~devices:managed
      ~attach_to:tb.Testbeds.rb
  in
  let ip_handles = ref [] in
  let setup_device dev specs =
    let agent = Agent.create ~chan ~nm_device:nm_station_id dev in
    let env = Agent.env agent in
    List.iter
      (fun spec ->
        match spec with
        | `Eth (mid, port) ->
            Agent.register agent
              (Eth_module.make ~env ~mref:(mref "ETH" mid dev) ~ports:[ port ] ~switching:false
                 ~neighbours:(eth_neighbours net dev) ())
        | `Ip (mid, ifaces, domain) ->
            let impl, handle =
              Ip_module.make ~env ~mref:(mref "IP" mid dev) ~ifaces ~domain ()
            in
            ip_handles := (mid, handle) :: !ip_handles;
            Agent.register agent impl
        | `Gre mid -> Agent.register agent (Gre_module.make ~env ~mref:(mref "GRE" mid dev) ())
        | `Esp mid -> Agent.register agent (Esp_module.make ~env ~mref:(mref "ESP" mid dev) ())
        | `Ike mid -> Agent.register agent (Ike_module.make ~env ~mref:(mref "IKE" mid dev) ())
        | `Mpls mid -> Agent.register agent (Mpls_module.make ~env ~mref:(mref "MPLS" mid dev) ()))
      specs;
    agent
  in
  (* module layout of figure 4(b); [secure] adds the figure-1 IPsec pair
     (an ESP data module depending on an IKE control module) at the edges *)
  let sec_a = if secure then [ `Esp "s"; `Ike "m" ] else [] in
  let sec_c = if secure then [ `Esp "t"; `Ike "w" ] else [] in
  let agent_a =
    setup_device tb.Testbeds.ra
      ([
         `Eth ("a", 0); (* eth1, customer-facing *)
         `Eth ("b", 1); (* eth2, core-facing *)
         `Ip ("g", [ "eth1" ], "C1");
         `Ip ("h", [ "eth2" ], "ISP");
         `Gre "l";
         `Mpls "o";
       ]
      @ sec_a)
  in
  let agent_b =
    setup_device tb.Testbeds.rb
      [ `Eth ("c", 0); `Eth ("d", 1); `Ip ("i", [ "eth1"; "eth2" ], "ISP"); `Mpls "p" ]
  in
  let agent_c =
    setup_device tb.Testbeds.rc
      ([
         `Eth ("e", 1); (* eth2, core-facing *)
         `Eth ("f", 0); (* eth1, customer-facing *)
         `Ip ("j", [ "eth2" ], "ISP");
         `Ip ("k", [ "eth1" ], "C1");
         `Gre "n";
         `Mpls "q";
       ]
      @ sec_c)
  in
  (* The customer hosts also run management agents with a single IP module
     each, so module-level filter rules can be resolved against them
     (section II-E's example). Only reachable over the out-of-band channel;
     the customer routers run no agents to flood through. *)
  (if channel = `Oob then begin
     let host_agent dev mid =
       let agent = Agent.create ~chan ~nm_device:nm_station_id dev in
       let env = Agent.env agent in
       let impl, _ = Ip_module.make ~env ~mref:(mref "IP" mid dev) ~ifaces:[ "eth0" ] ~domain:"C1" () in
       Agent.register agent impl
     in
     host_agent tb.Testbeds.host1 "x";
     host_agent tb.Testbeds.host2 "y"
   end);
  let nm = Nm.create ~transport ?journal ~chan ~net ~my_id:nm_station_id () in
  List.iter (fun a -> Agent.announce a net) [ agent_a; agent_b; agent_c ];
  Nm.run nm;
  let scope = [ "id-A"; "id-B"; "id-C" ] in
  Nm.harvest_potentials nm scope;
  vpn_domain_knowledge nm;
  {
    tb;
    chan;
    faults;
    transport;
    admission;
    nm;
    goal = vpn_goal ?tradeoffs ();
    scope;
    agents = [ ("A", agent_a); ("B", agent_b); ("C", agent_c) ];
    ip_handles = !ip_handles;
  }

let vpn_reachable v = Testbeds.vpn_reachable v.tb

(* Re-runs discovery for a replacement NM over the same testbed: agents
   re-announce (their Hellos now reach the new NM, which subscribed under
   the same station id), potentials are harvested and the operator's
   domain knowledge re-entered. The second half of an NM restart; pair it
   with [Nm.recover] to re-converge the journalled intents. *)
let vpn_adopt v nm =
  List.iter (fun (_, a) -> Agent.announce a v.tb.Testbeds.vpn_net) v.agents;
  Nm.run nm;
  Nm.harvest_potentials nm v.scope;
  vpn_domain_knowledge nm

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

let build_chain ?(channel = `Oob) ?(addressed = true)
    ?(tradeoffs = [ "in-order-delivery"; "low-error-rate" ]) ?fault_seed ?reliability ?admission
    ?journal n =
  let tb = Testbeds.chain ~addressed n in
  let net = tb.Testbeds.chain_net in
  let routers = Array.to_list tb.Testbeds.routers in
  let chan, cfaults, ctransport, cadmission, _ =
    make_channel ?fault_seed ?reliability ?admission channel net ~devices:routers
      ~attach_to:tb.Testbeds.routers.(0)
  in
  let module_domains = ref [] in
  let setup_device dev specs =
    let agent = Agent.create ~chan ~nm_device:nm_station_id dev in
    let env = Agent.env agent in
    List.iter
      (fun spec ->
        match spec with
        | `Eth (mid, port) ->
            Agent.register agent
              (Eth_module.make ~env ~mref:(mref "ETH" mid dev) ~ports:[ port ] ~switching:false
                 ~neighbours:(eth_neighbours net dev) ())
        | `Ip (mid, ifaces, domain) ->
            module_domains := (mref "IP" mid dev, domain) :: !module_domains;
            let impl, _ = Ip_module.make ~env ~mref:(mref "IP" mid dev) ~ifaces ~domain () in
            Agent.register agent impl
        | `Gre mid -> Agent.register agent (Gre_module.make ~env ~mref:(mref "GRE" mid dev) ())
        | `Mpls mid -> Agent.register agent (Mpls_module.make ~env ~mref:(mref "MPLS" mid dev) ()))
      specs;
    agent
  in
  let agents =
    List.mapi
      (fun idx dev ->
        if idx = 0 then
          setup_device dev
            [
              `Eth ("a", 0);
              `Eth ("b", 1);
              `Ip ("g", [ "eth1" ], "C1");
              `Ip ("h", [ "eth2" ], "ISP");
              `Gre "l";
              `Mpls "o";
            ]
        else if idx = n - 1 then
          setup_device dev
            [
              `Eth ("e", 0); (* eth1, towards the core *)
              `Eth ("f", 1); (* eth2, customer-facing *)
              `Ip ("j", [ "eth1" ], "ISP");
              `Ip ("k", [ "eth2" ], "C1");
              `Gre "n";
              `Mpls "q";
            ]
        else
          setup_device dev
            [
              `Eth (Printf.sprintf "c%d" (idx + 1), 0);
              `Eth (Printf.sprintf "d%d" (idx + 1), 1);
              `Ip (Printf.sprintf "i%d" (idx + 1), [ "eth1"; "eth2" ], "ISP");
              `Mpls (Printf.sprintf "p%d" (idx + 1));
            ])
      routers
  in
  let nm = Nm.create ~transport:ctransport ?journal ~chan ~net ~my_id:nm_station_id () in
  List.iter (fun a -> Agent.announce a net) agents;
  Nm.run nm;
  let scope = List.map (fun d -> d.Device.dev_id) routers in
  Nm.harvest_potentials nm scope;
  Topology.set_domains (Nm.topology nm) ~module_domains:!module_domains
    ~domain_prefixes:[ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ];
  let goal =
    {
      Path_finder.g_from = Ids.v "ETH" "a" "id-R1";
      g_to = Ids.v "ETH" "f" (Printf.sprintf "id-R%d" n);
      g_customer = "C1";
      g_src_domain = "C1-S1";
      g_dst_domain = "C1-S2";
      g_src_site = "S1";
      g_dst_site = "S2";
      g_tradeoffs = tradeoffs;
      g_scope = scope;
    }
  in
  { ctb = tb; cchan = chan; cfaults; ctransport; cadmission; cnm = nm; cgoal = goal; cscope = scope }

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

let build_diamond ?(channel = `Oob) ?fault_seed ?reliability ?admission ?journal () =
  let tb = Testbeds.diamond () in
  let net = tb.Testbeds.dia_net in
  let managed = [ tb.Testbeds.dia_a; tb.Testbeds.dia_b1; tb.Testbeds.dia_b2; tb.Testbeds.dia_c ] in
  let chan, dfaults, dtransport, dadmission, _ =
    make_channel ?fault_seed ?reliability ?admission channel net ~devices:managed
      ~attach_to:tb.Testbeds.dia_a
  in
  let module_domains = ref [] in
  let setup dev specs =
    let agent = Agent.create ~chan ~nm_device:nm_station_id dev in
    let env = Agent.env agent in
    List.iter
      (fun spec ->
        match spec with
        | `Eth (mid, port) ->
            Agent.register agent
              (Eth_module.make ~env ~mref:(mref "ETH" mid dev) ~ports:[ port ] ~switching:false
                 ~neighbours:(eth_neighbours net dev) ())
        | `Ip (mid, ifaces, domain) ->
            module_domains := (mref "IP" mid dev, domain) :: !module_domains;
            let impl, _ = Ip_module.make ~env ~mref:(mref "IP" mid dev) ~ifaces ~domain () in
            Agent.register agent impl
        | `Gre mid -> Agent.register agent (Gre_module.make ~env ~mref:(mref "GRE" mid dev) ())
        | `Mpls mid -> Agent.register agent (Mpls_module.make ~env ~mref:(mref "MPLS" mid dev) ()))
      specs;
    agent
  in
  let agents =
    [
      setup tb.Testbeds.dia_a
        [
          `Eth ("a", 0);
          `Eth ("b1", 1);
          `Eth ("b2", 2);
          `Ip ("g", [ "eth1" ], "C1");
          `Ip ("h", [ "eth2"; "eth3" ], "ISP");
          `Gre "l";
          `Mpls "o";
        ];
      setup tb.Testbeds.dia_b1
        [ `Eth ("c1", 0); `Eth ("d1", 1); `Ip ("i1", [ "eth1"; "eth2" ], "ISP"); `Mpls "p1" ];
      setup tb.Testbeds.dia_b2
        [ `Eth ("c2", 0); `Eth ("d2", 1); `Ip ("i2", [ "eth1"; "eth2" ], "ISP"); `Mpls "p2" ];
      setup tb.Testbeds.dia_c
        [
          `Eth ("e1", 0);
          `Eth ("e2", 1);
          `Eth ("f", 2);
          `Ip ("j", [ "eth1"; "eth2" ], "ISP");
          `Ip ("k", [ "eth3" ], "C1");
          `Gre "n";
          `Mpls "q";
        ];
    ]
  in
  let nm = Nm.create ~transport:dtransport ?journal ~chan ~net ~my_id:nm_station_id () in
  List.iter (fun a -> Agent.announce a net) agents;
  Nm.run nm;
  let scope = [ "id-A"; "id-B1"; "id-B2"; "id-C" ] in
  Nm.harvest_potentials nm scope;
  Topology.set_domains (Nm.topology nm) ~module_domains:!module_domains
    ~domain_prefixes:[ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ];
  let goal =
    {
      Path_finder.g_from = Ids.v "ETH" "a" "id-A";
      g_to = Ids.v "ETH" "f" "id-C";
      g_customer = "C1";
      g_src_domain = "C1-S1";
      g_dst_domain = "C1-S2";
      g_src_site = "S1";
      g_dst_site = "S2";
      g_tradeoffs = [ "in-order-delivery"; "low-error-rate" ];
      g_scope = scope;
    }
  in
  {
    dtb = tb;
    dchan = chan;
    dfaults;
    dtransport;
    dadmission;
    dnm = nm;
    dgoal = goal;
    dscope = scope;
    dagents = List.combine scope agents;
  }

let diamond_reachable d = Testbeds.diamond_reachable d.dtb

let diamond_adopt d nm =
  List.iter (fun (_, a) -> Agent.announce a d.dtb.Testbeds.dia_net) d.dagents;
  Nm.run nm;
  Nm.harvest_potentials nm d.dscope;
  Topology.set_domains (Nm.topology nm)
    ~module_domains:
      [
        (Ids.v "IP" "g" "id-A", "C1");
        (Ids.v "IP" "h" "id-A", "ISP");
        (Ids.v "IP" "i1" "id-B1", "ISP");
        (Ids.v "IP" "i2" "id-B2", "ISP");
        (Ids.v "IP" "j" "id-C", "ISP");
        (Ids.v "IP" "k" "id-C", "C1");
      ]
    ~domain_prefixes:[ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ]

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

let build_vlan ?(channel = `Oob) ?fault_seed ?reliability () =
  let tb = Testbeds.vlan () in
  let net = tb.Testbeds.vlan_net in
  let switches = [ tb.Testbeds.swa; tb.Testbeds.swb; tb.Testbeds.swc ] in
  let chan, vfaults, vtransport, vadmission, _ =
    make_channel ?fault_seed ?reliability channel net ~devices:switches ~attach_to:tb.Testbeds.swb
  in
  let setup sw (eth_mid, vlan_mid) =
    let agent = Agent.create ~chan ~nm_device:nm_station_id sw in
    let env = Agent.env agent in
    let ports = List.init (Array.length sw.Device.ports) Fun.id in
    Agent.register agent
      (Eth_module.make ~env ~mref:(mref "ETH" eth_mid sw) ~ports ~switching:true
         ~neighbours:(eth_neighbours net sw) ());
    Agent.register agent (Vlan_module.make ~env ~mref:(mref "VLAN" vlan_mid sw) ());
    agent
  in
  let agent_a = setup tb.Testbeds.swa ("a", "d") in
  let agent_b = setup tb.Testbeds.swb ("b", "e") in
  let agent_c = setup tb.Testbeds.swc ("c", "f") in
  let nm = Nm.create ~transport:vtransport ~chan ~net ~my_id:nm_station_id () in
  List.iter (fun a -> Agent.announce a net) [ agent_a; agent_b; agent_c ];
  Nm.run nm;
  let scope = [ "id-SwA"; "id-SwB"; "id-SwC" ] in
  Nm.harvest_potentials nm scope;
  {
    vtb = tb;
    vchan = chan;
    vfaults;
    vtransport;
    vadmission;
    vnm = nm;
    vscope = scope;
    vagents = [ ("SwA", agent_a); ("SwB", agent_b); ("SwC", agent_c) ];
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

let build_vlan_chain ?(channel = `Oob) ?fault_seed ?reliability n =
  let tb = Testbeds.vlan_chain n in
  let net = tb.Testbeds.vc_net in
  let switches = Array.to_list tb.Testbeds.switches in
  let chan, vcfaults, vctransport, vcadmission, _ =
    make_channel ?fault_seed ?reliability channel net ~devices:switches
      ~attach_to:tb.Testbeds.switches.(0)
  in
  let agents =
    List.mapi
      (fun idx sw ->
        let agent = Agent.create ~chan ~nm_device:nm_station_id sw in
        let env = Agent.env agent in
        let ports = List.init (Array.length sw.Device.ports) Fun.id in
        let suffix = string_of_int (idx + 1) in
        Agent.register agent
          (Eth_module.make ~env ~mref:(mref "ETH" ("eth" ^ suffix) sw) ~ports ~switching:true
             ~neighbours:(eth_neighbours net sw) ());
        Agent.register agent (Vlan_module.make ~env ~mref:(mref "VLAN" ("vl" ^ suffix) sw) ());
        agent)
      switches
  in
  let nm = Nm.create ~transport:vctransport ~chan ~net ~my_id:nm_station_id () in
  List.iter (fun a -> Agent.announce a net) agents;
  Nm.run nm;
  let scope = List.map (fun d -> d.Device.dev_id) switches in
  Nm.harvest_potentials nm scope;
  { vctb = tb; vcchan = chan; vcfaults; vctransport; vcadmission; vcnm = nm; vcscope = scope }

let vlan_chain_reachable v = Testbeds.vlan_chain_reachable v.vctb
