(* The experimental set-ups of the paper.

   [vpn] is figure 4: ISP edge routers A and C, core router B, customer
   routers D (site S1) and E (site S2), plus one host per site so end-to-end
   reachability can be verified. Interface naming matches the configuration
   snippets of figures 7(a) and 8(a): on each ISP router eth1 faces the
   customer/previous hop and eth2 the core.

   [vlan] is figure 9: three switches with the customer attached on
   gigabitethernet0/7 and the inter-switch trunks on gigabitethernet0/9
   (and 0/10 on the middle switch).

   [gre_fig2] is figure 2: hosts A and B, a layer-2 switch C and a router D
   between them. *)

open Packet

type vpn = {
  vpn_net : Net.t;
  ra : Device.t; (* ISP edge, site 1 side *)
  rb : Device.t; (* ISP core *)
  rc : Device.t; (* ISP edge, site 2 side *)
  rd : Device.t; (* customer router, site 1 *)
  re : Device.t; (* customer router, site 2 *)
  host1 : Device.t; (* host in site 1, 10.0.1.2 *)
  host2 : Device.t; (* host in site 2, 10.0.2.2 *)
}

let ip = Ipv4_addr.of_string
let pfx = Prefix.of_string

let vpn () =
  let net = Net.create () in
  (* The managed ISP routers start unconfigured: enabling forwarding is part
     of the configuration under test. Customer routers are outside the
     managed domain and simply work. *)
  let router ?(ports = [ "eth1"; "eth2" ]) ?(forwarding = false) name =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    List.iter (fun p -> ignore (Device.add_port ~name:p d)) ports;
    d.Device.ip_forward <- forwarding;
    d
  in
  let ra = router "A" in
  let rb = router "B" in
  let rc = router "C" in
  let rd = router ~ports:[ "eth0"; "eth1" ] ~forwarding:true "D" in
  let re = router ~ports:[ "eth0"; "eth1" ] ~forwarding:true "E" in
  let host name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port ~name:"eth0" d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "10.0.0.0/16");
    d
  in
  (* Hosts use /16 so sites S1 and S2 look like one address space to them;
     their default routes still point at the site router. *)
  let host1 = host "X" "10.0.1.2" in
  let host2 = host "Y" "10.0.2.2" in
  (* wiring: X - D - A - B - C - E - Y *)
  let _ = Net.connect net ~name:"X--D" (host1, 0) (rd, 1) in
  let _ = Net.connect net ~name:"D--A" (rd, 0) (ra, 0) (* A port 0 = eth1 *) in
  let _ = Net.connect net ~name:"A--B" (ra, 1) (rb, 0) in
  let _ = Net.connect net ~name:"B--C" (rb, 1) (rc, 1) (* C eth2 faces core *) in
  let _ = Net.connect net ~name:"C--E" (rc, 0) (re, 0) in
  let _ = Net.connect net ~name:"E--Y" (re, 1) (host2, 0) in
  (* addressing *)
  Device.add_addr rd ~iface:"eth1" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr rd ~iface:"eth0" ~addr:(ip "192.168.0.1") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr ra ~iface:"eth1" ~addr:(ip "192.168.0.2") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr ra ~iface:"eth2" ~addr:(ip "204.9.168.1") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr rb ~iface:"eth1" ~addr:(ip "204.9.168.2") ~prefix:(pfx "204.9.168.0/30");
  (* /29 rather than /30: the dependency-tracking experiment renumbers C's
     core interface within this subnet *)
  Device.add_addr rb ~iface:"eth2" ~addr:(ip "204.9.169.2") ~prefix:(pfx "204.9.169.0/29");
  Device.add_addr rc ~iface:"eth2" ~addr:(ip "204.9.169.1") ~prefix:(pfx "204.9.169.0/29");
  Device.add_addr rc ~iface:"eth1" ~addr:(ip "192.168.1.2") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr re ~iface:"eth0" ~addr:(ip "192.168.1.1") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr re ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  (* customer-side routing: hosts default to their site router, the site
     routers hand everything non-local to the ISP edge. *)
  let def d via =
    Device.add_route d
      { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = Some (ip via); rt_dev = None; rt_mpls = None }
  in
  def host1 "10.0.1.1";
  def host2 "10.0.2.1";
  def rd "192.168.0.2";
  def re "192.168.1.2";
  (* Edge routers answer on-link routes towards the customer sites with
     proxy ARP, as the verbatim figure-7(a) script relies on. *)
  rd.Device.proxy_arp <- true;
  re.Device.proxy_arp <- true;
  (* The ISP core needs no static routes: both edge-facing subnets are
     connected routes on B, installed with its addresses. *)
  { vpn_net = net; ra; rb; rc; rd; re; host1; host2 }

let vpn_reachable t =
  Ping.reachable t.vpn_net ~from:t.host1 ~src:(ip "10.0.1.2") ~dst:(ip "10.0.2.2") ()
  && Ping.reachable t.vpn_net ~from:t.host2 ~src:(ip "10.0.2.2") ~dst:(ip "10.0.1.2") ()

(* --- generalised chain: n ISP routers in a line (for the Table-VI sweep) --- *)

type chain = {
  chain_net : Net.t;
  routers : Device.t array; (* routers.(0) is the A-like edge *)
  chain_rd : Device.t;
  chain_re : Device.t;
  chain_host1 : Device.t;
  chain_host2 : Device.t;
}

(* Router [i] and [i+1] are linked on 204.9.(100+i).0/30 with the left end
   at .1, carrying into the second octet past 204.9.255 (i = 156 is
   204.10.0.0/30); edge addressing mirrors the 3-router testbed. With
   [addressed:false] the ISP routers get no addresses and no static routes:
   the NM is expected to assign them (§II-E: "this is best done by the NM
   having explicit knowledge of how to assign IP addresses, as DHCP servers
   do today"). *)
let chain ?(addressed = true) n =
  if n < 2 then invalid_arg "Testbeds.chain: need at least 2 routers";
  (* the first three octets of core link [i]'s /30 *)
  let core i =
    let k = 100 + i in
    Printf.sprintf "204.%d.%d" (9 + (k / 256)) (k mod 256)
  in
  let net = Net.create () in
  let router ?(ports = [ "eth1"; "eth2" ]) ?(forwarding = false) name =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    List.iter (fun p -> ignore (Device.add_port ~name:p d)) ports;
    d.Device.ip_forward <- forwarding;
    d
  in
  let routers = Array.init n (fun i -> router (Printf.sprintf "R%d" (i + 1))) in
  let rd = router ~ports:[ "eth0"; "eth1" ] ~forwarding:true "D" in
  let re = router ~ports:[ "eth0"; "eth1" ] ~forwarding:true "E" in
  let host name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port ~name:"eth0" d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "10.0.0.0/16");
    d
  in
  let host1 = host "X" "10.0.1.2" in
  let host2 = host "Y" "10.0.2.2" in
  let _ = Net.connect net ~name:"X--D" (host1, 0) (rd, 1) in
  let _ = Net.connect net ~name:"D--R1" (rd, 0) (routers.(0), 0) in
  for i = 0 to n - 2 do
    (* left router core port is eth2 (port 1), right router previous-hop
       port is eth1 (port 0) *)
    ignore
      (Net.connect net
         ~name:(Printf.sprintf "R%d--R%d" (i + 1) (i + 2))
         (routers.(i), 1)
         (routers.(i + 1), 0))
  done;
  let _ = Net.connect net ~name:"Rn--E" (routers.(n - 1), 1) (re, 0) in
  let _ = Net.connect net ~name:"E--Y" (re, 1) (host2, 0) in
  (* edge addressing (customer side is always addressed: it is unmanaged) *)
  Device.add_addr rd ~iface:"eth1" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr rd ~iface:"eth0" ~addr:(ip "192.168.0.1") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr re ~iface:"eth0" ~addr:(ip "192.168.1.1") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr re ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  if addressed then begin
    Device.add_addr routers.(0) ~iface:"eth1" ~addr:(ip "192.168.0.2")
      ~prefix:(pfx "192.168.0.0/30");
    Device.add_addr routers.(n - 1) ~iface:"eth2" ~addr:(ip "192.168.1.2")
      ~prefix:(pfx "192.168.1.0/30");
    (* core links *)
    for i = 0 to n - 2 do
      let p = core i ^ ".0/30" in
      Device.add_addr routers.(i) ~iface:"eth2" ~addr:(ip (core i ^ ".1")) ~prefix:(pfx p);
      Device.add_addr routers.(i + 1) ~iface:"eth1" ~addr:(ip (core i ^ ".2")) ~prefix:(pfx p)
    done
  end;
  (* static routes standing in for the IGP: every router knows every core
     link prefix (towards the correct side) so tunnel endpoints reach each
     other *)
  if addressed then
  for i = 0 to n - 1 do
    for j = 0 to n - 2 do
      let p = pfx (core j ^ ".0/30") in
      if j > i then
        (* towards the right *)
        Device.add_route routers.(i)
          {
            Device.rt_dst = p;
            rt_via = Some (ip (core i ^ ".2"));
            rt_dev = Some "eth2";
            rt_mpls = None;
          }
      else if j < i - 1 then
        Device.add_route routers.(i)
          {
            Device.rt_dst = p;
            rt_via = Some (ip (core (i - 1) ^ ".1"));
            rt_dev = Some "eth1";
            rt_mpls = None;
          }
    done
  done;
  let def d via =
    Device.add_route d
      { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = Some (ip via); rt_dev = None; rt_mpls = None }
  in
  def host1 "10.0.1.1";
  def host2 "10.0.2.1";
  def rd "192.168.0.2";
  def re "192.168.1.2";
  rd.Device.proxy_arp <- true;
  re.Device.proxy_arp <- true;
  { chain_net = net; routers; chain_rd = rd; chain_re = re; chain_host1 = host1; chain_host2 = host2 }

let chain_reachable t =
  Ping.reachable t.chain_net ~from:t.chain_host1 ~src:(ip "10.0.1.2") ~dst:(ip "10.0.2.2") ()
  && Ping.reachable t.chain_net ~from:t.chain_host2 ~src:(ip "10.0.2.2") ~dst:(ip "10.0.1.2") ()

type vlan = {
  vlan_net : Net.t;
  swa : Device.t;
  swb : Device.t;
  swc : Device.t;
  cust1 : Device.t; (* 10.0.3.1 behind switch A *)
  cust2 : Device.t; (* 10.0.3.2 behind switch C *)
}

let vlan () =
  let net = Net.create () in
  let switch name ports =
    let d = Net.add_device net ~switching:true ~id:("id-" ^ name) ~name in
    List.iter (fun p -> ignore (Device.add_port ~name:p d)) ports;
    d
  in
  let swa = switch "SwA" [ "gigabitethernet0/7"; "gigabitethernet0/9" ] in
  let swb = switch "SwB" [ "gigabitethernet0/9"; "gigabitethernet0/10" ] in
  let swc = switch "SwC" [ "gigabitethernet0/7"; "gigabitethernet0/9" ] in
  let host name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port ~name:"eth0" d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "10.0.3.0/24");
    d
  in
  let cust1 = host "CustX" "10.0.3.1" in
  let cust2 = host "CustY" "10.0.3.2" in
  let _ = Net.connect net ~name:"X--SwA" (cust1, 0) (swa, 0) in
  let _ = Net.connect net ~mtu:1530 ~name:"SwA--SwB" (swa, 1) (swb, 0) in
  let _ = Net.connect net ~mtu:1530 ~name:"SwB--SwC" (swb, 1) (swc, 1) in
  let _ = Net.connect net ~name:"SwC--Y" (swc, 0) (cust2, 0) in
  { vlan_net = net; swa; swb; swc; cust1; cust2 }

let vlan_reachable t =
  Ping.reachable t.vlan_net ~from:t.cust1 ~src:(ip "10.0.3.1") ~dst:(ip "10.0.3.2") ()

(* --- diamond: two parallel core routers between the edges ------------------- *)

type diamond = {
  dia_net : Net.t;
  dia_a : Device.t;
  dia_b1 : Device.t;
  dia_b2 : Device.t;
  dia_c : Device.t;
  dia_host1 : Device.t;
  dia_host2 : Device.t;
}

(* A --(B1|B2)-- C with customer sites as in the VPN testbed: used for
   multi-route experiments (hierarchical traversal, path diversity). *)
let diamond () =
  let net = Net.create () in
  let router name ports =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    List.iter (fun p -> ignore (Device.add_port ~name:p d)) ports;
    d
  in
  let ra = router "A" [ "eth1"; "eth2"; "eth3" ] in
  let rb1 = router "B1" [ "eth1"; "eth2" ] in
  let rb2 = router "B2" [ "eth1"; "eth2" ] in
  let rc = router "C" [ "eth1"; "eth2"; "eth3" ] in
  let rd = router "D" [ "eth0"; "eth1" ] in
  let re = router "E" [ "eth0"; "eth1" ] in
  rd.Device.ip_forward <- true;
  re.Device.ip_forward <- true;
  rd.Device.proxy_arp <- true;
  re.Device.proxy_arp <- true;
  let host name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port ~name:"eth0" d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "10.0.0.0/16");
    d
  in
  let host1 = host "X" "10.0.1.2" in
  let host2 = host "Y" "10.0.2.2" in
  let _ = Net.connect net ~name:"X--D" (host1, 0) (rd, 1) in
  let _ = Net.connect net ~name:"D--A" (rd, 0) (ra, 0) in
  let _ = Net.connect net ~name:"A--B1" (ra, 1) (rb1, 0) in
  let _ = Net.connect net ~name:"A--B2" (ra, 2) (rb2, 0) in
  let _ = Net.connect net ~name:"B1--C" (rb1, 1) (rc, 0) in
  let _ = Net.connect net ~name:"B2--C" (rb2, 1) (rc, 1) in
  let _ = Net.connect net ~name:"C--E" (rc, 2) (re, 0) in
  let _ = Net.connect net ~name:"E--Y" (re, 1) (host2, 0) in
  (* addressing *)
  Device.add_addr rd ~iface:"eth1" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr rd ~iface:"eth0" ~addr:(ip "192.168.0.1") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr ra ~iface:"eth1" ~addr:(ip "192.168.0.2") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr ra ~iface:"eth2" ~addr:(ip "204.9.100.1") ~prefix:(pfx "204.9.100.0/30");
  Device.add_addr rb1 ~iface:"eth1" ~addr:(ip "204.9.100.2") ~prefix:(pfx "204.9.100.0/30");
  Device.add_addr rb1 ~iface:"eth2" ~addr:(ip "204.9.101.2") ~prefix:(pfx "204.9.101.0/30");
  Device.add_addr rc ~iface:"eth1" ~addr:(ip "204.9.101.1") ~prefix:(pfx "204.9.101.0/30");
  Device.add_addr ra ~iface:"eth3" ~addr:(ip "204.9.102.1") ~prefix:(pfx "204.9.102.0/30");
  Device.add_addr rb2 ~iface:"eth1" ~addr:(ip "204.9.102.2") ~prefix:(pfx "204.9.102.0/30");
  Device.add_addr rb2 ~iface:"eth2" ~addr:(ip "204.9.103.2") ~prefix:(pfx "204.9.103.0/30");
  Device.add_addr rc ~iface:"eth2" ~addr:(ip "204.9.103.1") ~prefix:(pfx "204.9.103.0/30");
  Device.add_addr rc ~iface:"eth3" ~addr:(ip "192.168.1.2") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr re ~iface:"eth0" ~addr:(ip "192.168.1.1") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr re ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  (* static IGP stand-ins so both cores can carry the outer packets *)
  let route d dst via dev =
    Device.add_route d
      { Device.rt_dst = pfx dst; rt_via = Some (ip via); rt_dev = Some dev; rt_mpls = None }
  in
  route ra "204.9.101.0/30" "204.9.100.2" "eth2";
  route ra "204.9.103.0/30" "204.9.102.2" "eth3";
  route rc "204.9.100.0/30" "204.9.101.2" "eth1";
  route rc "204.9.102.0/30" "204.9.103.2" "eth2";
  let def d via =
    Device.add_route d
      { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = Some (ip via); rt_dev = None; rt_mpls = None }
  in
  def host1 "10.0.1.1";
  def host2 "10.0.2.1";
  def rd "192.168.0.2";
  def re "192.168.1.2";
  { dia_net = net; dia_a = ra; dia_b1 = rb1; dia_b2 = rb2; dia_c = rc; dia_host1 = host1; dia_host2 = host2 }

let diamond_reachable t =
  Ping.reachable t.dia_net ~from:t.dia_host1 ~src:(ip "10.0.1.2") ~dst:(ip "10.0.2.2") ()
  && Ping.reachable t.dia_net ~from:t.dia_host2 ~src:(ip "10.0.2.2") ~dst:(ip "10.0.1.2") ()

(* n-switch generalisation of the figure-9 set-up. *)
type vlan_chain = {
  vc_net : Net.t;
  switches : Device.t array;
  vc_cust1 : Device.t;
  vc_cust2 : Device.t;
}

let vlan_chain n =
  if n < 2 then invalid_arg "Testbeds.vlan_chain: need at least 2 switches";
  let net = Net.create () in
  let switch name ports =
    let d = Net.add_device net ~switching:true ~id:("id-" ^ name) ~name in
    List.iter (fun p -> ignore (Device.add_port ~name:p d)) ports;
    d
  in
  let switches =
    Array.init n (fun i ->
        let name = Printf.sprintf "Sw%d" (i + 1) in
        if i = 0 || i = n - 1 then switch name [ "gigabitethernet0/7"; "gigabitethernet0/9" ]
        else switch name [ "gigabitethernet0/9"; "gigabitethernet0/10" ])
  in
  let host name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port ~name:"eth0" d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "10.0.3.0/24");
    d
  in
  let cust1 = host "CustX" "10.0.3.1" in
  let cust2 = host "CustY" "10.0.3.2" in
  let _ = Net.connect net ~name:"X--Sw1" (cust1, 0) (switches.(0), 0) in
  for i = 0 to n - 2 do
    let right_port = if i + 1 = n - 1 then 1 else 0 in
    ignore
      (Net.connect net ~mtu:1530
         ~name:(Printf.sprintf "Sw%d--Sw%d" (i + 1) (i + 2))
         (switches.(i), if i = 0 then 1 else 1)
         (switches.(i + 1), right_port))
  done;
  let _ = Net.connect net ~name:"Swn--Y" (switches.(n - 1), 0) (cust2, 0) in
  { vc_net = net; switches; vc_cust1 = cust1; vc_cust2 = cust2 }

let vlan_chain_reachable t =
  Ping.reachable t.vc_net ~from:t.vc_cust1 ~src:(ip "10.0.3.1") ~dst:(ip "10.0.3.2") ()

type gre_fig2 = {
  fig2_net : Net.t;
  host_a : Device.t;
  host_b : Device.t;
  sw_c : Device.t;
  rtr_d : Device.t;
}

(* Figure 2: A -- C(switch) -- D(router) -- B, with a GRE tunnel to be built
   between the IP stacks of A and B. *)
let gre_fig2 () =
  let net = Net.create () in
  let host_a = Net.add_device net ~id:"id-A" ~name:"A" in
  ignore (Device.add_port ~name:"eth0" host_a);
  let host_b = Net.add_device net ~id:"id-B" ~name:"B" in
  ignore (Device.add_port ~name:"eth0" host_b);
  let sw_c = Net.add_device net ~switching:true ~id:"id-C" ~name:"C" in
  ignore (Device.add_port sw_c);
  ignore (Device.add_port sw_c);
  let rtr_d = Net.add_device net ~id:"id-D" ~name:"D" in
  ignore (Device.add_port ~name:"eth0" rtr_d);
  ignore (Device.add_port ~name:"eth1" rtr_d);
  rtr_d.Device.ip_forward <- true;
  let _ = Net.connect net ~name:"A--C" (host_a, 0) (sw_c, 0) in
  let _ = Net.connect net ~name:"C--D" (sw_c, 1) (rtr_d, 0) in
  let _ = Net.connect net ~name:"D--B" (rtr_d, 1) (host_b, 0) in
  Device.add_addr host_a ~iface:"eth0" ~addr:(ip "204.9.168.1") ~prefix:(pfx "204.9.168.0/24");
  Device.add_addr rtr_d ~iface:"eth0" ~addr:(ip "204.9.168.2") ~prefix:(pfx "204.9.168.0/24");
  Device.add_addr rtr_d ~iface:"eth1" ~addr:(ip "204.9.169.2") ~prefix:(pfx "204.9.169.0/24");
  Device.add_addr host_b ~iface:"eth0" ~addr:(ip "204.9.169.1") ~prefix:(pfx "204.9.169.0/24");
  Device.add_route host_a
    { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = Some (ip "204.9.168.2"); rt_dev = None; rt_mpls = None };
  Device.add_route host_b
    { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = Some (ip "204.9.169.2"); rt_dev = None; rt_mpls = None };
  { fig2_net = net; host_a; host_b; sw_c; rtr_d }
