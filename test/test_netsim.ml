(* Integration tests for the simulated data plane: Ethernet switching with
   VLAN/QinQ, ARP, IP forwarding with policy routing, GRE/IP-IP tunnels and
   MPLS label switching. These exercise exactly the low-level machinery the
   CONMan modules configure. *)

open Packet
open Netsim

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let ip = Ipv4_addr.of_string
let pfx = Prefix.of_string

let route ?via ?dev ?mpls dst =
  { Device.rt_dst = pfx dst; rt_via = via; rt_dev = dev; rt_mpls = mpls }

(* A host with a single port and address. *)
let host net ~name ~addr ~prefix =
  let d = Net.add_device net ~id:("id-" ^ name) ~name in
  let _ = Device.add_port d in
  Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx prefix);
  d

let router net ~name n_ports =
  let d = Net.add_device net ~id:("id-" ^ name) ~name in
  for _ = 1 to n_ports do
    ignore (Device.add_port d)
  done;
  d.Device.ip_forward <- true;
  d

let ping net ~from ~src ~dst = Ping.reachable net ~from ~src:(ip src) ~dst:(ip dst) ()

(* --- basic connectivity ------------------------------------------------- *)

let test_cable_ping () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.0.1" ~prefix:"10.0.0.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.0.2" ~prefix:"10.0.0.0/24" in
  let _ = Net.connect net (h1, 0) (h2, 0) in
  check tbool "h1 -> h2" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  check tbool "h2 -> h1" true (ping net ~from:h2 ~src:"10.0.0.2" ~dst:"10.0.0.1")

let test_switch_ping_and_learning () =
  let net = Net.create () in
  let sw = Net.add_device net ~switching:true ~id:"id-sw" ~name:"sw" in
  for _ = 1 to 3 do
    ignore (Device.add_port sw)
  done;
  let h1 = host net ~name:"h1" ~addr:"10.0.0.1" ~prefix:"10.0.0.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.0.2" ~prefix:"10.0.0.0/24" in
  let h3 = host net ~name:"h3" ~addr:"10.0.0.3" ~prefix:"10.0.0.0/24" in
  let _ = Net.connect net (h1, 0) (sw, 0) in
  let _ = Net.connect net (h2, 0) (sw, 1) in
  let _ = Net.connect net (h3, 0) (sw, 2) in
  check tbool "h1 -> h2 through switch" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  (* After learning, further unicast traffic must not reach h3's port. *)
  let to_h3_before = Counters.get (Device.port sw 2).Device.port_counters "tx_frames" in
  check tbool "again" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  let to_h3_after = Counters.get (Device.port sw 2).Device.port_counters "tx_frames" in
  check tint "no flood to h3 once learned" to_h3_before to_h3_after

let test_router_forwarding () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r = router net ~name:"r" 2 in
  Device.add_addr r ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r, 0) in
  let _ = Net.connect net (h2, 0) (r, 1) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  check tbool "cross subnet" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2")

let test_forwarding_disabled () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r = router net ~name:"r" 2 in
  r.Device.ip_forward <- false;
  Device.add_addr r ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r, 0) in
  let _ = Net.connect net (h2, 0) (r, 1) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  check tbool "dropped" false (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  check tbool "counted" true (Counters.get r.Device.dev_counters "ip_not_forwarding_drop" > 0)

let test_link_cut_and_restore () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.0.1" ~prefix:"10.0.0.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.0.2" ~prefix:"10.0.0.0/24" in
  let seg = Net.connect net (h1, 0) (h2, 0) in
  check tbool "up" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  Link.cut seg;
  check tbool "cut" false (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  Link.restore seg;
  check tbool "restored" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2")

let test_ttl_expiry () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r = router net ~name:"r" 2 in
  Device.add_addr r ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r, 0) in
  let _ = Net.connect net (h2, 0) (r, 1) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  let hdr =
    Ipv4.make ~ttl:1 ~proto:Ip_proto.Icmp ~src:(ip "10.0.1.2") ~dst:(ip "10.0.2.2") ()
  in
  Datapath.ip_send h1 hdr (Icmp.encode (Icmp.Echo_request { id = 1; seq = 1 }) Bytes.empty);
  let _ = Net.run net in
  check tbool "ttl drop counted" true (Counters.get r.Device.dev_counters "ttl_exceeded" > 0)

(* --- policy routing ------------------------------------------------------ *)

(* Two parallel paths from r0 to h2's subnet, which is one three-port LAN
   segment; a policy rule steers a specific prefix through the upper router
   while main routes downward. *)
let policy_testbed () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r0 = router net ~name:"r0" 3 in
  let up = router net ~name:"up" 2 in
  let down = router net ~name:"down" 2 in
  Device.add_addr r0 ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r0 ~iface:"eth1" ~addr:(ip "192.168.1.1") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr r0 ~iface:"eth2" ~addr:(ip "192.168.2.1") ~prefix:(pfx "192.168.2.0/30");
  Device.add_addr up ~iface:"eth0" ~addr:(ip "192.168.1.2") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr up ~iface:"eth1" ~addr:(ip "10.0.2.3") ~prefix:(pfx "10.0.2.0/24");
  Device.add_addr down ~iface:"eth0" ~addr:(ip "192.168.2.2") ~prefix:(pfx "192.168.2.0/30");
  Device.add_addr down ~iface:"eth1" ~addr:(ip "10.0.2.4") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r0, 0) in
  let _ = Net.connect net (r0, 1) (up, 0) in
  let _ = Net.connect net (r0, 2) (down, 0) in
  let _ = Net.lan net ~name:"dstlan" [ (h2, 0); (up, 1); (down, 1) ] in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.3") "0.0.0.0/0");
  Device.add_route up (route ~via:(ip "192.168.1.1") "10.0.1.0/24");
  Device.add_route down (route ~via:(ip "192.168.2.1") "10.0.1.0/24");
  (* main: everything via down *)
  Device.add_route r0 (route ~via:(ip "192.168.2.2") "10.0.2.0/24");
  (* policy: 10.0.2.2/32 via up *)
  Device.register_table r0 "special";
  Device.add_route r0 ~table:"special" (route ~via:(ip "192.168.1.2") "0.0.0.0/0");
  Device.add_rule r0
    { Device.rl_sel = Device.To_prefix (pfx "10.0.2.2/32"); rl_table = "special"; rl_prio = 10 };
  (net, h1, h2, up, down)

let test_policy_routing () =
  let net, h1, _h2, up, down = policy_testbed () in
  check tbool "reachable" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  (* The policy path must have carried the traffic. *)
  check tbool "via up" true (Counters.get up.Device.dev_counters "ip_forwarded" > 0);
  check tint "not via down" 0 (Counters.get down.Device.dev_counters "ip_forwarded")

(* --- tunnels ------------------------------------------------------------- *)

(* Emulates the paper's A--B--C chain: GRE tunnel between edge routers r1 and
   r3 across core router r2, carrying customer traffic h1 <-> h2. *)
let gre_testbed ?(ikey = Some 1001l) ?(okey = Some 2001l) ?(mismatch = false) () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r1 = router net ~name:"r1" 2 in
  let r2 = router net ~name:"r2" 2 in
  let r3 = router net ~name:"r3" 2 in
  Device.add_addr r1 ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r1 ~iface:"eth1" ~addr:(ip "204.9.168.1") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr r2 ~iface:"eth0" ~addr:(ip "204.9.168.2") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr r2 ~iface:"eth1" ~addr:(ip "204.9.169.2") ~prefix:(pfx "204.9.169.0/30");
  Device.add_addr r3 ~iface:"eth0" ~addr:(ip "204.9.169.1") ~prefix:(pfx "204.9.169.0/30");
  Device.add_addr r3 ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r1, 0) in
  let _ = Net.connect net (r1, 1) (r2, 0) in
  let _ = Net.connect net (r2, 1) (r3, 0) in
  let _ = Net.connect net (r3, 1) (h2, 0) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  (* outer routing between tunnel endpoints *)
  Device.add_route r1 (route ~via:(ip "204.9.168.2") "204.9.169.0/30");
  Device.add_route r3 (route ~via:(ip "204.9.169.2") "204.9.168.0/30");
  (* the tunnels *)
  let t1 =
    Device.add_tunnel r1 ~name:"greA" ~mode:Device.Gre_mode ~local:(ip "204.9.168.1")
      ~remote:(ip "204.9.169.1") ()
  in
  let t3 =
    Device.add_tunnel r3 ~name:"greC" ~mode:Device.Gre_mode ~local:(ip "204.9.169.1")
      ~remote:(ip "204.9.168.1") ()
  in
  (match (t1.Device.if_kind, t3.Device.if_kind) with
  | Device.Tun a, Device.Tun b ->
      a.Device.t_ikey <- ikey;
      a.Device.t_okey <- okey;
      b.Device.t_ikey <- (if mismatch then Some 9999l else okey);
      b.Device.t_okey <- ikey;
      a.Device.t_oseq <- true;
      b.Device.t_iseq <- true;
      a.Device.t_ocsum <- true;
      b.Device.t_icsum <- true
  | _ -> assert false);
  t1.Device.if_up <- true;
  t3.Device.if_up <- true;
  Device.add_route r1 (route ~dev:"greA" "10.0.2.0/24");
  Device.add_route r3 (route ~dev:"greC" "10.0.1.0/24");
  (net, h1, h2, r1, r2, r3)

let test_gre_tunnel () =
  let net, h1, _h2, _r1, r2, _r3 = gre_testbed () in
  check tbool "through tunnel" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  (* the core router must have seen only the outer header (it has no route
     for customer space, so success proves encapsulation) *)
  check tbool "core forwarded" true (Counters.get r2.Device.dev_counters "ip_forwarded" > 0)

let test_gre_key_mismatch () =
  let net, h1, _, _, _, r3 = gre_testbed ~mismatch:true () in
  check tbool "dropped on key mismatch" false (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  check tbool "drop counted" true (Counters.get r3.Device.dev_counters "gre_check_drop" > 0)

let test_gre_sequence_replay () =
  let net, h1, _, _r1, _, r3 = gre_testbed () in
  check tbool "first ok" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  (* Pretend the receiver has already seen a much later sequence number:
     subsequent (replayed/reordered) packets must be dropped. *)
  (match (Device.find_iface_exn r3 "greC").Device.if_kind with
  | Device.Tun t -> t.Device.t_rx_seq <- Some 1000l
  | _ -> assert false);
  check tbool "stale seq dropped" false (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2")

let test_gre_counters_report () =
  let net, h1, _, r1, _, _ = gre_testbed () in
  check tbool "ping" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  let greA = Device.find_iface_exn r1 "greA" in
  check tbool "tx counted" true (Counters.get greA.Device.if_counters "tx_packets" > 0);
  check tbool "rx counted" true (Counters.get greA.Device.if_counters "rx_packets" > 0)

let test_ipip_tunnel () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r1 = router net ~name:"r1" 2 in
  let r2 = router net ~name:"r2" 2 in
  Device.add_addr r1 ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r1 ~iface:"eth1" ~addr:(ip "192.168.0.1") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr r2 ~iface:"eth0" ~addr:(ip "192.168.0.2") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr r2 ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r1, 0) in
  let _ = Net.connect net (r1, 1) (r2, 0) in
  let _ = Net.connect net (r2, 1) (h2, 0) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  let t1 =
    Device.add_tunnel r1 ~name:"tun0" ~mode:Device.Ipip_mode ~local:(ip "192.168.0.1")
      ~remote:(ip "192.168.0.2") ()
  in
  let t2 =
    Device.add_tunnel r2 ~name:"tun0" ~mode:Device.Ipip_mode ~local:(ip "192.168.0.2")
      ~remote:(ip "192.168.0.1") ()
  in
  t1.Device.if_up <- true;
  t2.Device.if_up <- true;
  Device.add_route r1 (route ~dev:"tun0" "10.0.2.0/24");
  Device.add_route r2 (route ~dev:"tun0" "10.0.1.0/24");
  check tbool "ipip" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2")

(* --- MPLS ---------------------------------------------------------------- *)

(* h1 -- r1 -- r2 -- r3 -- h2 with an LSP each way: r1 pushes 2001, r2
   swaps it to 3001, r3 pops and delivers (and 10002/10001 back). *)
let mpls_testbed () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r1 = router net ~name:"r1" 2 in
  let r2 = router net ~name:"r2" 2 in
  let r3 = router net ~name:"r3" 2 in
  Device.add_addr r1 ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r1 ~iface:"eth1" ~addr:(ip "204.9.168.1") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr r2 ~iface:"eth0" ~addr:(ip "204.9.168.2") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr r2 ~iface:"eth1" ~addr:(ip "204.9.169.2") ~prefix:(pfx "204.9.169.0/30");
  Device.add_addr r3 ~iface:"eth0" ~addr:(ip "204.9.169.1") ~prefix:(pfx "204.9.169.0/30");
  Device.add_addr r3 ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r1, 0) in
  let _ = Net.connect net (r1, 1) (r2, 0) in
  let _ = Net.connect net (r2, 1) (r3, 0) in
  let _ = Net.connect net (r3, 1) (h2, 0) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  List.iter (fun r -> r.Device.mpls.Device.mpls_enabled <- true) [ r1; r2; r3 ];
  (* forward LSP h1 -> h2: r1 pushes 2001, r2 swaps to 3001, r3 pops+delivers *)
  let nh_fwd =
    Device.mpls_add_nhlfe r1 ~push:[ 2001 ] ~dev_out:"eth1" ~via:(ip "204.9.168.2") ()
  in
  Device.add_route r1 (route ~mpls:nh_fwd.Device.nh_key "10.0.2.0/24");
  Device.mpls_set_labelspace r2 ~iface:"eth0" ~space:0;
  let _ = Device.mpls_add_ilm r2 ~label:2001 ~space:0 in
  let nh_swap =
    Device.mpls_add_nhlfe r2 ~push:[ 3001 ] ~dev_out:"eth1" ~via:(ip "204.9.169.1") ()
  in
  Device.mpls_xc r2 ~label:2001 ~space:0 ~nhlfe_key:nh_swap.Device.nh_key;
  Device.mpls_set_labelspace r3 ~iface:"eth0" ~space:0;
  let _ = Device.mpls_add_ilm r3 ~label:3001 ~space:0 in
  let nh_pop = Device.mpls_add_nhlfe r3 ~push:[] ~dev_out:"local" ~via:Ipv4_addr.any () in
  Device.mpls_xc r3 ~label:3001 ~space:0 ~nhlfe_key:nh_pop.Device.nh_key;
  (* reverse LSP h2 -> h1 *)
  let nh_rev =
    Device.mpls_add_nhlfe r3 ~push:[ 10002 ] ~dev_out:"eth0" ~via:(ip "204.9.169.2") ()
  in
  Device.add_route r3 (route ~mpls:nh_rev.Device.nh_key "10.0.1.0/24");
  Device.mpls_set_labelspace r2 ~iface:"eth1" ~space:0;
  let _ = Device.mpls_add_ilm r2 ~label:10002 ~space:0 in
  let nh_swap_rev =
    Device.mpls_add_nhlfe r2 ~push:[ 10001 ] ~dev_out:"eth0" ~via:(ip "204.9.168.1") ()
  in
  Device.mpls_xc r2 ~label:10002 ~space:0 ~nhlfe_key:nh_swap_rev.Device.nh_key;
  Device.mpls_set_labelspace r1 ~iface:"eth1" ~space:0;
  let _ = Device.mpls_add_ilm r1 ~label:10001 ~space:0 in
  let nh_pop_rev = Device.mpls_add_nhlfe r1 ~push:[] ~dev_out:"local" ~via:Ipv4_addr.any () in
  Device.mpls_xc r1 ~label:10001 ~space:0 ~nhlfe_key:nh_pop_rev.Device.nh_key;
  (net, h1, h2, r2)

let test_mpls_lsp () =
  let net, h1, _h2, r2 = mpls_testbed () in
  check tbool "over LSP" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  check tbool "labels switched at core" true
    (Counters.get r2.Device.dev_counters "ip_forwarded" = 0)

let test_mpls_no_ilm_drops () =
  let net = Net.create () in
  let r1 = router net ~name:"r1" 1 in
  let r2 = router net ~name:"r2" 1 in
  Device.add_addr r1 ~iface:"eth0" ~addr:(ip "192.168.0.1") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr r2 ~iface:"eth0" ~addr:(ip "192.168.0.2") ~prefix:(pfx "192.168.0.0/30");
  let _ = Net.connect net (r1, 0) (r2, 0) in
  List.iter (fun r -> r.Device.mpls.Device.mpls_enabled <- true) [ r1; r2 ];
  Device.mpls_set_labelspace r2 ~iface:"eth0" ~space:0;
  let nh = Device.mpls_add_nhlfe r1 ~push:[ 777 ] ~dev_out:"eth0" ~via:(ip "192.168.0.2") () in
  Device.add_route r1 (route ~mpls:nh.Device.nh_key "10.9.9.0/24");
  let hdr = Ipv4.make ~proto:Ip_proto.Icmp ~src:(ip "192.168.0.1") ~dst:(ip "10.9.9.1") () in
  Datapath.ip_send r1 hdr (Icmp.encode (Icmp.Echo_request { id = 1; seq = 1 }) Bytes.empty);
  let _ = Net.run net in
  check tbool "unknown label dropped" true
    (Counters.get r2.Device.dev_counters "mpls_no_ilm_drop" > 0)

(* --- VLANs ---------------------------------------------------------------- *)

let qinq_testbed () =
  let net = Net.create () in
  let mk_switch name =
    let d = Net.add_device net ~switching:true ~id:("id-" ^ name) ~name in
    for _ = 1 to 2 do
      ignore (Device.add_port d)
    done;
    d
  in
  let swa = mk_switch "swa" and swb = mk_switch "swb" and swc = mk_switch "swc" in
  let h1 = host net ~name:"h1" ~addr:"10.0.0.1" ~prefix:"10.0.0.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.0.2" ~prefix:"10.0.0.0/24" in
  let _ = Net.connect net (h1, 0) (swa, 0) in
  let _ = Net.connect net ~mtu:1526 (swa, 1) (swb, 0) in
  let _ = Net.connect net ~mtu:1526 (swb, 1) (swc, 0) in
  let _ = Net.connect net (h2, 0) (swc, 1) in
  (net, swa, swb, swc, h1, h2)

let config_qinq ?(mtu = 1504) swa swb swc =
  (Device.port swa 0).Device.port_mode <- Device.Dot1q_tunnel 22;
  (Device.port swa 1).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  (Device.port swb 0).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  (Device.port swb 1).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  (Device.port swc 0).Device.port_mode <- Device.Dot1q_tunnel 22;
  (Device.port swc 1).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  List.iter (fun sw -> (Device.vlan_def sw 22).Device.vd_mtu <- mtu) [ swa; swb; swc ]

(* Wires are crossed on purpose in config_qinq: on swc, port 0 faces swb.
   Correct it here. *)
let config_qinq_fixed ?mtu swa swb swc =
  config_qinq ?mtu swa swb swc;
  (Device.port swc 0).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  (Device.port swc 1).Device.port_mode <- Device.Dot1q_tunnel 22

let test_vlan_tunnel () =
  let net, swa, swb, swc, h1, _h2 = qinq_testbed () in
  config_qinq_fixed swa swb swc;
  check tbool "through QinQ" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2")

let test_vlan_isolation () =
  let net, swa, swb, swc, h1, h2 = qinq_testbed () in
  config_qinq_fixed swa swb swc;
  (* Move h2's attachment into a different customer VLAN: no leakage. *)
  (Device.port swc 1).Device.port_mode <- Device.Dot1q_tunnel 23;
  ignore h2;
  check tbool "isolated" false (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2")

let test_vlan_mtu () =
  let net, swa, swb, swc, h1, _h2 = qinq_testbed () in
  (* Default 1500-byte VLAN MTU: a full-size tagged customer frame no longer
     fits once the outer tag is pushed (the paper's "ensure MTU is set
     properly" comment). *)
  config_qinq_fixed ~mtu:1500 swa swb swc;
  let big = Bytes.make 1472 'x' in
  (* 1472 payload + 8 icmp + 20 ip = 1500-byte ethernet payload: still fits
     with one tag (<= mtu + 4). *)
  check tbool "exactly fits" true
    (Ping.reachable ~payload:big net ~from:h1 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ())

(* --- wire bytes --------------------------------------------------------- *)

(* Every frame a link delivers, in delivery order, as (receiving device,
   port, bytes), and every port, interface and device counter afterwards:
   one bidirectional ping over each datapath the modules configure, plus a
   cold ARP resolution, a TTL expiry, a QinQ tunnel and a shared LAN
   segment. The golden values are MD5 digests taken from a build whose
   codecs encoded each header into a growable writer and copied each
   payload out of the frame it arrived in; they pin that the datapath
   still puts the same bytes on every wire (TTLs, IPv4/ICMP/GRE checksums,
   GRE key and sequence, ESP, MPLS TTLs, MACs) and counts the same. *)

(* MACs derive from a process-wide device counter: restart it so a case's
   bytes do not depend on the cases that ran before it. *)
let fresh build =
  Device.next_index := 0;
  build ()

(* Taps every device's receive dispatch. Each frame is copied as it
   arrives; [check_untouched] then fails if any receiver wrote into a
   buffer after it was delivered. *)
let tap net =
  let frames = ref [] in
  List.iter
    (fun (d : Device.t) ->
      let rx = d.Device.rx_dispatch in
      d.Device.rx_dispatch <-
        (fun port frame ->
          frames := (d.Device.dev_name, port, Bytes.copy frame, frame) :: !frames;
          rx port frame))
    (Net.devices net);
  frames

let check_untouched frames =
  List.iter
    (fun (dev, port, copy, frame) ->
      if not (Bytes.equal copy frame) then
        Alcotest.failf "%s port %d: a received buffer was written after delivery" dev port)
    !frames

let frames_digest frames =
  let b = Buffer.create 4096 in
  List.iter
    (fun (dev, port, copy, _) ->
      Printf.bprintf b "%s %d %d\n" dev port (Bytes.length copy);
      Buffer.add_bytes b copy)
    (List.rev !frames);
  Digest.to_hex (Digest.string (Buffer.contents b))

let counters_digest net =
  let b = Buffer.create 4096 in
  let line what c =
    Printf.bprintf b "%s %s\n" what
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Counters.to_list c)))
  in
  List.iter
    (fun (d : Device.t) ->
      Array.iter
        (fun (p : Device.port) -> line (d.Device.dev_name ^ " port " ^ p.Device.port_name) p.Device.port_counters)
        d.Device.ports;
      List.iter
        (fun (i : Device.iface) -> line (d.Device.dev_name ^ " if " ^ i.Device.if_name) i.Device.if_counters)
        d.Device.ifaces;
      line d.Device.dev_name d.Device.dev_counters)
    (Net.devices net);
  List.iter (fun (e : Net.edge) -> line e.Net.edge_name (Link.drop_stats e.Net.segment)) (Net.edges net);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One echo request with a fixed id, run to quiescence; true if the reply
   came back. *)
let echo net ~from ~src ~dst =
  let got = ref false in
  let waiter hdr = function
    | Icmp.Echo_reply { id = 77; _ } when Ipv4_addr.equal hdr.Ipv4.src (ip dst) -> got := true
    | _ -> ()
  in
  Device.add_icmp_waiter from waiter;
  Datapath.icmp_echo from ~src:(ip src) ~dst:(ip dst) ~id:77 ~seq:1 (Bytes.of_string "conman-ping");
  ignore (Net.run net);
  Device.remove_icmp_waiter from waiter;
  !got

let both_ways net a a_addr b b_addr =
  check tbool "ping there" true (echo net ~from:a ~src:a_addr ~dst:b_addr);
  check tbool "ping back" true (echo net ~from:b ~src:b_addr ~dst:a_addr)

(* Each case builds its network, taps it, does its traffic and returns the
   net; configuration traffic (IKE's UDP exchange) is on the wire too. *)
let vpn_case ?secure ?tradeoffs pick () =
  let open Conman in
  let v = fresh (Scenarios.build_vpn ?secure ?tradeoffs) in
  let tb = v.Scenarios.tb in
  let net = tb.Testbeds.vpn_net in
  let frames = tap net in
  let nm = v.Scenarios.nm in
  ignore (Nm.configure_path nm v.Scenarios.goal (List.find pick (Nm.find_paths nm v.Scenarios.goal)));
  both_ways net tb.Testbeds.host1 "10.0.1.2" tb.Testbeds.host2 "10.0.2.2";
  (net, frames)

let chain_case () =
  let open Conman in
  let c = fresh (fun () -> Scenarios.build_chain 5) in
  let tb = c.Scenarios.ctb in
  let net = tb.Testbeds.chain_net in
  let frames = tap net in
  (match Nm.achieve c.Scenarios.cnm c.Scenarios.cgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  both_ways net tb.Testbeds.chain_host1 "10.0.1.2" tb.Testbeds.chain_host2 "10.0.2.2";
  (net, frames)

let diamond_case () =
  let open Conman in
  let d = fresh Scenarios.build_diamond in
  let tb = d.Scenarios.dtb in
  let net = tb.Testbeds.dia_net in
  let frames = tap net in
  (match Nm.achieve d.Scenarios.dnm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  both_ways net tb.Testbeds.dia_host1 "10.0.1.2" tb.Testbeds.dia_host2 "10.0.2.2";
  (net, frames)

let vlan_chain_case () =
  let open Conman in
  let v = fresh (fun () -> Scenarios.build_vlan_chain 3) in
  let tb = v.Scenarios.vctb in
  let net = tb.Testbeds.vc_net in
  let frames = tap net in
  (match
     Nm.achieve_l2 v.Scenarios.vcnm ~scope:v.Scenarios.vcscope
       ~from_eth:(Conman.Ids.v "ETH" "eth1" "id-Sw1") ~to_eth:(Conman.Ids.v "ETH" "eth3" "id-Sw3")
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  both_ways net tb.Testbeds.vc_cust1 "10.0.3.1" tb.Testbeds.vc_cust2 "10.0.3.2";
  (net, frames)

let routed_pair () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r = router net ~name:"r" 2 in
  Device.add_addr r ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r, 0) in
  let _ = Net.connect net (h2, 0) (r, 1) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  (net, h1, h2, r)

(* Both hosts and the router start with empty ARP caches. *)
let cold_arp_case () =
  let net, h1, h2, _ = fresh routed_pair in
  let frames = tap net in
  both_ways net h1 "10.0.1.2" h2 "10.0.2.2";
  (net, frames)

(* A TTL-1 echo expires at the router, which answers time-exceeded. *)
let ttl_case () =
  let net, h1, _, r = fresh routed_pair in
  let frames = tap net in
  let hdr = Ipv4.make ~ttl:1 ~proto:Ip_proto.Icmp ~src:(ip "10.0.1.2") ~dst:(ip "10.0.2.2") () in
  Datapath.ip_send h1 hdr (Icmp.encode (Icmp.Echo_request { id = 5; seq = 9 }) (Bytes.of_string "ttl"));
  ignore (Net.run net);
  check tint "expired" 1 (Counters.get r.Device.dev_counters "ttl_exceeded");
  (net, frames)

let gre_case () =
  let net, h1, h2, _, _, _ = fresh (fun () -> gre_testbed ()) in
  let frames = tap net in
  both_ways net h1 "10.0.1.2" h2 "10.0.2.2";
  (net, frames)

let mpls_case () =
  let net, h1, h2, _ = fresh mpls_testbed in
  let frames = tap net in
  both_ways net h1 "10.0.1.2" h2 "10.0.2.2";
  (net, frames)

let qinq_case () =
  let net, swa, swb, swc, h1, h2 = fresh qinq_testbed in
  config_qinq_fixed swa swb swc;
  let frames = tap net in
  both_ways net h1 "10.0.0.1" h2 "10.0.0.2";
  (net, frames)

let lan_case () =
  let net, h1, h2, _, _ = fresh policy_testbed in
  let frames = tap net in
  both_ways net h1 "10.0.1.2" h2 "10.0.2.2";
  (net, frames)

let test_golden_wire (run, golden) () =
  let net, frames = run () in
  check_untouched frames;
  let got = (frames_digest frames, counters_digest net) in
  if got <> golden then
    Alcotest.failf "digests (frames, counters) = (%S, %S), golden (%S, %S)" (fst got) (snd got)
      (fst golden) (snd golden)

let golden_wire =
  let open Conman in
  [
    ("VPN MPLS", vpn_case Scenarios.pure_mpls, ("b66554af27a4f4c944783d920cf1d1f3", "c4284c1810f2499ad96cd77a41c8bdca"));
    ("VPN GRE, no trade-offs", vpn_case ~tradeoffs:[] Scenarios.pure_gre, ("308ffcf21e58106b093f1011113fa6e1", "0c56c6f785d9ad7999c8dd693e4b850b"));
    ( "VPN GRE, both trade-offs",
      vpn_case ~tradeoffs:[ "in-order-delivery"; "low-error-rate" ] Scenarios.pure_gre,
      ("029b46e9879e5584f409f6d346b238de", "7945c9f9936efda85bb9de738fbc4879") );
    ("VPN IP-IP", vpn_case Scenarios.pure_ipip, ("d15b35296cd931cd81bcd8b74dbd8c9d", "3ad14e60336ec665d9025375ba7f0d4d"));
    ("secure VPN ESP", vpn_case ~secure:true Scenarios.secure, ("0bcb961f4d817c47a15c729e25492694", "3c95508c0d137656cf49fef029df80c0"));
    ("chain n=5", chain_case, ("4fbe3c62b0dfaa9d7cbfa19a304ecd81", "29b9941cfc37eedb75fbb606fa1435a7"));
    ("diamond", diamond_case, ("1a84ea69a0307deceee7270227231955", "e716777206c59544bd4dd1bdd7c27ca7"));
    ("VLAN chain n=3", vlan_chain_case, ("46d1468f48e3aea8bd5524005b3d8679", "524b5e7b93f509b495a5b26ac89f2705"));
    ("cold ARP", cold_arp_case, ("173bc3ebbd31b5e3897f2c7ce249dda2", "c43fbf263301d44fa30b9da6235dca15"));
    ("TTL expiry", ttl_case, ("0225a768ae36251327d44894f78ae1b1", "aacb0f534ef76c13abc0a7210710cbf5"));
    ("GRE key, seq and csum", gre_case, ("e351b8f77821deb5702564b85b00bb89", "fce519e7bb04cb39e5325bf24b423d63"));
    ("MPLS swap", mpls_case, ("b77b36d7c9f54b3f31f916ce43904e67", "4d03e78d3f792a094a24343df6b147df"));
    ("QinQ", qinq_case, ("373b3324a7562bb6d72504ff8f12ff93", "71bca8a80bbdcc497e40680b612af228"));
    ("three-port LAN", lan_case, ("5c5075c507f492a458323ca6995e1406", "26586183ad1215a76c6d78cd21779b53"));
  ]

(* --- encoders against their earlier versions ------------------------------ *)

(* Verbatim copies of the codecs' earlier encoders, which wrote each header
   into a growable 64-byte writer, copied its contents to checksum them and
   copied again to finish: the exact-size encoders must give the same bytes
   on every input. *)
module Reference = struct
  type w = { mutable wbuf : bytes; mutable wpos : int }

  let writer () = { wbuf = Bytes.create 64; wpos = 0 }

  let ensure w n =
    let needed = w.wpos + n in
    if needed > Bytes.length w.wbuf then begin
      let cap = ref (Bytes.length w.wbuf * 2) in
      while !cap < needed do cap := !cap * 2 done;
      let nb = Bytes.create !cap in
      Bytes.blit w.wbuf 0 nb 0 w.wpos;
      w.wbuf <- nb
    end

  let w8 w v =
    ensure w 1;
    Bytes.set w.wbuf w.wpos (Char.chr (v land 0xff));
    w.wpos <- w.wpos + 1

  let w16 w v =
    w8 w (v lsr 8);
    w8 w v

  let w32 w v =
    w16 w (Int32.to_int (Int32.shift_right_logical v 16) land 0xffff);
    w16 w (Int32.to_int v land 0xffff)

  let wbytes w b =
    ensure w (Bytes.length b);
    Bytes.blit b 0 w.wbuf w.wpos (Bytes.length b);
    w.wpos <- w.wpos + Bytes.length b

  let length w = w.wpos
  let contents w = Bytes.sub w.wbuf 0 w.wpos

  let patch_u16 w off v =
    if off + 2 > w.wpos then invalid_arg "Cursor.patch_u16";
    Bytes.set w.wbuf off (Char.chr ((v lsr 8) land 0xff));
    Bytes.set w.wbuf (off + 1) (Char.chr (v land 0xff))

  let mac_write w t =
    let t = Mac_addr.to_int t in
    w16 w ((t lsr 32) land 0xffff);
    w32 w (Int32.of_int (t land 0xffffffff))

  let ip_write w t = w32 w (Ipv4_addr.to_int32 t)

  let ethernet_encode { Ethernet.dst; src; ethertype } payload =
    let w = writer () in
    mac_write w dst;
    mac_write w src;
    w16 w (Ethertype.to_int ethertype);
    wbytes w payload;
    contents w

  let ipv4_encode (t : Ipv4.t) payload =
    let w = writer () in
    w8 w 0x45;
    w8 w t.Ipv4.tos;
    w16 w (20 + Bytes.length payload);
    w16 w t.Ipv4.id;
    w16 w (if t.Ipv4.dont_fragment then 0x4000 else 0);
    w8 w t.Ipv4.ttl;
    w8 w (Ip_proto.to_int t.Ipv4.proto);
    w16 w 0 (* checksum placeholder *);
    ip_write w t.Ipv4.src;
    ip_write w t.Ipv4.dst;
    let hdr = contents w in
    patch_u16 w 10 (Inet_csum.checksum hdr 0 20);
    wbytes w payload;
    contents w

  let mpls_encode stack payload =
    if stack = [] then invalid_arg "Mpls.encode: empty stack";
    let w = writer () in
    let n = List.length stack in
    List.iteri
      (fun i { Mpls.label; tc; ttl } ->
        let bottom = i = n - 1 in
        w32 w
          (Int32.logor
             (Int32.shift_left (Int32.of_int label) 12)
             (Int32.of_int
                (((tc land 7) lsl 9) lor (if bottom then 1 lsl 8 else 0) lor (ttl land 0xff)))))
      stack;
    wbytes w payload;
    contents w

  let icmp_encode t payload =
    let w = writer () in
    let ty, code, a, b =
      match t with
      | Icmp.Echo_request { id; seq } -> (8, 0, id, seq)
      | Icmp.Echo_reply { id; seq } -> (0, 0, id, seq)
      | Icmp.Dest_unreachable { code } -> (3, code, 0, 0)
      | Icmp.Time_exceeded -> (11, 0, 0, 0)
    in
    w8 w ty;
    w8 w code;
    w16 w 0;
    w16 w a;
    w16 w b;
    wbytes w payload;
    let buf = contents w in
    patch_u16 w 2 (Inet_csum.checksum buf 0 (Bytes.length buf));
    contents w

  let gre_encode (t : Gre.t) payload =
    let w = writer () in
    let flags =
      (if t.Gre.with_csum then 0x8000 else 0)
      lor (match t.Gre.key with Some _ -> 0x2000 | None -> 0)
      lor match t.Gre.seq with Some _ -> 0x1000 | None -> 0
    in
    w16 w flags;
    w16 w (Ethertype.to_int t.Gre.protocol);
    let csum_off = if t.Gre.with_csum then Some (length w) else None in
    if t.Gre.with_csum then w32 w 0l;
    (match t.Gre.key with Some k -> w32 w k | None -> ());
    (match t.Gre.seq with Some s -> w32 w s | None -> ());
    wbytes w payload;
    (match csum_off with
    | Some off ->
        let buf = contents w in
        patch_u16 w off (Inet_csum.checksum buf 0 (Bytes.length buf))
    | None -> ());
    contents w

  let keystream key i =
    let k = Int32.to_int key land 0xffffffff in
    let x = (k * 1103515245) + (i * 12820163) + 12345 in
    (x lsr 16) land 0xff

  let esp_transform ~key buf =
    Bytes.mapi (fun i c -> Char.chr (Char.code c lxor keystream key i)) buf

  let esp_tag ~key buf =
    let w = writer () in
    w32 w key;
    wbytes w buf;
    let b = contents w in
    Inet_csum.checksum b 0 (Bytes.length b)

  let esp_encode ~key (t : Esp.t) payload =
    let w = writer () in
    w32 w t.Esp.spi;
    w32 w t.Esp.seq;
    let cipher = esp_transform ~key payload in
    wbytes w cipher;
    w16 w (esp_tag ~key cipher);
    contents w

  let pseudo_sum ~src ~dst len =
    let w = writer () in
    ip_write w src;
    ip_write w dst;
    w8 w 0;
    w8 w (Ip_proto.to_int Ip_proto.Udp);
    w16 w len;
    let b = contents w in
    Inet_csum.sum_bytes 0 b 0 (Bytes.length b)

  let udp_encode ~src ~dst (t : Udp.t) payload =
    let len = 8 + Bytes.length payload in
    let w = writer () in
    w16 w t.Udp.src_port;
    w16 w t.Udp.dst_port;
    w16 w len;
    w16 w 0;
    wbytes w payload;
    let buf = contents w in
    let csum = Inet_csum.checksum ~init:(pseudo_sum ~src ~dst len) buf 0 len in
    let csum = if csum = 0 then 0xffff else csum in
    patch_u16 w 6 csum;
    contents w

  let arp_encode (t : Arp_pkt.t) =
    let w = writer () in
    w16 w 1;
    w16 w (Ethertype.to_int Ethertype.Ipv4);
    w8 w 6;
    w8 w 4;
    w16 w (match t.Arp_pkt.op with Arp_pkt.Request -> 1 | Arp_pkt.Reply -> 2);
    mac_write w t.Arp_pkt.sender_mac;
    ip_write w t.Arp_pkt.sender_ip;
    mac_write w t.Arp_pkt.target_mac;
    ip_write w t.Arp_pkt.target_ip;
    contents w

  let write_string w s =
    if String.length s > 0xffff then invalid_arg "Frame.write_string";
    w16 w (String.length s);
    wbytes w (Bytes.of_string s)

  let mgmt_encode (t : Mgmt.Frame.t) =
    let w = writer () in
    write_string w t.Mgmt.Frame.src_device;
    write_string w t.Mgmt.Frame.dst_device;
    w32 w (Int32.of_int t.Mgmt.Frame.seq);
    w16 w (Bytes.length t.Mgmt.Frame.payload);
    wbytes w t.Mgmt.Frame.payload;
    contents w
end

let encoder_cases =
  let open QCheck.Gen in
  let mac = map Mac_addr.of_int (int_bound 0xffffffffffff) in
  let i32 = map Int32.of_int (int_bound 0xffffffff) in
  let addr = map Ipv4_addr.of_int32 i32 in
  let body = map Bytes.of_string (string_size (int_bound 200)) in
  let ethertype = map Ethertype.of_int (int_bound 0xffff) in
  let ip_hdr =
    let* tos = int_bound 255 and* id = int_bound 0xffff and* dont_fragment = bool
    and* ttl = int_bound 255 and* proto = int_bound 255 and* src = addr and* dst = addr in
    return (Ipv4.make ~tos ~id ~dont_fragment ~ttl ~proto:(Ip_proto.of_int proto) ~src ~dst ())
  in
  let icmp =
    let* id = int_bound 0xffff and* seq = int_bound 0xffff and* code = int_bound 255 in
    oneofl
      [ Icmp.Echo_request { id; seq }; Icmp.Echo_reply { id; seq }; Icmp.Dest_unreachable { code };
        Icmp.Time_exceeded ]
  in
  let entry =
    let* label = int_bound 0xfffff and* tc = int_bound 7 and* ttl = int_bound 255 in
    return (Mpls.entry ~tc ~ttl label)
  in
  let str = string_size ~gen:printable (int_bound 12) in
  (* each case is a name and the bytes of (new encoder, reference) *)
  oneof
    [
      (let* dst = mac and* src = mac and* ethertype = ethertype and* b = body in
       let h = { Ethernet.dst; src; ethertype } in
       return ("ethernet", Ethernet.encode h b, Reference.ethernet_encode h b));
      (let* h = ip_hdr and* b = body in
       return ("ipv4", Ipv4.encode h b, Reference.ipv4_encode h b));
      (let* h = ip_hdr and* ttl = int_bound 255 and* b = body in
       (* a forwarded header: the TTL rewritten in a copy, checksum refilled *)
       let fwd = Ipv4.encode h b in
       Ipv4.set_ttl fwd 0 ttl;
       return ("ipv4 ttl rewrite", fwd, Reference.ipv4_encode { h with Ipv4.ttl } b));
      (let* stack = list_size (int_range 1 4) entry and* b = body in
       return ("mpls", Mpls.encode stack b, Reference.mpls_encode stack b));
      (let* m = icmp and* b = body in
       return ("icmp", Icmp.encode m b, Reference.icmp_encode m b));
      (let* key = opt i32 and* seq = opt i32 and* with_csum = bool and* protocol = ethertype
       and* b = body in
       let g = { Gre.key; seq; with_csum; protocol } in
       return ("gre", Gre.encode g b, Reference.gre_encode g b));
      (let* key = i32 and* spi = i32 and* seq = i32 and* b = body in
       let t = { Esp.spi; seq } in
       return ("esp", Esp.encode ~key t b, Reference.esp_encode ~key t b));
      (let* src = addr and* dst = addr and* src_port = int_bound 0xffff
       and* dst_port = int_bound 0xffff and* b = body in
       let t = { Udp.src_port; dst_port } in
       return ("udp", Udp.encode ~src ~dst t b, Reference.udp_encode ~src ~dst t b));
      (let* op = oneofl [ Arp_pkt.Request; Arp_pkt.Reply ] and* sender_mac = mac
       and* sender_ip = addr and* target_mac = mac and* target_ip = addr in
       let t = { Arp_pkt.op; sender_mac; sender_ip; target_mac; target_ip } in
       return ("arp", Arp_pkt.encode t, Reference.arp_encode t));
      (let* src_device = str and* dst_device = str and* seq = int_bound 0x7fffffff
       and* payload = body in
       let f = { Mgmt.Frame.src_device; dst_device; seq; payload } in
       return ("mgmt frame", Mgmt.Frame.encode f, Reference.mgmt_encode f));
    ]

let prop_encoders_match_reference =
  QCheck.Test.make ~name:"encoders match their earlier versions" ~count:3000
    (QCheck.make ~print:(fun (name, _, _) -> name) encoder_cases)
    (fun (_, got, expected) -> Bytes.equal got expected)

let () =
  Alcotest.run "netsim"
    [
      ( "ethernet",
        [
          Alcotest.test_case "ping over cable" `Quick test_cable_ping;
          Alcotest.test_case "switch + learning" `Quick test_switch_ping_and_learning;
          Alcotest.test_case "link cut/restore" `Quick test_link_cut_and_restore;
        ] );
      ( "ip",
        [
          Alcotest.test_case "router forwarding" `Quick test_router_forwarding;
          Alcotest.test_case "forwarding disabled" `Quick test_forwarding_disabled;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
          Alcotest.test_case "policy routing" `Quick test_policy_routing;
        ] );
      ( "tunnels",
        [
          Alcotest.test_case "gre end to end" `Quick test_gre_tunnel;
          Alcotest.test_case "gre key mismatch" `Quick test_gre_key_mismatch;
          Alcotest.test_case "gre stale sequence" `Quick test_gre_sequence_replay;
          Alcotest.test_case "gre counters" `Quick test_gre_counters_report;
          Alcotest.test_case "ipip end to end" `Quick test_ipip_tunnel;
        ] );
      ( "mpls",
        [
          Alcotest.test_case "three-router LSP" `Quick test_mpls_lsp;
          Alcotest.test_case "unknown label drops" `Quick test_mpls_no_ilm_drops;
        ] );
      ( "vlan",
        [
          Alcotest.test_case "qinq tunnel" `Quick test_vlan_tunnel;
          Alcotest.test_case "vlan isolation" `Quick test_vlan_isolation;
          Alcotest.test_case "vlan mtu" `Quick test_vlan_mtu;
        ] );
      ( "wire",
        List.map
          (fun (name, run, golden) -> Alcotest.test_case name `Quick (test_golden_wire (run, golden)))
          golden_wire
        @ [ QCheck_alcotest.to_alcotest prop_encoders_match_reference ] );
    ]
