(* Unit tests for the protocol modules and the management agent: exact
   abstraction contents (Table III), field queries, parameter negotiation
   outcomes, error behaviour of the agent, and self-tests. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- abstractions (what showPotential returns) ------------------------------- *)

let test_gre_abstraction_table3 () =
  let a = Gre_module.abstraction () in
  check tstr "name" "GRE" a.Abstraction.name;
  (match a.Abstraction.up with
  | Some s ->
      check tbool "up connectable = {IPv4}" true (s.Abstraction.connectable = [ "IP" ]);
      check tbool "up pipe has a dependency (trade-offs)" true (s.Abstraction.dependencies <> [])
  | None -> Alcotest.fail "GRE must accept up pipes");
  (match a.Abstraction.down with
  | Some s -> check tbool "down connectable = {IPv4}" true (s.Abstraction.connectable = [ "IP" ])
  | None -> Alcotest.fail "GRE must accept down pipes");
  check tbool "peerable = {GRE}" true (a.Abstraction.peerable = [ "GRE" ]);
  check tbool "switch = [up=>down],[down=>up]" true
    (List.sort compare a.Abstraction.switch
    = List.sort compare [ Abstraction.Up_down; Abstraction.Down_up ]);
  check tint "two trade-offs" 2 (List.length a.Abstraction.perf_tradeoffs);
  check tbool "no filtering" true (a.Abstraction.filterable = []);
  check tbool "no phy pipes" true (a.Abstraction.physical = [])

let test_ip_abstraction () =
  let a = Ip_module.abstraction () in
  check tbool "up = {IP, GRE, ESP}" true
    ((Option.get a.Abstraction.up).Abstraction.connectable = [ "IP"; "GRE"; "ESP" ]);
  check tbool "down = {IP, GRE, ESP, MPLS, ETH}" true
    ((Option.get a.Abstraction.down).Abstraction.connectable
    = [ "IP"; "GRE"; "ESP"; "MPLS"; "ETH" ]);
  check tint "four switch kinds" 4 (List.length a.Abstraction.switch);
  check tbool "filterable" true (a.Abstraction.filterable <> [])

let test_mpls_abstraction () =
  let a = Mpls_module.abstraction () in
  check tbool "advertises fast forwarding" true a.Abstraction.fast_forwarding;
  check tbool "down=>down transit" true (Abstraction.can_switch a Abstraction.Down_down)

(* --- module behaviour within a built scenario ---------------------------------- *)

let canonical_gre = "a, g, l, h, b, c, i, d, e, j, n, k, f"

let configured_gre () =
  let v = Scenarios.build_vpn () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let p = List.find (fun p -> Path_finder.signature p = canonical_gre) paths in
  let script = Nm.configure_path v.Scenarios.nm v.Scenarios.goal p in
  (v, p, script)

let test_gre_negotiated_keys_distinct () =
  (* each direction uses its own key, and both ends mirror them *)
  let v, _, _ = configured_gre () in
  let tun dev name =
    match (Netsim.Device.find_iface_exn dev name).Netsim.Device.if_kind with
    | Netsim.Device.Tun t -> t
    | _ -> Alcotest.fail "not a tunnel"
  in
  let ta = tun v.Scenarios.tb.Netsim.Testbeds.ra "gre-P1-P2" in
  check tbool "ikey <> okey" true (ta.Netsim.Device.t_ikey <> ta.Netsim.Device.t_okey);
  check tbool "keys assigned" true (ta.Netsim.Device.t_ikey <> None)

let test_gre_exact_device_command () =
  (* the module emits the same device-level state the paper's command shows *)
  let v, _, _ = configured_gre () in
  let iface = Netsim.Device.find_iface_exn v.Scenarios.tb.Netsim.Testbeds.ra "gre-P1-P2" in
  match iface.Netsim.Device.if_kind with
  | Netsim.Device.Tun t ->
      check tstr "local" "204.9.168.1" (Packet.Ipv4_addr.to_string t.Netsim.Device.t_local);
      check tstr "remote" "204.9.169.1" (Packet.Ipv4_addr.to_string t.Netsim.Device.t_remote)
  | _ -> Alcotest.fail "not a tunnel"

let test_eth_fields () =
  let v = Scenarios.build_vpn () in
  let agent = List.assoc "A" v.Scenarios.agents in
  let eth_a =
    List.find
      (fun m -> Ids.equal m.Module_impl.mref (Ids.v "ETH" "a" "id-A"))
      (Agent.modules agent)
  in
  check tbool "iface" true (eth_a.Module_impl.fields "iface" = Some "eth1");
  check tbool "mac present" true (eth_a.Module_impl.fields "mac" <> None);
  check tbool "unknown field" true (eth_a.Module_impl.fields "frobnicate" = None)

let test_ip_fields () =
  let v = Scenarios.build_vpn () in
  let agent = List.assoc "A" v.Scenarios.agents in
  let h =
    List.find (fun m -> Ids.equal m.Module_impl.mref (Ids.v "IP" "h" "id-A")) (Agent.modules agent)
  in
  check tbool "address" true (h.Module_impl.fields "address" = Some "204.9.168.1");
  check tbool "domain" true (h.Module_impl.fields "domain" = Some "ISP")

let test_mpls_ftn_exposed () =
  let v = Scenarios.build_vpn () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let p = List.find Scenarios.pure_mpls paths in
  let _ = Nm.configure_path v.Scenarios.nm v.Scenarios.goal p in
  let agent = List.assoc "A" v.Scenarios.agents in
  let o =
    List.find
      (fun m -> Ids.equal m.Module_impl.mref (Ids.v "MPLS" "o" "id-A"))
      (Agent.modules agent)
  in
  check tbool "ftn key exposed for the up pipe" true (o.Module_impl.fields "ftn-key:P1" <> None);
  check tbool "ftn via exposed" true (o.Module_impl.fields "ftn-via:P1" = Some "204.9.168.2")

let test_vlan_vid_allocation () =
  let v = Scenarios.build_vlan () in
  (match
     Nm.achieve_l2 v.Scenarios.vnm ~scope:v.Scenarios.vscope
       ~from_eth:(Ids.v "ETH" "a" "id-SwA") ~to_eth:(Ids.v "ETH" "c" "id-SwC")
   with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  (* all three switches agreed on the same vid *)
  List.iter
    (fun (name, agent) ->
      let vlan =
        List.find (fun m -> m.Module_impl.mref.Ids.name = "VLAN") (Agent.modules agent)
      in
      check tbool (name ^ " vid = 22") true (vlan.Module_impl.fields "vid" = Some "22"))
    v.Scenarios.vagents

(* --- golden device state --------------------------------------------------------- *)

(* Everything the modules' commands write into a device, one sorted line
   per item: interfaces with their tunnel parameters and policers, routes
   per table, rules, filters, table names, loaded kernel modules, and the
   MPLS labelspaces, ILM entries with their cross-connects, NHLFE entries
   and key allocator. Counters and the ARP and FDB caches are traffic's. *)
let device_fingerprint (d : Netsim.Device.t) =
  let module D = Netsim.Device in
  let ip = Packet.Ipv4_addr.to_string and pfx = Packet.Prefix.to_string in
  let opt f = function Some x -> f x | None -> "-" in
  let key = opt Int32.to_string in
  let kind = function
    | D.Phys i -> "phys " ^ string_of_int i
    | D.Loopback -> "loopback"
    | D.Tun t ->
        Printf.sprintf
          "%s local %s remote %s ikey %s okey %s csum %b/%b seq %b/%b ttl %d tos %d enc %s/%s"
          (match t.D.t_mode with D.Gre_mode -> "gre" | D.Ipip_mode -> "ipip" | D.Esp_mode -> "esp")
          (ip t.D.t_local) (ip t.D.t_remote) (key t.D.t_ikey) (key t.D.t_okey) t.D.t_icsum
          t.D.t_ocsum t.D.t_iseq t.D.t_oseq t.D.t_ttl t.D.t_tos (key t.D.t_enc_in)
          (key t.D.t_enc_out)
  in
  let iface (i : D.iface) =
    Printf.sprintf "if %s %s [%s] %s police %s" i.D.if_name (kind i.D.if_kind)
      (String.concat " " (List.map (fun (a, p) -> ip a ^ " in " ^ pfx p) i.D.if_addrs))
      (if i.D.if_up then "up" else "down")
      (opt (fun p -> Printf.sprintf "%d/%d" p.D.pol_rate_bps p.D.pol_burst) i.D.if_policer)
  in
  let route table (r : D.route) =
    Printf.sprintf "route %s %s via %s dev %s mpls %s" table (pfx r.D.rt_dst) (opt ip r.D.rt_via)
      (opt Fun.id r.D.rt_dev) (opt string_of_int r.D.rt_mpls)
  in
  let rule (r : D.rule) =
    Printf.sprintf "rule %s table %s prio %d"
      (match r.D.rl_sel with
      | D.To_prefix p -> "to " ^ pfx p
      | D.From_iface i -> "iif " ^ i
      | D.Match_all -> "all")
      r.D.rl_table r.D.rl_prio
  in
  let m = d.D.mpls in
  let fold f tbl = Hashtbl.fold (fun k v acc -> f k v :: acc) tbl [] in
  let items =
    List.map iface d.D.ifaces
    @ List.concat_map (fun (t, rs) -> List.map (route t) !rs) d.D.tables
    @ List.map rule d.D.rules
    @ List.map (fun (s, t) -> Printf.sprintf "drop %s -> %s" (pfx s) (pfx t)) d.D.ip_drops
    @ fold (fun i s -> Printf.sprintf "labelspace %s %d" i s) m.D.labelspace_of_iface
    @ fold
        (fun _ (l : D.ilm) ->
          Printf.sprintf "ilm %d/%d xc %s" l.D.ilm_label l.D.ilm_space
            (opt string_of_int l.D.ilm_xc))
        m.D.ilm_table
    @ fold
        (fun _ (n : D.nhlfe) ->
          Printf.sprintf "nhlfe %d mtu %d push [%s] dev %s via %s" n.D.nh_key n.D.nh_mtu
            (String.concat " " (List.map string_of_int n.D.nh_push))
            n.D.nh_dev (ip n.D.nh_via))
        m.D.nhlfe_table
  in
  String.concat "\n"
    ((d.D.dev_id ^ ":")
    :: Printf.sprintf "  forward %b mpls %b next-nhlfe %d" d.D.ip_forward m.D.mpls_enabled
         m.D.next_nhlfe_key
    :: ("  tables " ^ String.concat " " (List.sort compare d.D.rt_table_names))
    :: ("  modules " ^ String.concat " " (List.sort compare d.D.loaded_modules))
    :: List.map (( ^ ) "  ") (List.sort compare items))

let net_fingerprint net =
  Netsim.Net.devices net
  |> List.sort (fun a b -> compare a.Netsim.Device.dev_id b.Netsim.Device.dev_id)
  |> List.map device_fingerprint |> String.concat "\n"

(* Every device's fingerprint once the NM configured a path, and again
   after it tore the path down. *)
let configure_and_tear_down nm net goal configure =
  let script = configure nm goal in
  let configured = net_fingerprint net in
  Nm.teardown nm script;
  (configured, net_fingerprint net)

let vpn_path ?secure ?tradeoffs pick () =
  let v = Scenarios.build_vpn ?secure ?tradeoffs () in
  configure_and_tear_down v.Scenarios.nm v.Scenarios.tb.Netsim.Testbeds.vpn_net v.Scenarios.goal
    (fun nm goal -> Nm.configure_path nm goal (List.find pick (Nm.find_paths nm goal)))

let chain n () =
  let c = Scenarios.build_chain n in
  configure_and_tear_down c.Scenarios.cnm c.Scenarios.ctb.Netsim.Testbeds.chain_net
    c.Scenarios.cgoal (fun nm goal ->
      match Nm.achieve nm goal with Ok (_, _, script) -> script | Error e -> Alcotest.fail e)

(* The golden values are MD5 digests of the fingerprints (configured, torn
   down), taken from a build whose modules printed every command as a line
   for the interpreter to split: they pin that the argument vectors
   configure the same state. The VPN's were taken again once the testbed
   stopped giving core router B a static route that duplicated its
   connected 204.9.168.0/30 route: each of their states is the earlier one
   less that second line. A mismatch prints the state that differs. *)
let test_golden_device_state (run, golden) () =
  let configured, torn_down = run () in
  let md5 s = Digest.to_hex (Digest.string s) in
  let digests = (md5 configured, md5 torn_down) in
  if digests <> golden then
    Alcotest.failf "digests (configured, torn down) = (%S, %S), golden (%S, %S); state:\n%s"
      (fst digests) (snd digests) (fst golden) (snd golden)
      (if fst digests <> fst golden then configured else torn_down)

let golden_device_states =
  [
    ( "VPN pure MPLS",
      vpn_path Scenarios.pure_mpls,
      ("dd00c912cd0b19dcf8a5da23869c4026", "1addc54120b5bfb1ea4735615c10c55c") );
    ( "VPN pure GRE, both trade-offs",
      vpn_path ~tradeoffs:[ "in-order-delivery"; "low-error-rate" ] Scenarios.pure_gre,
      ("c1388c4407f864943e18764d95965bd1", "ceff7047d2c871f2c11932cd9d15f9a0") );
    ( "VPN pure IP-IP",
      vpn_path Scenarios.pure_ipip,
      ("85a2ea0535cc7c95bd6cfbf9c42baad0", "d604896b7cde98d6350dc2db46e6a019") );
    ( "secure VPN ESP",
      vpn_path ~secure:true Scenarios.secure,
      ("b76642a942e4075dee65b535e64f1f02", "5d76c500f99762b1d12e4c2387645571") );
    ( "chain n=5",
      chain 5,
      ("424254033c5a87abc791cc4535169e3c", "a0f229ecf240e95aa4865b2c811b816e") );
  ]

(* --- golden module reports ------------------------------------------------------- *)

(* Every module's showActual and showPerf report on every managed device,
   one line per entry, in the order the agents answer. *)
let reports_fingerprint nm scope =
  let actual dev =
    match Nm.show_actual nm dev with
    | None -> [ "  no showActual" ]
    | Some state ->
        List.concat_map
          (fun (m, kvs) ->
            ("  actual " ^ Ids.qualified m) :: List.map (fun (k, v) -> "    " ^ k ^ " = " ^ v) kvs)
          state
  in
  let perf dev =
    match Nm.show_perf nm dev with
    | None -> [ "  no showPerf" ]
    | Some perf ->
        List.concat_map
          (fun (m, pipes) ->
            ("  perf " ^ Ids.qualified m)
            :: List.map
                 (fun (pipe, cs) ->
                   "    " ^ pipe ^ ":"
                   ^ String.concat "" (List.map (fun (c, n) -> " " ^ c ^ "=" ^ string_of_int n) cs))
                 pipes)
          perf
  in
  String.concat "\n" (List.concat_map (fun dev -> ((dev ^ ":") :: actual dev) @ perf dev) scope)

let achieved nm goal =
  match Nm.achieve nm goal with Ok _ -> () | Error e -> Alcotest.fail e

(* Each deployment is configured and pinged both ways, so the counters the
   reports print have moved. *)
let vpn_reports ?secure ?tradeoffs ?pick () =
  let v = Scenarios.build_vpn ?secure ?tradeoffs () in
  let nm = v.Scenarios.nm and goal = v.Scenarios.goal in
  (match pick with
  | None -> achieved nm goal
  | Some pick -> ignore (Nm.configure_path nm goal (List.find pick (Nm.find_paths nm goal))));
  check tbool "ping" true (Scenarios.vpn_reachable v);
  reports_fingerprint nm v.Scenarios.scope

let diamond_reports () =
  let d = Scenarios.build_diamond () in
  achieved d.Scenarios.dnm d.Scenarios.dgoal;
  check tbool "ping" true (Scenarios.diamond_reachable d);
  reports_fingerprint d.Scenarios.dnm d.Scenarios.dscope

let chain_reports n () =
  let c = Scenarios.build_chain n in
  achieved c.Scenarios.cnm c.Scenarios.cgoal;
  check tbool "ping" true (Scenarios.chain_reachable c);
  reports_fingerprint c.Scenarios.cnm c.Scenarios.cscope

let vlan_reports () =
  let v = Scenarios.build_vlan () in
  (match
     Nm.achieve_l2 v.Scenarios.vnm ~scope:v.Scenarios.vscope
       ~from_eth:(Ids.v "ETH" "a" "id-SwA") ~to_eth:(Ids.v "ETH" "c" "id-SwC")
   with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  check tbool "ping" true (Scenarios.vlan_reachable v);
  reports_fingerprint v.Scenarios.vnm v.Scenarios.vscope

(* The golden values are MD5 digests of the reports, taken from the build
   whose modules rendered them with Printf and Fmt: they pin that the
   concatenating renderers print the same bytes. A mismatch prints the
   reports. *)
let test_golden_reports (run, golden) () =
  let reports = run () in
  let digest = Digest.to_hex (Digest.string reports) in
  if digest <> golden then
    Alcotest.failf "digest %S, golden %S; reports:\n%s" digest golden reports

let golden_reports =
  [
    ("VPN", (fun () -> vpn_reports ()), "7338b350a7ff54c85f9ebc097e751cdf");
    ( "VPN pure GRE, both trade-offs",
      (fun () ->
        vpn_reports ~tradeoffs:[ "in-order-delivery"; "low-error-rate" ] ~pick:Scenarios.pure_gre ()),
      "fa24445384a223d37de3e4ccfcd17249" );
    ( "VPN pure IP-IP",
      (fun () -> vpn_reports ~pick:Scenarios.pure_ipip ()),
      "b9f5442f61f8cda6b8af96510e356c4a" );
    ("secure VPN", (fun () -> vpn_reports ~secure:true ()), "9bff858983c007ec679853f3ee687eb5");
    ( "secure VPN ESP",
      (fun () -> vpn_reports ~secure:true ~pick:Scenarios.secure ()),
      "cbed607882777b60cec5169911264458" );
    ("diamond", diamond_reports, "8fe05f263daf2b38bf461a1f799c338b");
    ("chain n=5", chain_reports 5, "5ea3c7b41b6d68caa91dab467eb7036b");
    ("VLAN", vlan_reports, "ef48451ff230ccf8c43b63423052bf37");
  ]

(* --- the agent ------------------------------------------------------------------ *)

let test_agent_unknown_module_bundle_err () =
  let v = Scenarios.build_vpn () in
  let agent = List.assoc "A" v.Scenarios.agents in
  Agent.handle agent ~src:Scenarios.nm_station_id
    (Wire.encode
       (Wire.Bundle
          {
            req = 7;
            cmds =
              [
                Primitive.Create_switch
                  { owner = Ids.v "FOO" "zz" "id-A"; rule = Primitive.Bidi ("P1", "P2") };
              ];
            annex = Wire.empty_annex;
          }));
  ignore (Netsim.Net.run v.Scenarios.tb.Netsim.Testbeds.vpn_net);
  check tbool "bundle error reported to NM" true
    (List.exists (fun (_, e) ->
         let has_sub sub s =
           let n = String.length sub and m = String.length s in
           let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has_sub "no module" e)
       (Nm.errors v.Scenarios.nm))

let test_agent_show_actual_roundtrip () =
  let v = Scenarios.build_vpn () in
  match Nm.show_actual v.Scenarios.nm "id-B" with
  | Some state -> check tint "B reports 4 modules" 4 (List.length state)
  | None -> Alcotest.fail "no showActual response"

let test_agent_malformed_message_ignored () =
  let v = Scenarios.build_vpn () in
  let agent = List.assoc "A" v.Scenarios.agents in
  (* must not raise *)
  Agent.handle agent ~src:"nowhere" (Bytes.of_string "((((not a wire message");
  check tbool "survives garbage" true true

let test_self_test_unknown_module () =
  let v = Scenarios.build_vpn () in
  let ok, detail = Nm.self_test v.Scenarios.nm (Ids.v "FOO" "zz" "id-A") in
  check tbool "fails" false ok;
  check tstr "reason" "no such module" detail

let test_self_test_unreachable_device () =
  let v = Scenarios.build_vpn () in
  let ok, _ = Nm.self_test v.Scenarios.nm (Ids.v "IP" "zz" "id-NOPE") in
  check tbool "no response treated as failure" false ok

(* Echo probes that overlap in time each add and remove their own ICMP
   waiter on the device: every probe reports its own result, whichever
   finishes first, and none leaves a waiter behind. On the configured
   diamond, IP g on id-A reaches IP k on id-C end to end, but not IP i1
   on id-B1, which has no route back to g's customer-side address. *)
let test_overlapping_probes () =
  let d = Scenarios.build_diamond () in
  (match Nm.achieve d.Scenarios.dnm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "diamond achieve: %s" e);
  let tb = d.Scenarios.dtb in
  let net = tb.Netsim.Testbeds.dia_net and a = tb.Netsim.Testbeds.dia_a in
  let g =
    match Agent.find_module (List.assoc "id-A" d.Scenarios.dagents) (Ids.v "IP" "g" "id-A") with
    | Some m -> m
    | None -> Alcotest.fail "no IP g on id-A"
  in
  let results = ref [] in
  let probe name target =
    g.Module_impl.self_test ~against:(Some target) ~reply:(fun ~ok ~detail:_ ->
        results := (name, ok) :: !results)
  in
  let far = Ids.v "IP" "k" "id-C" and core = Ids.v "IP" "i1" "id-B1" in
  let outcome = Alcotest.(list (pair string bool)) in
  let no_waiter what =
    check tint (what ^ ": no waiter left") 0 (List.length a.Netsim.Device.icmp_waiters)
  in
  probe "far" far;
  ignore (Netsim.Net.run net);
  probe "core" core;
  ignore (Netsim.Net.run net);
  check outcome "one at a time" [ ("far", true); ("core", false) ] (List.rev !results);
  no_waiter "one at a time";
  (* overlapping: both start before the network runs *)
  results := [];
  probe "far" far;
  probe "core" core;
  ignore (Netsim.Net.run net);
  check outcome "overlapping, each its own result"
    [ ("core", false); ("far", true) ]
    (List.sort compare !results);
  no_waiter "overlapping";
  (* staggered: the far probe starts just before the core probe's window
     closes, so the core probe finishes while the far one still waits; a
     ping to the address the core probe pings runs meanwhile *)
  results := [];
  let eq = Netsim.Net.eq net in
  probe "core" core;
  while a.Netsim.Device.icmp_waiters = [] && Netsim.Event_queue.pending eq > 0 do
    try ignore (Netsim.Event_queue.run ~max_events:1 eq)
    with Netsim.Event_queue.Budget_exhausted -> ()
  done;
  ignore (Netsim.Net.run_until net ~deadline:(Int64.add (Netsim.Event_queue.now eq) 990_000L));
  probe "far" far;
  check tbool "a ping while the probes wait" true
    (Netsim.Ping.reachable net ~from:a ~src:(Packet.Ipv4_addr.of_string "204.9.100.1")
       ~dst:(Packet.Ipv4_addr.of_string "204.9.100.2") ());
  check outcome "staggered, each its own result" [ ("core", false); ("far", true) ]
    (List.rev !results);
  no_waiter "staggered"

(* An end-to-end probe pings the address its target last gave and asks the
   target again only when that address does not answer. The target here
   is IP h on id-A, beside g, which answers with the address of its first
   bound interface that has one: eth2's, or eth3's once eth2 has none. *)
let test_stale_probe_address () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  (match Nm.achieve nm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "diamond achieve: %s" e);
  let net = d.Scenarios.dtb.Netsim.Testbeds.dia_net and a = d.Scenarios.dtb.Netsim.Testbeds.dia_a in
  let g =
    match Agent.find_module (List.assoc "id-A" d.Scenarios.dagents) (Ids.v "IP" "g" "id-A") with
    | Some m -> m
    | None -> Alcotest.fail "no IP g on id-A"
  in
  let h = Ids.v "IP" "h" "id-A" in
  let relayed () = List.length (Nm.conveys nm) + List.assoc "conveys" (Nm.ring_dropped nm) in
  (* starts [n] probes at once and returns their results, in the order
     they finished, and the conveys the NM relayed meanwhile *)
  let probes n =
    let results = ref [] and before = relayed () in
    for _ = 1 to n do
      g.Module_impl.self_test ~against:(Some h) ~reply:(fun ~ok ~detail ->
          results := (ok, detail) :: !results)
    done;
    ignore (Netsim.Net.run net);
    check tint "no waiter left" 0 (List.length a.Netsim.Device.icmp_waiters);
    (List.rev !results, relayed () - before)
  in
  let outcome = Alcotest.(pair (list (pair bool string)) int) in
  let reachable addr = (true, "peer " ^ addr ^ " reachable") in
  check outcome "the first probe asks" ([ reachable "204.9.100.1" ], 2) (probes 1);
  check outcome "the next pings the remembered address" ([ reachable "204.9.100.1" ], 0) (probes 1);
  let eth2 = Netsim.Device.find_iface_exn a "eth2" and eth3 = Netsim.Device.find_iface_exn a "eth3" in
  let eth2_addrs = eth2.Netsim.Device.if_addrs and eth3_addrs = eth3.Netsim.Device.if_addrs in
  eth2.Netsim.Device.if_addrs <- [];
  check outcome "a stale address: asked once, the new address pinged"
    ([ reachable "204.9.102.1" ], 2)
    (probes 1);
  (* 204.9.102.1 goes stale while h gives 204.9.100.1 again: two probes
     that overlap each ping the stale address, ask again and report the
     new address's result, once each *)
  eth2.Netsim.Device.if_addrs <- eth2_addrs;
  eth3.Netsim.Device.if_addrs <- [];
  check outcome "overlapping on a stale address, each its own answer"
    ([ reachable "204.9.100.1"; reachable "204.9.100.1" ], 4)
    (probes 2);
  eth3.Netsim.Device.if_addrs <- eth3_addrs;
  check outcome "then remembered again" ([ reachable "204.9.100.1" ], 0) (probes 1)

let () =
  Alcotest.run "modules"
    [
      ( "abstractions",
        [
          Alcotest.test_case "GRE (table 3)" `Quick test_gre_abstraction_table3;
          Alcotest.test_case "IP" `Quick test_ip_abstraction;
          Alcotest.test_case "MPLS" `Quick test_mpls_abstraction;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "GRE key negotiation" `Quick test_gre_negotiated_keys_distinct;
          Alcotest.test_case "GRE device command" `Quick test_gre_exact_device_command;
          Alcotest.test_case "ETH fields" `Quick test_eth_fields;
          Alcotest.test_case "IP fields" `Quick test_ip_fields;
          Alcotest.test_case "MPLS FTN exposure" `Quick test_mpls_ftn_exposed;
          Alcotest.test_case "VLAN vid agreement" `Quick test_vlan_vid_allocation;
        ] );
      ( "device state",
        List.map
          (fun (name, run, golden) ->
            Alcotest.test_case name `Quick (test_golden_device_state (run, golden)))
          golden_device_states );
      ( "module reports",
        List.map
          (fun (name, run, golden) -> Alcotest.test_case name `Quick (test_golden_reports (run, golden)))
          golden_reports );
      ( "agent",
        [
          Alcotest.test_case "unknown module -> Bundle_err" `Quick test_agent_unknown_module_bundle_err;
          Alcotest.test_case "showActual roundtrip" `Quick test_agent_show_actual_roundtrip;
          Alcotest.test_case "malformed message ignored" `Quick test_agent_malformed_message_ignored;
          Alcotest.test_case "self-test: unknown module" `Quick test_self_test_unknown_module;
          Alcotest.test_case "self-test: unreachable device" `Quick test_self_test_unreachable_device;
          Alcotest.test_case "self-test: overlapping probes" `Quick test_overlapping_probes;
          Alcotest.test_case "self-test: a remembered address gone stale" `Quick
            test_stale_probe_address;
        ] );
    ]
