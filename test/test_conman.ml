(* Tests for the CONMan core: wire codecs, the potential graph and path
   finder (the 9-path enumeration and figure-6 pruning), script generation
   (Table V), end-to-end configuration of the figure-4 VPN testbed over the
   management channel (GRE / MPLS / IP-IP and the VLAN chain), and the
   Table VI message accounting. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- codecs -------------------------------------------------------------- *)

let test_sexp_roundtrip () =
  let s =
    Sexp.List
      [ Sexp.atom "hello"; Sexp.List [ Sexp.atom "a b"; Sexp.atom "" ]; Sexp.atom "x\"y\\z" ]
  in
  check tbool "roundtrip" true (Sexp.equal s (Sexp.of_string (Sexp.to_string s)))

let test_ids_roundtrip () =
  let m = Ids.v "GRE" "l" "id-A" in
  check tstr "to_string" "<GRE,id-A,l>" (Ids.to_string m);
  check tbool "roundtrip" true (Ids.equal m (Ids.of_string (Ids.to_string m)))

let test_wire_roundtrip () =
  let msgs =
    [
      Wire.Hello { ports = [ ("eth1", "id-D", "eth0"); ("eth2", "id-B", "eth1") ] };
      Wire.Show_potential_req { req = 3 };
      Wire.Convey
        {
          src = Ids.v "GRE" "l" "id-A";
          dst = Ids.v "GRE" "n" "id-C";
          payload =
            Peer_msg.Gre_params { pipe = "P1"; ikey = 1001l; okey = 2001l; use_seq = true; use_csum = false };
        };
      Wire.Completion { src = Ids.v "MPLS" "q" "id-C"; what = "lsp-established" };
      Wire.Trigger { src = Ids.v "IP" "j" "id-C"; field = "address"; value = "1.2.3.4" };
      Wire.Bundle
        {
          req = 9;
          cmds =
            [
              Primitive.Create_pipe
                {
                  Primitive.pipe_id = "P1";
                  top = Ids.v "IP" "g" "id-A";
                  bottom = Ids.v "GRE" "l" "id-A";
                  peer_top = Some (Ids.v "IP" "k" "id-C");
                  peer_bottom = Some (Ids.v "GRE" "n" "id-C");
                  tradeoffs = [ "in-order-delivery" ];
                  deps = [];
                };
              Primitive.Create_switch
                {
                  owner = Ids.v "IP" "g" "id-A";
                  rule =
                    Primitive.Directed
                      { from_pipe = "P0"; to_pipe = "P1"; sel = Primitive.Dst_domain "C1-S2" };
                };
            ];
          annex = { Wire.domains = [ ("C1-S2", "10.0.2.0/24") ]; reporter = None };
        };
      Wire.Show_actual_req { req = 4 };
      Wire.Show_actual_unless { req = 4; tag = Wire.state_tag [] };
      Wire.Fenced { epoch = 2; msg = Wire.Show_actual_unless { req = 12; tag = "0f" } };
      Wire.Traced
        {
          ctx = { Obs.Trace.goal = 3; span = 7; parent = 1 };
          msg = Wire.Show_actual_unless { req = 13; tag = "00" };
        };
      Wire.Show_actual_unchanged { req = 4 };
      Wire.Fenced { epoch = 2; msg = Wire.Show_actual_unchanged { req = 12 } };
      Wire.Traced
        {
          ctx = { Obs.Trace.goal = 3; span = 7; parent = 1 };
          msg = Wire.Show_actual_unchanged { req = 13 };
        };
      Wire.Show_perf_req { req = 5 };
      Wire.Nm_takeover { nm = "id-NM2"; epoch = 2 };
      Wire.Fenced { epoch = 2; msg = Wire.Ha_heartbeat { epoch = 2; seq = 1 } };
      Wire.Traced
        {
          ctx = { Obs.Trace.goal = 1; span = 5; parent = 4 };
          msg = Wire.Show_perf_req { req = 6 };
        };
      (* Nm.send fences what it traces: the class must survive both wrappers *)
      Wire.Fenced
        {
          epoch = 3;
          msg =
            Wire.Traced
              {
                ctx = { Obs.Trace.goal = 2; span = 9; parent = 0 };
                msg =
                  Wire.Set_address
                    { req = 7; target = Ids.v "IP" "g" "id-A"; addr = "10.0.1.1"; plen = 24 };
              };
        };
      Wire.Ha_heartbeat { epoch = 2; seq = 17 };
      Wire.Ha_journal
        {
          epoch = 2;
          seq = 3;
          entry =
            Intent.Begin
              (1, Intent.Address { target = Ids.v "IP" "h" "id-A"; addr = "10.0.0.1"; plen = 30 });
        };
      Wire.Ha_journal_ack { epoch = 2; upto = 40 };
      Wire.Ha_inflight
        { epoch = 2; req = 41; dst = "id-A"; msg = Wire.Show_actual_req { req = 41 } };
      Wire.Ha_confirm { epoch = 2; req = 41 };
      Wire.Set_address { req = 6; target = Ids.v "IP" "i" "id-B"; addr = "204.9.168.2"; plen = 30 };
      Wire.Self_test_req
        { req = 8; target = Ids.v "IP" "g" "id-A"; against = Some (Ids.v "IP" "k" "id-C") };
      Wire.Show_potential_resp
        { req = 3; modules = [ (Ids.v "GRE" "l" "id-A", Gre_module.abstraction ()) ] };
      Wire.Show_actual_resp
        {
          req = 4;
          state = [ (Ids.v "IP" "g" "id-A", [ ("addr", "10.0.1.1/24"); ("up", "true") ]) ];
        };
      Wire.Show_perf_resp
        {
          req = 5;
          tag = Wire.state_tag [ (Ids.v "ETH" "a" "id-A", [ ("pipe", "P0") ]) ];
          perf = [ (Ids.v "ETH" "a" "id-A", [ ("P0", [ ("up_frames", 12); ("drop:cut", 1) ]) ]) ];
        };
      Wire.Bundle_ack { req = 9 };
      Wire.Ack { req = 6 };
      Wire.Bundle_err { req = 9; error = "no such module" };
      Wire.Self_test_resp
        {
          req = 8;
          target = Ids.v "IP" "g" "id-A";
          ok = false;
          detail = "no reply from <IP,id-C,k>";
        };
      Wire.Fed_advert
        {
          domain = "west";
          nm = "id-NM-W";
          borders = [ Ids.v "IP" "h" "id-R2" ];
          summary = [ ("C1", 3) ];
          devices = [ "id-R1"; "id-R2" ];
        };
      Wire.Fed_plan_req
        { req = 11; domain = "west"; entry_dev = "id-R3"; target = Ids.v "IP" "k" "id-R4" };
      Wire.Fed_plan_resp
        {
          req = 11;
          devices =
            [
              ( "id-R3",
                [ ("eth1", "id-R4", "eth0") ],
                [ (Ids.v "IP" "j" "id-R3", Ip_module.abstraction ()) ] );
            ];
          module_domains = [ (Ids.v "IP" "j" "id-R3", "ISP") ];
          prefixes = [ ("ISP", "204.9.0.0/16") ];
        };
      Wire.Fed_plan_err { req = 11; error = "no path satisfies the goal" };
      Wire.Fed_commit
        {
          domain = "west";
          gid = 2;
          slices =
            [
              ( "id-R3",
                [ Primitive.Delete_pipe { owner = Ids.v "IP" "j" "id-R3"; pipe_id = "P4" } ] );
            ];
          reporter = Some (Ids.v "MPLS" "q" "id-R4");
        };
      Wire.Fed_commit_ack { gid = 2 };
      Wire.Fed_commit_err { gid = 2; error = "device unreachable: id-R4" };
      Wire.Fed_abort { domain = "west"; gid = 2 };
      Wire.Fed_abort_ack { gid = 2 };
      Wire.Fed_relay
        {
          src = Ids.v "MPLS" "p" "id-R2";
          dst = Ids.v "MPLS" "q" "id-R3";
          payload = Peer_msg.Mpls_label_bind { pipe = "P2"; label = 17; nexthop = "204.9.168.2" };
        };
    ]
  in
  List.iter
    (fun m ->
      let m' = Wire.decode (Wire.encode m) in
      check tbool "wire roundtrip" true (Wire.equal m m');
      (* a sender states [priority_of] of the message it holds; the
         receiver's parse must agree *)
      check tint "class survives the codec" (Wire.priority_of m) (Wire.priority_of m'))
    msgs

let prop_peer_msg_roundtrip =
  QCheck.Test.make ~name:"peer msg roundtrip" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* n = int_bound 5 in
         let* key = map Int32.of_int (int_bound 10000) in
         let* b1 = bool and* b2 = bool and* label = int_bound 0xfffff in
         return
           (match n with
           | 0 -> Peer_msg.Gre_params { pipe = "P1"; ikey = key; okey = key; use_seq = b1; use_csum = b2 }
           | 1 -> Peer_msg.Gre_params_ack { pipe = "P9" }
           | 2 ->
               Peer_msg.Lfv_request
                 { purpose = "endpoint"; fields = [ "address" ]; own = [ ("address", "10.0.0.1") ] }
           | 3 -> Peer_msg.Lfv_reply { purpose = "nexthop"; fields = [ ("address", "10.0.0.2") ] }
           | 4 -> Peer_msg.Mpls_label_bind { pipe = "P2"; label; nexthop = "204.9.168.2" }
           | _ -> Peer_msg.Vlan_vid_bind { pipe = "P1"; vid = label land 0xfff })))
    (fun m -> Peer_msg.equal m (Peer_msg.of_sexp (Peer_msg.to_sexp m)))

(* random sexp trees roundtrip through the textual codec *)
let sexp_gen =
  let open QCheck.Gen in
  let atom = map Sexp.atom (string_size ~gen:printable (int_bound 12)) in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then atom
          else oneof [ atom; map Sexp.list (list_size (int_bound 4) (self (n / 2))) ])
        (min n 6))

let prop_sexp_roundtrip =
  QCheck.Test.make ~name:"sexp roundtrip (random trees)" ~count:300
    (QCheck.make ~print:Sexp.to_string sexp_gen)
    (fun s -> Sexp.equal s (Sexp.of_string (Sexp.to_string s)))

let prop_primitive_roundtrip =
  let mref_gen =
    QCheck.Gen.(
      let* name = oneofl [ "IP"; "GRE"; "MPLS"; "ETH"; "VLAN"; "ESP" ]
      and* mid = string_size ~gen:(char_range 'a' 'z') (int_range 1 3)
      and* dev = oneofl [ "id-A"; "id-B"; "id-C" ] in
      return (Ids.v name mid dev))
  in
  let prim_gen =
    QCheck.Gen.(
      let* n = int_bound 3 in
      let* m1 = mref_gen and* m2 = mref_gen and* m3 = mref_gen and* m4 = mref_gen in
      let* pid = oneofl [ "P0"; "P1"; "P7" ] and* rate = int_range 1 100000 in
      return
        (match n with
        | 0 ->
            Primitive.Create_pipe
              {
                Primitive.pipe_id = pid;
                top = m1;
                bottom = m2;
                peer_top = Some m3;
                peer_bottom = Some m4;
                tradeoffs = [ "in-order-delivery" ];
                deps = [ ("esp-keys", m3) ];
              }
        | 1 ->
            Primitive.Create_switch
              {
                owner = m1;
                rule =
                  Primitive.Directed
                    { from_pipe = "P0"; to_pipe = pid; sel = Primitive.Dst_domain "C1-S2" };
              }
        | 2 -> Primitive.Create_perf { owner = m1; pipe_id = pid; rate_kbps = rate }
        | _ -> Primitive.Delete_switch { owner = m2; rule = Primitive.Bidi ("P1", pid) }))
  in
  QCheck.Test.make ~name:"primitive sexp roundtrip" ~count:300
    (QCheck.make ~print:(Fmt.to_to_string Primitive.pp) prim_gen)
    (fun p -> Primitive.equal p (Primitive.of_sexp (Primitive.to_sexp p)))

(* Wire.state_tag covers module ids and keys, never values: two states
   share a tag exactly when their (module, keys) lists are equal. The
   second state is the first with new values, or with one structural
   edit, including ones that keep the concatenated text the same. *)
let prop_state_tag_keys_only =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range 'a' 'c') (int_bound 3) in
  let mref = map (fun (n, m) -> Ids.v n m "id-A") (pair (oneofl [ "IP"; "ETH"; "MPLS" ]) str) in
  let state = list_size (int_bound 4) (pair mref (list_size (int_bound 4) (pair str str))) in
  let keys st = List.map (fun (m, kvs) -> (m, List.map fst kvs)) st in
  let revalue st = map (fun v -> List.map (fun (m, kvs) -> (m, List.map (fun (k, _) -> (k, v)) kvs)) st) str in
  let split_first_key = function
    | (m, (k, v) :: kvs) :: rest when String.length k >= 2 ->
        (m, (String.sub k 0 1, v) :: (String.sub k 1 (String.length k - 1), v) :: kvs) :: rest
    | st -> st
  in
  let move_key_back = function
    | (m1, kvs1) :: (m2, kv :: kvs2) :: rest -> (m1, kvs1 @ [ kv ]) :: (m2, kvs2) :: rest
    | st -> st
  in
  let edit st =
    oneof
      [
        revalue st;
        return (List.rev st);
        return (split_first_key st);
        return (move_key_back st);
        map (fun (m, k) -> (m, [ (k, "") ]) :: st) (pair mref str);
        return (List.map (fun (m, kvs) -> (m, List.rev kvs)) st);
        return (match st with _ :: rest -> rest | [] -> []);
      ]
  in
  QCheck.Test.make ~name:"state tag: equal exactly when the keys are" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) ->
         Fmt.str "%a / %a" Wire.pp (Wire.Show_actual_resp { req = 0; state = a }) Wire.pp
           (Wire.Show_actual_resp { req = 0; state = b }))
       (let* a = state in
        let* b = edit a in
        return (a, b)))
    (fun (a, b) -> String.equal (Wire.state_tag a) (Wire.state_tag b) = (keys a = keys b))

let test_abstraction_roundtrip () =
  let abs =
    {
      Abstraction.default with
      name = "GRE";
      up = Some { Abstraction.connectable = [ "IP" ]; dependencies = [ "x" ] };
      switch = [ Abstraction.Up_down; Abstraction.Down_up ];
      perf_tradeoffs = [ { Abstraction.gives = [ "in-order-delivery" ]; costs = [ "delay" ] } ];
      physical = [ { Abstraction.phys_id = "Phy-A-eth1"; peer_device = "id-D"; peer_port = "eth0"; broadcast = false } ];
      fast_forwarding = true;
    }
  in
  check tbool "roundtrip" true (Abstraction.of_sexp (Abstraction.to_sexp abs) = abs)

(* --- discovery and the potential graph ------------------------------------ *)

let test_discovery_table4 () =
  let v = Scenarios.build_vpn () in
  let topo = Nm.topology v.Scenarios.nm in
  check tint "devices discovered" 3 (List.length (Topology.modules_of_device topo "id-B") / 4 * 3);
  check tint "A has 6 modules" 6 (List.length (Topology.modules_of_device topo "id-A"));
  check tint "B has 4 modules" 4 (List.length (Topology.modules_of_device topo "id-B"));
  check tint "C has 6 modules" 6 (List.length (Topology.modules_of_device topo "id-C"));
  (* Table IV highlights *)
  let g = Topology.find_module_exn topo (Ids.v "IP" "g" "id-A") in
  check tbool "g switches down=>down" true (Abstraction.can_switch g Abstraction.Down_down);
  let a = Topology.find_module_exn topo (Ids.v "ETH" "a" "id-A") in
  check tbool "a has no phy=>phy (router port)" false (Abstraction.can_switch a Abstraction.Phy_phy);
  check tbool "a physical pipe to D" true
    (List.exists (fun p -> p.Abstraction.peer_device = "id-D") a.Abstraction.physical)

let test_potential_graph () =
  let v = Scenarios.build_vpn () in
  let topo = Topology.graph (Nm.topology v.Scenarios.nm) in
  let below = Potential_graph.below topo (Ids.v "IP" "g" "id-A") in
  let names = List.map Ids.short below |> List.sort compare in
  (* g can sit above ETH a, ETH b, IP h, GRE l and MPLS o *)
  check tbool "g belows" true (names = [ "a"; "b"; "h"; "l"; "o" ]);
  let phys = Potential_graph.phys_neighbours topo (Ids.v "ETH" "b" "id-A") in
  check tbool "b wired to c" true
    (List.exists (fun (_, m, _) -> Ids.equal m (Ids.v "ETH" "c" "id-B")) phys)

(* --- path finder ------------------------------------------------------------ *)

let canonical_gre = "a, g, l, h, b, c, i, d, e, j, n, k, f"
let canonical_ipip = "a, g, h, b, c, i, d, e, j, k, f"
let canonical_mpls = "a, g, o, b, c, p, d, e, q, k, f"

let test_nine_paths () =
  let v = Scenarios.build_vpn () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let sigs = List.map Path_finder.signature paths in
  check tint "exactly nine paths (paper: 3 expected + 6 more)" 9 (List.length paths);
  List.iter
    (fun s -> check tbool ("found " ^ s) true (List.mem s sigs))
    [ canonical_gre; canonical_ipip; canonical_mpls ];
  (* the six hybrid variants all mix MPLS with a tunnel *)
  let hybrids = List.filter (fun s -> not (List.mem s [ canonical_gre; canonical_ipip; canonical_mpls ])) sigs in
  check tint "six hybrids" 6 (List.length hybrids);
  List.iter
    (fun s ->
      check tbool ("hybrid uses MPLS: " ^ s) true
        (String.length s > 0
        && List.exists (fun m -> List.mem m [ "o"; "p"; "q" ]) (String.split_on_char ',' s |> List.map String.trim)))
    hybrids

let test_figure6_pruning () =
  (* No path may make g and i peers: i.e. no signature contains "g, b"
     (customer IP handed straight to the core ETH, figure 6(b)). *)
  let v = Scenarios.build_vpn () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  List.iter
    (fun p ->
      let s = Path_finder.signature p in
      let contains sub =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      check tbool ("no direct g->b in " ^ s) false (contains "g, b"))
    paths

let test_chooser_prefers_mpls () =
  let v = Scenarios.build_vpn () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  match Path_finder.choose (Nm.topology v.Scenarios.nm) paths with
  | Some p -> check tstr "chosen" canonical_mpls (Path_finder.signature p)
  | None -> Alcotest.fail "no path chosen"

let test_pipe_counts () =
  let v = Scenarios.build_vpn () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let by_sig s = List.find (fun p -> Path_finder.signature p = s) paths in
  check tint "mpls pipes" 8 (Path_finder.pipe_count (by_sig canonical_mpls));
  check tint "ipip pipes" 8 (Path_finder.pipe_count (by_sig canonical_ipip));
  check tint "gre pipes" 10 (Path_finder.pipe_count (by_sig canonical_gre))

(* --- script generation and Table V (CONMan side) --------------------------- *)

let script_for v signature =
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let path = List.find (fun p -> Path_finder.signature p = signature) paths in
  (path, Script_gen.generate (Nm.topology v.Scenarios.nm) v.Scenarios.goal path)

let test_table5_conman_gre () =
  let v = Scenarios.build_vpn () in
  let _, script = script_for v canonical_gre in
  let c = Script_gen.table5_counts script ~device:"id-A" in
  check tint "generic cmds" 2 (Devconf.Metrics.n_generic_cmds c);
  check tint "specific cmds" 0 (Devconf.Metrics.n_specific_cmds c);
  check tint "generic vars" 21 (Devconf.Metrics.n_generic_vars c);
  check tint "specific vars" 2 (Devconf.Metrics.n_specific_vars c)

let test_table5_conman_mpls () =
  let v = Scenarios.build_vpn () in
  let _, script = script_for v canonical_mpls in
  let c = Script_gen.table5_counts script ~device:"id-A" in
  check tint "generic cmds" 2 (Devconf.Metrics.n_generic_cmds c);
  check tint "specific cmds" 0 (Devconf.Metrics.n_specific_cmds c);
  check tint "generic vars" 18 (Devconf.Metrics.n_generic_vars c);
  check tint "specific vars" 2 (Devconf.Metrics.n_specific_vars c)

let test_gre_script_shape () =
  (* the generated script for the GRE path matches figure 7(b): four pipes
     created at A and the two customer routing rules on g *)
  let v = Scenarios.build_vpn () in
  let _, script = script_for v canonical_gre in
  let a_prims = List.assoc "id-A" script.Script_gen.per_device in
  let creates =
    List.filter (function Primitive.Create_pipe _ -> true | _ -> false) a_prims
  in
  check tint "four pipes at A" 4 (List.length creates);
  let directed =
    List.filter
      (function Primitive.Create_switch { rule = Primitive.Directed _; _ } -> true | _ -> false)
      a_prims
  in
  check tint "two customer rules at A" 2 (List.length directed)

(* --- end-to-end configuration ----------------------------------------------- *)

let configure v signature =
  let path, _ = script_for v signature in
  let script = Nm.configure_path v.Scenarios.nm v.Scenarios.goal path in
  (path, script)

let test_e2e_gre () =
  let v = Scenarios.build_vpn () in
  let _ = configure v canonical_gre in
  check tbool "no errors" true (Nm.errors v.Scenarios.nm = []);
  check tbool "S1 <-> S2 over CONMan GRE" true (Scenarios.vpn_reachable v);
  (* the negotiated tunnels must exist with mirrored keys *)
  let tun dev name = Netsim.Device.find_iface_exn dev name in
  let ta = tun v.Scenarios.tb.Netsim.Testbeds.ra "gre-P1-P2" in
  let tc = tun v.Scenarios.tb.Netsim.Testbeds.rc "gre-P10-P9" in
  match (ta.Netsim.Device.if_kind, tc.Netsim.Device.if_kind) with
  | Netsim.Device.Tun a, Netsim.Device.Tun c ->
      check tbool "keys mirrored" true
        (a.Netsim.Device.t_ikey = c.Netsim.Device.t_okey
        && a.Netsim.Device.t_okey = c.Netsim.Device.t_ikey);
      check tbool "in-order tradeoff -> sequence numbers" true
        (a.Netsim.Device.t_oseq && c.Netsim.Device.t_iseq);
      check tbool "error tradeoff -> checksums" true
        (a.Netsim.Device.t_ocsum && c.Netsim.Device.t_icsum)
  | _ -> Alcotest.fail "tunnel devices missing"

let test_e2e_gre_no_tradeoffs () =
  let v = Scenarios.build_vpn ~tradeoffs:[] () in
  let _ = configure v canonical_gre in
  check tbool "reachable" true (Scenarios.vpn_reachable v);
  let ta = Netsim.Device.find_iface_exn v.Scenarios.tb.Netsim.Testbeds.ra "gre-P1-P2" in
  match ta.Netsim.Device.if_kind with
  | Netsim.Device.Tun a ->
      check tbool "no sequence numbers without the trade-off" false a.Netsim.Device.t_oseq;
      check tbool "no checksums without the trade-off" false a.Netsim.Device.t_ocsum
  | _ -> Alcotest.fail "tunnel missing"

let test_e2e_mpls () =
  let v = Scenarios.build_vpn () in
  let _ = configure v canonical_mpls in
  check tbool "no errors" true (Nm.errors v.Scenarios.nm = []);
  check tbool "S1 <-> S2 over CONMan MPLS" true (Scenarios.vpn_reachable v);
  (* the core must label-switch, not route *)
  check tint "no IP forwarding at B" 0
    (Netsim.Counters.get v.Scenarios.tb.Netsim.Testbeds.rb.Netsim.Device.dev_counters "ip_forwarded");
  (* completion reported by the far-edge MPLS module *)
  check tbool "lsp-established completion" true
    (List.exists
       (fun (m, what) -> Ids.short m = "q" && what = "lsp-established")
       (Nm.completions v.Scenarios.nm))

let test_e2e_ipip () =
  let v = Scenarios.build_vpn () in
  let _ = configure v canonical_ipip in
  check tbool "no errors" true (Nm.errors v.Scenarios.nm = []);
  check tbool "S1 <-> S2 over CONMan IP-IP" true (Scenarios.vpn_reachable v)

let test_e2e_achieve_default () =
  (* the full pipeline: of the nine options the enumerator finds, achieve()
     plans the MPLS one and configures it *)
  let v = Scenarios.build_vpn () in
  check tint "nine options" 9 (List.length (Nm.find_paths v.Scenarios.nm v.Scenarios.goal));
  match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Error e -> Alcotest.fail e
  | Ok (_, chosen, _) ->
      check tstr "mpls chosen" canonical_mpls (Path_finder.signature chosen);
      check tbool "reachable" true (Scenarios.vpn_reachable v)

let test_e2e_raw_channel () =
  (* the same configuration over the zero-preconfiguration flooding channel *)
  let v = Scenarios.build_vpn ~channel:`Raw () in
  let _ = configure v canonical_gre in
  check tbool "reachable via raw channel" true (Scenarios.vpn_reachable v)

let test_e2e_vlan () =
  let v = Scenarios.build_vlan () in
  match
    Nm.achieve_l2 v.Scenarios.vnm ~scope:v.Scenarios.vscope
      ~from_eth:(Ids.v "ETH" "a" "id-SwA") ~to_eth:(Ids.v "ETH" "c" "id-SwC")
  with
  | Error e -> Alcotest.fail e
  | Ok _ ->
      check tbool "no errors" true (Nm.errors v.Scenarios.vnm = []);
      check tbool "customers bridged over CONMan VLAN tunnel" true (Scenarios.vlan_reachable v);
      (* the negotiated vid starts at the paper's 22 and programs QinQ *)
      let p = Netsim.Device.port v.Scenarios.vtb.Netsim.Testbeds.swa 0 in
      check tbool "customer port is a dot1q tunnel for vid 22" true
        (p.Netsim.Device.port_mode = Netsim.Device.Dot1q_tunnel 22);
      check tbool "completion reported" true
        (List.exists (fun (_, what) -> what = "vlan-tunnel-established") (Nm.completions v.Scenarios.vnm))

(* --- Table VI: management messages ------------------------------------------ *)

let table6_for_chain n pick =
  let c = Scenarios.build_chain n in
  let paths = Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal in
  let path = List.find pick paths in
  Nm.reset_stats c.Scenarios.cnm;
  let _ = Nm.configure_path c.Scenarios.cnm c.Scenarios.cgoal path in
  check tbool "no errors" true (Nm.errors c.Scenarios.cnm = []);
  check tbool "reachable" true (Scenarios.chain_reachable c);
  (Nm.stats_sent c.Scenarios.cnm, Nm.stats_received c.Scenarios.cnm)

let test_table6_gre () =
  List.iter
    (fun n ->
      let sent, received = table6_for_chain n Scenarios.pure_gre in
      check tint (Printf.sprintf "GRE sent (n=%d) = 3n+2" n) ((3 * n) + 2) sent;
      check tint (Printf.sprintf "GRE received (n=%d) = 2n+2" n) ((2 * n) + 2) received)
    [ 2; 3; 5; 8 ]

let test_table6_mpls () =
  List.iter
    (fun n ->
      let sent, received = table6_for_chain n Scenarios.pure_mpls in
      check tint (Printf.sprintf "MPLS sent (n=%d) = 3n-2" n) ((3 * n) - 2) sent;
      check tint (Printf.sprintf "MPLS received (n=%d) = 2n-1" n) ((2 * n) - 1) received)
    [ 2; 3; 5; 8 ]

let test_table6_vlan () =
  List.iter
    (fun n ->
      let v = Scenarios.build_vlan_chain n in
      Nm.reset_stats v.Scenarios.vcnm;
      (match
         Nm.achieve_l2 v.Scenarios.vcnm ~scope:v.Scenarios.vcscope
           ~from_eth:(Ids.v "ETH" "eth1" "id-Sw1")
           ~to_eth:(Ids.v "ETH" (Printf.sprintf "eth%d" n) (Printf.sprintf "id-Sw%d" n))
       with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      check tbool "reachable" true (Scenarios.vlan_chain_reachable v);
      check tint (Printf.sprintf "VLAN sent (n=%d) = 3n-2" n) ((3 * n) - 2)
        (Nm.stats_sent v.Scenarios.vcnm);
      check tint (Printf.sprintf "VLAN received (n=%d) = 2n-1" n) ((2 * n) - 1)
        (Nm.stats_received v.Scenarios.vcnm))
    [ 2; 3; 5; 8 ]

(* --- debugging and dependencies ---------------------------------------------- *)

let test_self_test_and_diagnose () =
  let v = Scenarios.build_vpn () in
  let path, _ = configure v canonical_gre in
  (* healthy: every module self-test passes *)
  let verdicts = Nm.diagnose v.Scenarios.nm path in
  List.iter (fun (m, ok, d) -> check tbool (Fmt.str "%a ok (%s)" Ids.pp m d) true ok) verdicts;
  (* cut the A--B wire: diagnosis must localise a failure *)
  let seg = Option.get (Netsim.Net.find_segment v.Scenarios.tb.Netsim.Testbeds.vpn_net "A--B") in
  Netsim.Link.cut seg;
  check tbool "vpn broken" false (Scenarios.vpn_reachable v);
  let verdicts = Nm.diagnose v.Scenarios.nm path in
  check tbool "failure localised" true (List.exists (fun (_, ok, _) -> not ok) verdicts);
  Netsim.Link.restore seg;
  check tbool "vpn restored" true (Scenarios.vpn_reachable v)

(* The walk sends every module its self-test in one round: over the VPN's
   13-module pure-GRE path it costs the serial walk's 26 NM messages and
   gives its verdicts, in 1.006 ms of virtual time (one 1 ms echo window,
   the IP modules' probes overlapping) where the serial walk waits out
   each IP module's window in turn: 3.078 ms. An acked frame leaves no
   retransmit timer, so neither walk waits for one. *)
let test_diagnose_one_round () =
  let v = Scenarios.build_vpn () in
  let path, _ = configure v canonical_gre in
  let nm = v.Scenarios.nm and eq = Netsim.Net.eq v.Scenarios.tb.Netsim.Testbeds.vpn_net in
  let messages () = Nm.stats_sent nm + Nm.stats_received nm in
  let walk f =
    let m = messages () and t = Netsim.Event_queue.now eq in
    let verdicts = f () in
    (verdicts, messages () - m, Int64.sub (Netsim.Event_queue.now eq) t)
  in
  let serial () =
    List.map
      (fun (vi : Path_finder.visit) ->
        let ok, detail = Nm.self_test nm vi.Path_finder.v_mod in
        (vi.Path_finder.v_mod, ok, detail))
      path.Path_finder.visits
  in
  let verdict = Alcotest.(list (triple string bool string)) in
  let show = List.map (fun (m, ok, d) -> (Ids.qualified m, ok, d)) in
  let old_verdicts, old_msgs, old_ns = walk serial in
  let verdicts, msgs, ns = walk (fun () -> Nm.diagnose nm path) in
  check tint "13 modules" 13 (List.length verdicts);
  check tbool "all pass" true (List.for_all (fun (_, ok, _) -> ok) verdicts);
  check verdict "the serial walk's verdicts, in path order" (show old_verdicts) (show verdicts);
  check (Alcotest.pair tint tint) "26 messages, as the serial walk's" (26, 26) (old_msgs, msgs);
  check (Alcotest.pair Alcotest.int64 Alcotest.int64) "virtual time: 1.0 ms, not 3.1"
    (3_078_000L, 1_006_000L) (old_ns, ns)

let test_dependency_trigger_repair () =
  let v = Scenarios.build_vpn () in
  Nm.set_auto_repair v.Scenarios.nm true;
  let _ = configure v canonical_gre in
  check tbool "initially reachable" true (Scenarios.vpn_reachable v);
  (* the operator renumbers C's core interface: the tunnel endpoint moves *)
  let j = List.assoc "j" v.Scenarios.ip_handles in
  j.Ip_module.change_address ~iface:"eth2" "204.9.169.1" "204.9.169.5";
  (* keep the underlying next-hop reachability consistent *)
  ignore (Netsim.Net.run v.Scenarios.tb.Netsim.Testbeds.vpn_net);
  check tbool "trigger fired" true (Nm.triggers v.Scenarios.nm <> []);
  check tbool "repaired automatically" true (Scenarios.vpn_reachable v)

let test_filter_creation () =
  let v = Scenarios.build_vpn () in
  let _ = configure v canonical_gre in
  check tbool "reachable before filter" true (Scenarios.vpn_reachable v);
  (* "drop packets from <IP,A,g>'s site going to <IP,C,k>'s site" *)
  let agent = List.assoc "A" v.Scenarios.agents in
  let g = Ids.v "IP" "g" "id-A" in
  Agent.handle agent ~src:Scenarios.nm_station_id
    (Wire.encode
       (Wire.Bundle
          {
            req = 99;
            cmds =
              [
                Primitive.Create_filter
                  { owner = g; drop_src = Ids.v "IP" "x" "id-X"; drop_dst = Ids.v "IP" "y" "id-Y" };
              ];
            annex = Wire.empty_annex;
          }));
  ignore (Netsim.Net.run v.Scenarios.tb.Netsim.Testbeds.vpn_net);
  check tbool "filter blocks" false (Scenarios.vpn_reachable v);
  check tbool "drop counted" true
    (Netsim.Counters.get v.Scenarios.tb.Netsim.Testbeds.ra.Netsim.Device.dev_counters
       "ip_filtered_drop"
    > 0)


let test_teardown () =
  let v = Scenarios.build_vpn () in
  let _, script = configure v canonical_gre in
  check tbool "configured" true (Scenarios.vpn_reachable v);
  Nm.teardown v.Scenarios.nm script;
  check tbool "no errors" true (Nm.errors v.Scenarios.nm = []);
  check tbool "unreachable after teardown" false (Scenarios.vpn_reachable v);
  (* the device state is gone: no tunnel interface, no policy rules, and no
     route for the remote customer prefix *)
  let ra = v.Scenarios.tb.Netsim.Testbeds.ra in
  check tbool "tunnel device removed" true (Netsim.Device.find_iface ra "gre-P1-P2" = None);
  check tint "policy rules removed" 0 (List.length ra.Netsim.Device.rules);
  check tbool "customer route removed" true
    (match Netsim.Device.lookup_route ra ~in_iface:"" (Packet.Ipv4_addr.of_string "10.0.2.2") with
    | _ -> false
    | exception Not_found -> true)

let test_reconfigure_after_teardown () =
  (* tear the GRE path down, then bring the MPLS path up on the same devices *)
  let v = Scenarios.build_vpn () in
  let _, script = configure v canonical_gre in
  Nm.teardown v.Scenarios.nm script;
  let _ = configure v canonical_mpls in
  check tbool "no errors" true (Nm.errors v.Scenarios.nm = []);
  check tbool "MPLS path works after GRE teardown" true (Scenarios.vpn_reachable v)

let test_vlan_teardown () =
  let v = Scenarios.build_vlan () in
  match
    Nm.achieve_l2 v.Scenarios.vnm ~scope:v.Scenarios.vscope
      ~from_eth:(Ids.v "ETH" "a" "id-SwA") ~to_eth:(Ids.v "ETH" "c" "id-SwC")
  with
  | Error e -> Alcotest.fail e
  | Ok script ->
      check tbool "bridged" true (Scenarios.vlan_reachable v);
      Nm.teardown v.Scenarios.vnm script;
      check tbool "isolated after teardown" false (Scenarios.vlan_reachable v);
      let p = Netsim.Device.port v.Scenarios.vtb.Netsim.Testbeds.swa 0 in
      check tbool "customer port parked in the holding VLAN" true
        (p.Netsim.Device.port_mode = Netsim.Device.Access 4094)

let test_probe_end_to_end () =
  let v = Scenarios.build_vpn () in
  let path, _ = configure v canonical_gre in
  (* healthy: the edge-to-edge probe succeeds *)
  let ok, detail = Nm.probe_end_to_end v.Scenarios.nm path in
  check tbool ("healthy probe: " ^ detail) true ok;
  (* inject the silent fault: an out-of-band tunnel key change. Hop-by-hop
     self tests all pass, but the end-to-end probe catches it. *)
  (match
     (Netsim.Device.find_iface_exn v.Scenarios.tb.Netsim.Testbeds.rc "gre-P10-P9")
       .Netsim.Device.if_kind
   with
  | Netsim.Device.Tun t -> t.Netsim.Device.t_ikey <- Some 4242l
  | _ -> assert false);
  let verdicts = Nm.diagnose v.Scenarios.nm path in
  check tbool "hop-by-hop tests all pass (the fault is silent)" true
    (List.for_all (fun (_, ok, _) -> ok) verdicts);
  let ok, _ = Nm.probe_end_to_end v.Scenarios.nm path in
  check tbool "end-to-end probe catches it" false ok

(* --- NM address assignment (§II-E's DHCP-like exception) -------------------------- *)

let test_nm_assigns_addresses () =
  (* two unaddressed ISP routers: the NM assigns every address, then
     configures the GRE VPN over them *)
  let c = Scenarios.build_chain ~addressed:false 2 in
  check tbool "unaddressed: isolated" false (Scenarios.chain_reachable c);
  check tbool "ISP router has no addresses" true
    (List.length (Netsim.Device.local_addrs c.Scenarios.ctb.Netsim.Testbeds.routers.(0)) = 1);
  (* the NM's address plan: customer-facing and core interfaces *)
  Nm.assign_address c.Scenarios.cnm ~target:(Ids.v "IP" "g" "id-R1") ~addr:"192.168.0.2" ~plen:30;
  Nm.assign_address c.Scenarios.cnm ~target:(Ids.v "IP" "h" "id-R1") ~addr:"204.9.100.1" ~plen:30;
  Nm.assign_address c.Scenarios.cnm ~target:(Ids.v "IP" "j" "id-R2") ~addr:"204.9.100.2" ~plen:30;
  Nm.assign_address c.Scenarios.cnm ~target:(Ids.v "IP" "k" "id-R2") ~addr:"192.168.1.2" ~plen:30;
  (* now the ordinary pipeline works *)
  let paths = Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal in
  let p = List.find Scenarios.pure_gre paths in
  let _ = Nm.configure_path c.Scenarios.cnm c.Scenarios.cgoal p in
  check tbool "no errors" true (Nm.errors c.Scenarios.cnm = []);
  check tbool "VPN up over NM-assigned addresses" true (Scenarios.chain_reachable c)

(* An address the IP module cannot parse is the module's error, not the
   NM's crash: the agent answers Bundle_err, the request is confirmed and
   the device keeps its state, so the next goal still configures. *)
let test_bad_address_rejected () =
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  let before = Nm.show_actual nm "id-A" in
  check tbool "id-A answers showActual" true (before <> None);
  Nm.assign_address nm ~target:(Ids.v "IP" "g" "id-A") ~addr:"bogus" ~plen:24;
  check tbool "id-A reported the error" true (List.mem_assoc "id-A" (Nm.errors nm));
  check tint "the request was confirmed" 0 (Nm.inflight_count nm);
  check tbool "id-A's state is unchanged" true (Nm.show_actual nm "id-A" = before);
  (match Nm.achieve nm v.Scenarios.goal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve after the rejected address: %s" e);
  check tbool "S1 <-> S2 after the rejected address" true (Scenarios.vpn_reachable v);
  (* and on a configured device *)
  Nm.assign_address nm ~target:(Ids.v "IP" "h" "id-A") ~addr:"bogus" ~plen:24;
  check tint "rejected after achieving too" 0 (Nm.inflight_count nm);
  check tbool "S1 <-> S2 still" true (Scenarios.vpn_reachable v)

(* --- performance enforcement (§II-D.1(c)) --------------------------------------- *)

(* Blasts [n] UDP packets from X to Y, 10us apart; returns how many arrive. *)
let udp_blast v n =
  let tb = v.Scenarios.tb in
  let received = ref 0 in
  Netsim.Device.udp_bind tb.Netsim.Testbeds.host2 ~port:9000 (fun ~src:_ ~src_port:_ _ ->
      incr received);
  let eq = Netsim.Net.eq tb.Netsim.Testbeds.vpn_net in
  for i = 0 to n - 1 do
    Netsim.Event_queue.schedule eq ~delay_ns:(Int64.of_int (i * 10_000)) (fun () ->
        Netsim.Datapath.udp_send tb.Netsim.Testbeds.host1
          ~src:(Packet.Ipv4_addr.of_string "10.0.1.2")
          ~dst:(Packet.Ipv4_addr.of_string "10.0.2.2")
          ~src_port:9000 ~dst_port:9000 (Bytes.make 64 'x'))
  done;
  ignore (Netsim.Net.run tb.Netsim.Testbeds.vpn_net);
  Netsim.Device.udp_unbind tb.Netsim.Testbeds.host2 ~port:9000;
  !received

let test_perf_enforcement () =
  let v = Scenarios.build_vpn () in
  let _ = configure v canonical_gre in
  check tint "all 20 arrive unthrottled" 20 (udp_blast v 20);
  (* the NM rate-limits what g sends into the path pipe P1: no tc command,
     no queueing discipline visible to it *)
  Nm.enforce_rate v.Scenarios.nm ~owner:(Ids.v "IP" "g" "id-A") ~pipe_id:"P1" ~rate_kbps:800;
  check tbool "no errors" true (Nm.errors v.Scenarios.nm = []);
  let limited = udp_blast v 20 in
  check tbool (Printf.sprintf "throttled (%d of 20)" limited) true (limited >= 1 && limited < 20);
  check tbool "policer drops counted" true
    (Netsim.Counters.get
       (Netsim.Device.find_iface_exn v.Scenarios.tb.Netsim.Testbeds.ra "gre-P1-P2")
         .Netsim.Device.if_counters "policer_drops"
    > 0);
  (* removing the enforcement restores full delivery *)
  Nm.remove_rate v.Scenarios.nm ~owner:(Ids.v "IP" "g" "id-A") ~pipe_id:"P1";
  check tint "restored" 20 (udp_blast v 20)

(* The same intent on the MPLS path: g's pipe P1 rides an LSP, so the
   policer goes on the interface the LSP leaves by (A's eth2), not on the
   pop pseudo-interface mpls0; re-sending the intent applies it again
   without an error. *)
let test_perf_enforcement_mpls () =
  let v = Scenarios.build_vpn () in
  let _ = configure v canonical_mpls in
  let nm = v.Scenarios.nm and owner = Ids.v "IP" "g" "id-A" in
  let errors = Alcotest.(list (pair string string)) in
  check tint "all 20 arrive unthrottled" 20 (udp_blast v 20);
  Nm.enforce_rate nm ~owner ~pipe_id:"P1" ~rate_kbps:800;
  check errors "no errors" [] (Nm.errors nm);
  let limited = udp_blast v 20 in
  check tbool (Printf.sprintf "throttled (%d of 20)" limited) true (limited >= 1 && limited < 20);
  check tbool "policer drops counted on the LSP's egress" true
    (Netsim.Counters.get
       (Netsim.Device.find_iface_exn v.Scenarios.tb.Netsim.Testbeds.ra "eth2")
         .Netsim.Device.if_counters "policer_drops"
    > 0);
  let rate =
    List.find
      (fun (i : Intent.t) -> match i.Intent.spec with Intent.Rate _ -> true | _ -> false)
      (Nm.intents nm)
  in
  for _ = 1 to 3 do
    ignore (Nm.reconfigure nm rate)
  done;
  check errors "three reconfigures, no errors" [] (Nm.errors nm);
  let limited = udp_blast v 20 in
  check tbool (Printf.sprintf "still throttled (%d of 20)" limited) true (limited < 20);
  Nm.remove_rate nm ~owner ~pipe_id:"P1";
  check tint "restored" 20 (udp_blast v 20)

(* --- security: ESP with the IKE control-module dependency (§II-F, fig. 1) ------- *)

let canonical_esp = "a, g, s, h, b, c, i, d, e, j, t, k, f"

let test_secure_paths_enumerated () =
  let v = Scenarios.build_vpn ~secure:true () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  check tint "ESP adds four options" 13 (List.length paths);
  check tint "four satisfy confidentiality" 4
    (List.length (List.filter Scenarios.secure paths));
  (* the plain testbed is unchanged: the extra options only exist because
     the extra modules advertise themselves *)
  let plain = Scenarios.build_vpn () in
  check tint "still nine without ESP" 9
    (List.length (Nm.find_paths plain.Scenarios.nm plain.Scenarios.goal))

let test_esp_dependency_in_abstraction () =
  let v = Scenarios.build_vpn ~secure:true () in
  let topo = Nm.topology v.Scenarios.nm in
  let esp = Topology.find_module_exn topo (Ids.v "ESP" "s" "id-A") in
  check tbool "ESP declares the esp-keys dependency" true
    ((Option.get esp.Abstraction.up).Abstraction.dependencies = [ "esp-keys" ]);
  check tbool "ESP advertises security" true
    (List.mem "confidentiality" esp.Abstraction.security);
  let ike = Topology.find_module_exn topo (Ids.v "IKE" "m" "id-A") in
  check tbool "IKE provides it" true (List.mem "esp-keys" ike.Abstraction.provides)

let configure_esp () =
  let v = Scenarios.build_vpn ~secure:true () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let p = List.find (fun p -> Path_finder.signature p = canonical_esp) paths in
  let script = Nm.configure_path v.Scenarios.nm v.Scenarios.goal p in
  (v, p, script)

let test_e2e_esp () =
  let v, _, script = configure_esp () in
  check tbool "no errors" true (Nm.errors v.Scenarios.nm = []);
  check tbool "S1 <-> S2 over IPsec" true (Scenarios.vpn_reachable v);
  (* the NM resolved the dependency to the IKE module in the script *)
  check tbool "dep resolved in the script" true
    (List.exists
       (function
         | Primitive.Create_pipe sp ->
             List.exists (fun (d, m) -> d = "esp-keys" && m.Ids.name = "IKE") sp.Primitive.deps
         | _ -> false)
       script.Script_gen.prims);
  (* the SAs were negotiated by IKE over the data plane *)
  match Nm.show_actual v.Scenarios.nm "id-A" with
  | Some state ->
      let ike_state = List.assoc (Ids.v "IKE" "m" "id-A") state in
      check tbool "SA established" true
        (List.exists (fun (_, v) -> v = "established") ike_state)
  | None -> Alcotest.fail "no showActual"

let test_esp_traffic_encrypted_on_core () =
  let v, _, _ = configure_esp () in
  Netsim.Trace.with_trace (fun () ->
      check tbool "reachable" true (Scenarios.vpn_reachable v));
  (* everything router B receives on the data path is ESP: no cleartext
     customer traffic crosses the core *)
  let core_rx =
    List.filter_map
      (fun e ->
        if e.Netsim.Trace.device = "B" && e.Netsim.Trace.what = "rx"
           && e.Netsim.Trace.detail <> "eth.arp"
        then Some e.Netsim.Trace.detail
        else None)
      (Netsim.Trace.get ())
  in
  check tbool "saw traffic" true (core_rx <> []);
  List.iter (fun s -> check tstr "encrypted" "eth.ip.esp" s) core_rx

let test_esp_wrong_key_drops () =
  let v, p, _ = configure_esp () in
  check tbool "up" true (Scenarios.vpn_reachable v);
  (* tamper with the key at C out-of-band: authentication fails silently *)
  (match
     (Netsim.Device.find_iface_exn v.Scenarios.tb.Netsim.Testbeds.rc "esp-P10-P9")
       .Netsim.Device.if_kind
   with
  | Netsim.Device.Tun t -> t.Netsim.Device.t_enc_in <- Some 424242l
  | _ -> assert false);
  check tbool "broken" false (Scenarios.vpn_reachable v);
  check tbool "auth drops counted" true
    (Netsim.Counters.get v.Scenarios.tb.Netsim.Testbeds.rc.Netsim.Device.dev_counters
       "esp_auth_drop"
    > 0);
  (* ... and the end-to-end probe localises it while hop tests pass *)
  let ok, _ = Nm.probe_end_to_end v.Scenarios.nm p in
  check tbool "probe catches it" false ok

(* --- multiple NMs (§V): warm standby takeover ---------------------------------- *)

let test_nm_takeover () =
  let v = Scenarios.build_vpn () in
  Nm.set_auto_repair v.Scenarios.nm true;
  let _, _ = configure v canonical_gre in
  check tbool "primary configured" true (Scenarios.vpn_reachable v);
  (* bring up a warm standby, replicate the primary's state, take over *)
  let standby =
    Nm.create ~chan:v.Scenarios.chan ~net:v.Scenarios.tb.Netsim.Testbeds.vpn_net
      ~my_id:"id-NM2" ()
  in
  Nm.replicate_to v.Scenarios.nm ~standby;
  Nm.take_over standby;
  (* the primary "dies": the operator renumbers C's core interface and only
     the standby can repair *)
  let before_primary = Nm.stats_received v.Scenarios.nm in
  let j = List.assoc "j" v.Scenarios.ip_handles in
  j.Ip_module.change_address ~iface:"eth2" "204.9.169.1" "204.9.169.5";
  ignore (Netsim.Net.run v.Scenarios.tb.Netsim.Testbeds.vpn_net);
  check tbool "standby saw the trigger" true (Nm.triggers standby <> []);
  check tbool "standby repaired the VPN" true (Scenarios.vpn_reachable v);
  check tint "primary received nothing after takeover" before_primary
    (Nm.stats_received v.Scenarios.nm)

(* --- bounded NM state -------------------------------------------------------- *)

let test_goal_logs_bounded () =
  (* a long closed loop of goals: the per-goal logs stay at their ring
     capacity and count what they dropped *)
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  for _ = 1 to 600 do
    match Nm.achieve nm v.Scenarios.goal with
    | Ok (_, _, script) -> Nm.teardown nm script
    | Error e -> Alcotest.fail e
  done;
  check tint "convey log at capacity" Nm.log_capacity (List.length (Nm.conveys nm));
  let dropped = List.assoc "conveys" (Nm.ring_dropped nm) in
  check tbool "dropped conveys counted" true (dropped > 0);
  let obs = Observe.create () in
  ignore (Observe.attach_nm obs ~station:Scenarios.nm_station_id nm);
  check tint "surfaced beside the other rings" dropped
    (List.assoc ("nm_conveys_" ^ Scenarios.nm_station_id) (Observe.ring_dropped obs));
  check tbool "completions bounded" true (List.length (Nm.completions nm) <= Nm.log_capacity);
  check tbool "still configures" true
    (match Nm.achieve nm v.Scenarios.goal with Ok _ -> Scenarios.vpn_reachable v | Error _ -> false)

let test_read_replies_not_retained () =
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  for _ = 1 to 100 do
    check tbool "showActual answered" true (Nm.show_actual nm "id-B" <> None);
    check tbool "showPerf answered" true (Nm.show_perf nm "id-B" <> None)
  done;
  check tint "no replies held after 200 reads" 0 (Nm.stored_replies nm);
  (* a reader that gives up at a horizon: the late answer is dropped *)
  let now = Netsim.Event_queue.now (Netsim.Net.eq v.Scenarios.tb.Netsim.Testbeds.vpn_net) in
  Nm.set_horizon nm (Some now);
  check tbool "no answer within the horizon" true (Nm.show_actual nm "id-B" = None);
  Nm.set_horizon nm None;
  Nm.run nm;
  check tint "late answer not kept" 0 (Nm.stored_replies nm)

(* Everything configuration writes into a device's datapath: interfaces
   with addresses and up flag, every table with its routes, policy rules,
   MPLS ILM and NHLFE entries, IP filters and registered table names. ARP
   and FDB caches and counters are traffic's, not configuration's. *)
let datapath_state net scope =
  let module D = Netsim.Device in
  let bindings tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.map
    (fun id ->
      let d = Option.get (Netsim.Net.device_by_id net id) in
      ( id,
        ( List.map (fun (i : D.iface) -> (i.D.if_name, i.D.if_addrs, i.D.if_up)) d.D.ifaces,
          List.map (fun (name, routes) -> (name, !routes)) d.D.tables,
          d.D.rules,
          bindings d.D.mpls.D.ilm_table,
          bindings d.D.mpls.D.nhlfe_table,
          d.D.ip_drops,
          d.D.rt_table_names ) ))
    scope

let check_no_residue ~what net scope base =
  List.iter2
    (fun (id, before) (_, after) -> check tbool (what ^ " leaves " ^ id ^ " as found") true (before = after))
    base (datapath_state net scope)

(* The perfbench goal trade-off sets. *)
let tradeoff_sets =
  [ []; [ "in-order-delivery" ]; [ "low-error-rate" ]; [ "in-order-delivery"; "low-error-rate" ] ]

let test_teardown_leaves_no_residue () =
  (* every enumerated path of the plain and the secure VPN, configured,
     pinged and torn down three times each *)
  List.iter
    (fun secure ->
      let v = Scenarios.build_vpn ~secure () in
      let nm = v.Scenarios.nm and net = v.Scenarios.tb.Netsim.Testbeds.vpn_net in
      let paths = Nm.find_paths nm v.Scenarios.goal in
      let cycle path =
        let script = Nm.configure_path nm v.Scenarios.goal path in
        ignore (Scenarios.vpn_reachable v);
        Nm.teardown nm script
      in
      cycle (List.hd paths);
      let base = datapath_state net v.Scenarios.scope in
      List.iter
        (fun path ->
          for k = 1 to 3 do
            cycle path;
            check_no_residue
              ~what:(Printf.sprintf "[%s] cycle %d" (Path_finder.signature path) k)
              net v.Scenarios.scope base
          done)
        paths)
    [ false; true ];
  (* achieve cycles over the trade-off sets on the VPN, a chain and the
     diamond *)
  let achieve_cycles name nm net scope goal reachable =
    let cycle k =
      let goal = { goal with Path_finder.g_tradeoffs = List.nth tradeoff_sets (k mod 4) } in
      match Nm.achieve nm goal with
      | Ok (_, _, script) ->
          check tbool (Printf.sprintf "%s goal %d reachable" name k) true (reachable ());
          Nm.teardown nm script
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
    in
    cycle 0;
    let base = datapath_state net scope in
    for k = 1 to 40 do
      cycle k;
      check_no_residue ~what:(Printf.sprintf "%s goal %d" name k) net scope base
    done
  in
  let v = Scenarios.build_vpn () in
  achieve_cycles "vpn" v.Scenarios.nm v.Scenarios.tb.Netsim.Testbeds.vpn_net v.Scenarios.scope
    v.Scenarios.goal (fun () -> Scenarios.vpn_reachable v);
  let c = Scenarios.build_chain 4 in
  achieve_cycles "chain" c.Scenarios.cnm c.Scenarios.ctb.Netsim.Testbeds.chain_net c.Scenarios.cscope
    c.Scenarios.cgoal (fun () -> Scenarios.chain_reachable c);
  let d = Scenarios.build_diamond () in
  achieve_cycles "diamond" d.Scenarios.dnm d.Scenarios.dtb.Netsim.Testbeds.dia_net d.Scenarios.dscope
    d.Scenarios.dgoal (fun () -> Scenarios.diamond_reachable d)

let test_flat_goal_cost () =
  (* the 400th goal allocates what the 51st did: nothing an NM or a device
     keeps grows with the goals served (counts only, never wall clock) *)
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  let words =
    Array.init 400 (fun _ ->
        let w0 = Gc.minor_words () in
        (match Nm.achieve nm v.Scenarios.goal with
        | Ok (_, _, script) ->
            ignore (Scenarios.vpn_reachable v);
            Nm.teardown nm script
        | Error e -> Alcotest.fail e);
        Gc.minor_words () -. w0)
  in
  let mean first last =
    let sum = ref 0. in
    for k = first - 1 to last - 1 do
      sum := !sum +. words.(k)
    done;
    !sum /. float_of_int (last - first + 1)
  in
  let early = mean 51 100 and late = mean 351 400 in
  check tbool
    (Printf.sprintf "minor words per goal %.0f late vs %.0f early, within 1%%" late early)
    true
    (Float.abs (late -. early) <= 0.01 *. early);
  check tbool "intents bounded" true (List.length (Nm.intents nm) <= Nm.log_capacity);
  let dropped = List.assoc "retired_intents" (Nm.ring_dropped nm) in
  check tbool "retired intents dropped" true (dropped > 0);
  let obs = Observe.create () in
  ignore (Observe.attach_nm obs ~station:Scenarios.nm_station_id nm);
  check tint "surfaced beside the other rings" dropped
    (List.assoc ("nm_retired_intents_" ^ Scenarios.nm_station_id) (Observe.ring_dropped obs))

(* --- deployments: the operator knowledge derived from each layout ---------- *)

let c1_prefixes = [ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ]

let tknowledge =
  Alcotest.(
    pair
      (slist (pair string string) compare)
      (slist (pair string string) compare))

(* An NM's (module, domain) pairs and prefix map, compared as sets. *)
let knowledge nm =
  let topo = Nm.topology nm in
  ( List.map (fun (m, d) -> (Ids.to_string m, d)) topo.Topology.module_domains,
    topo.Topology.domain_prefixes )

let expect what nm domains prefixes =
  let named = List.map (fun ((name, mid, dev), d) -> (Ids.to_string (Ids.v name mid dev), d)) in
  check tknowledge what (named domains, prefixes) (knowledge nm)

let vpn_domains =
  [
    (("IP", "g", "id-A"), "C1");
    (("IP", "h", "id-A"), "ISP");
    (("IP", "i", "id-B"), "ISP");
    (("IP", "j", "id-C"), "ISP");
    (("IP", "k", "id-C"), "C1");
  ]

let diamond_domains =
  [
    (("IP", "g", "id-A"), "C1");
    (("IP", "h", "id-A"), "ISP");
    (("IP", "i1", "id-B1"), "ISP");
    (("IP", "i2", "id-B2"), "ISP");
    (("IP", "j", "id-C"), "ISP");
    (("IP", "k", "id-C"), "C1");
  ]

let test_deployed_knowledge () =
  expect "VPN" (Scenarios.build_vpn ()).Scenarios.nm vpn_domains c1_prefixes;
  expect "secure VPN" (Scenarios.build_vpn ~secure:true ()).Scenarios.nm vpn_domains c1_prefixes;
  expect "diamond" (Scenarios.build_diamond ()).Scenarios.dnm diamond_domains c1_prefixes;
  expect "chain n=5" (Scenarios.build_chain 5).Scenarios.cnm
    [
      (("IP", "g", "id-R1"), "C1");
      (("IP", "h", "id-R1"), "ISP");
      (("IP", "i2", "id-R2"), "ISP");
      (("IP", "i3", "id-R3"), "ISP");
      (("IP", "i4", "id-R4"), "ISP");
      (("IP", "j", "id-R5"), "ISP");
      (("IP", "k", "id-R5"), "C1");
    ]
    c1_prefixes;
  expect "VLAN" (Scenarios.build_vlan ()).Scenarios.vnm [] [];
  expect "VLAN chain n=3" (Scenarios.build_vlan_chain 3).Scenarios.vcnm [] []

(* Each domain's NM knows only its own IP modules. The lists reach the
   wire (Fed adverts and plan replies), so their order is pinned too:
   newest registration first. *)
let test_two_domain_knowledge () =
  let t = Federation.Fed_scenarios.build_two_domain 4 in
  let listed fed =
    List.map
      (fun (m, d) -> (Ids.to_string m, d))
      (Nm.topology (Federation.Fed.nm fed)).Topology.module_domains
  in
  let ip mid dev = Ids.to_string (Ids.v "IP" mid dev) in
  check
    Alcotest.(list (pair string string))
    "west: R1-R2 only"
    [ (ip "i2" "id-R2", "ISP"); (ip "h" "id-R1", "ISP"); (ip "g" "id-R1", "C1") ]
    (listed t.Federation.Fed_scenarios.fwest);
  check
    Alcotest.(list (pair string string))
    "east: R3-R4 only"
    [ (ip "k" "id-R4", "C1"); (ip "j" "id-R4", "ISP"); (ip "i3" "id-R3", "ISP") ]
    (listed t.Federation.Fed_scenarios.feast);
  List.iter
    (fun fed ->
      check
        Alcotest.(slist (pair string string) compare)
        "prefixes" c1_prefixes
        (Nm.topology (Federation.Fed.nm fed)).Topology.domain_prefixes)
    [ t.Federation.Fed_scenarios.fwest; t.Federation.Fed_scenarios.feast ]

(* A replacement NM pointed at a deployment learns the same knowledge and
   the same devices. *)
let test_adopt_knowledge () =
  let fresh ~transport ~chan ~net =
    Nm.create ~transport ~chan ~net ~my_id:Scenarios.nm_station_id ()
  in
  let devices nm =
    List.map (fun (d : Topology.device_info) -> d.Topology.di_id) (Nm.topology nm).Topology.devices
  in
  let v = Scenarios.build_vpn () in
  let nm =
    fresh ~transport:v.Scenarios.transport ~chan:v.Scenarios.chan
      ~net:v.Scenarios.tb.Netsim.Testbeds.vpn_net
  in
  Scenarios.vpn_adopt v nm;
  expect "vpn_adopt" nm vpn_domains c1_prefixes;
  check Alcotest.(list string) "vpn_adopt harvests the scope" v.Scenarios.scope (devices nm);
  let d = Scenarios.build_diamond () in
  let nm =
    fresh ~transport:d.Scenarios.dtransport ~chan:d.Scenarios.dchan
      ~net:d.Scenarios.dtb.Netsim.Testbeds.dia_net
  in
  Scenarios.diamond_adopt d nm;
  expect "diamond_adopt" nm diamond_domains c1_prefixes;
  check Alcotest.(list string) "diamond_adopt harvests the scope" d.Scenarios.dscope (devices nm)

(* The customer hosts run agents the NM never manages: it neither knows
   the devices nor their IP modules' domains, and holds no handle on them. *)
let test_vpn_hosts_unmanaged () =
  let v = Scenarios.build_vpn () in
  let topo = Nm.topology v.Scenarios.nm in
  check
    Alcotest.(slist string compare)
    "ip_handles" [ "g"; "h"; "i"; "j"; "k" ]
    (List.map fst v.Scenarios.ip_handles);
  List.iter
    (fun host ->
      check tbool (host ^ " unknown") true (Topology.device topo host = None);
      check tbool (host ^ " has no domain") false
        (List.exists (fun ((m : Ids.t), _) -> m.Ids.dev = host) topo.Topology.module_domains))
    [ "id-X"; "id-Y" ];
  (* the hosts' agents are up all the same: the filter example needs them *)
  check tbool "host agent answers" true (Nm.show_actual v.Scenarios.nm "id-X" <> None)

let () =
  Alcotest.run "conman"
    [
      ( "codecs",
        [
          Alcotest.test_case "sexp roundtrip" `Quick test_sexp_roundtrip;
          Alcotest.test_case "ids roundtrip" `Quick test_ids_roundtrip;
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "abstraction roundtrip" `Quick test_abstraction_roundtrip;
          QCheck_alcotest.to_alcotest prop_peer_msg_roundtrip;
          QCheck_alcotest.to_alcotest prop_sexp_roundtrip;
          QCheck_alcotest.to_alcotest prop_primitive_roundtrip;
          QCheck_alcotest.to_alcotest prop_state_tag_keys_only;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "table 4 content" `Quick test_discovery_table4;
          Alcotest.test_case "potential graph" `Quick test_potential_graph;
        ] );
      ( "path-finder",
        [
          Alcotest.test_case "nine paths" `Quick test_nine_paths;
          Alcotest.test_case "figure 6 pruning" `Quick test_figure6_pruning;
          Alcotest.test_case "chooser prefers MPLS" `Quick test_chooser_prefers_mpls;
          Alcotest.test_case "pipe counts" `Quick test_pipe_counts;
        ] );
      ( "script-gen",
        [
          Alcotest.test_case "table 5 CONMan GRE" `Quick test_table5_conman_gre;
          Alcotest.test_case "table 5 CONMan MPLS" `Quick test_table5_conman_mpls;
          Alcotest.test_case "figure 7(b) shape" `Quick test_gre_script_shape;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "GRE path" `Quick test_e2e_gre;
          Alcotest.test_case "GRE without tradeoffs" `Quick test_e2e_gre_no_tradeoffs;
          Alcotest.test_case "MPLS path" `Quick test_e2e_mpls;
          Alcotest.test_case "IP-IP path" `Quick test_e2e_ipip;
          Alcotest.test_case "achieve picks and configures" `Quick test_e2e_achieve_default;
          Alcotest.test_case "raw in-band channel" `Quick test_e2e_raw_channel;
          Alcotest.test_case "VLAN tunnel" `Quick test_e2e_vlan;
        ] );
      ( "table6",
        [
          Alcotest.test_case "GRE messages" `Quick test_table6_gre;
          Alcotest.test_case "MPLS messages" `Quick test_table6_mpls;
          Alcotest.test_case "VLAN messages" `Quick test_table6_vlan;
        ] );
      ( "debug-and-deps",
        [
          Alcotest.test_case "self test + diagnose" `Quick test_self_test_and_diagnose;
          Alcotest.test_case "diagnose in one round" `Quick test_diagnose_one_round;
          Alcotest.test_case "dependency trigger repair" `Quick test_dependency_trigger_repair;
          Alcotest.test_case "filter creation" `Quick test_filter_creation;
          Alcotest.test_case "end-to-end probe" `Quick test_probe_end_to_end;
        ] );
      ( "addressing",
        [
          Alcotest.test_case "NM assigns addresses" `Quick test_nm_assigns_addresses;
          Alcotest.test_case "a malformed address is rejected" `Quick test_bad_address_rejected;
        ] );
      ( "performance",
        [
          Alcotest.test_case "rate enforcement on a pipe" `Quick test_perf_enforcement;
          Alcotest.test_case "rate enforcement on an MPLS pipe" `Quick test_perf_enforcement_mpls;
        ] );
      ( "security",
        [
          Alcotest.test_case "secure path enumeration" `Quick test_secure_paths_enumerated;
          Alcotest.test_case "dependency advertisement" `Quick test_esp_dependency_in_abstraction;
          Alcotest.test_case "IPsec end to end (IKE over data plane)" `Quick test_e2e_esp;
          Alcotest.test_case "core sees only ciphertext" `Quick test_esp_traffic_encrypted_on_core;
          Alcotest.test_case "wrong key drops" `Quick test_esp_wrong_key_drops;
        ] );
      ( "multi-nm",
        [ Alcotest.test_case "warm standby takeover" `Quick test_nm_takeover ] );
      ( "teardown",
        [
          Alcotest.test_case "GRE teardown" `Quick test_teardown;
          Alcotest.test_case "reconfigure after teardown" `Quick test_reconfigure_after_teardown;
          Alcotest.test_case "VLAN teardown" `Quick test_vlan_teardown;
        ] );
      ( "bounded-state",
        [
          Alcotest.test_case "per-goal logs are rings" `Quick test_goal_logs_bounded;
          Alcotest.test_case "read replies not retained" `Quick test_read_replies_not_retained;
          Alcotest.test_case "teardown leaves no residue" `Quick test_teardown_leaves_no_residue;
          Alcotest.test_case "flat per-goal cost" `Quick test_flat_goal_cost;
        ] );
      ( "deployments",
        [
          Alcotest.test_case "knowledge derived from layouts" `Quick test_deployed_knowledge;
          Alcotest.test_case "two-domain split" `Quick test_two_domain_knowledge;
          Alcotest.test_case "adopt re-enters the knowledge" `Quick test_adopt_knowledge;
          Alcotest.test_case "VPN hosts stay unmanaged" `Quick test_vpn_hosts_unmanaged;
        ] );
    ]
