(* Tests for the "today" configuration plane: the mini shell, the Linux and
   CatOS CLIs, the verbatim paper scripts executed against the figure-4/9
   testbeds, and the Table-V command/state-variable metrics. *)

open Netsim
open Devconf

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- shell ---------------------------------------------------------------- *)

let test_shell_vars_and_pipes () =
  let outputs = ref [] in
  let exec argv =
    outputs := argv :: !outputs;
    match argv with
    | [ "produce" ] -> "NHLFE entry key 0x00000002 mtu 1500 propagate_ttl\nother line\n"
    | _ -> ""
  in
  let sh = Shell.create exec in
  Shell.run sh "# comment\nKEY=`produce | grep key | cut -c 17-26`\nconsume $KEY";
  check tstr "captured" "0x00000002" (Option.get (Shell.get_var sh "KEY"));
  check tbool "expanded" true (List.mem [ "consume"; "0x00000002" ] !outputs)

let test_shell_undefined_var () =
  let sh = Shell.create (fun _ -> "") in
  check tbool "raises" true
    (match Shell.run sh "use $NOPE" with exception Shell.Error _ -> true | _ -> false)

let test_shell_dashed_var_names () =
  let sh = Shell.create (fun argv -> if argv = [ "emit" ] then "v\n" else String.concat "," argv) in
  Shell.run sh "KEY-S1-S2=`emit`";
  check tstr "dashed name" "v" (Option.get (Shell.get_var sh "KEY-S1-S2"))

(* --- linux cli ------------------------------------------------------------- *)

let fresh_router () =
  let net = Net.create () in
  let d = Net.add_device net ~id:"id-r" ~name:"r" in
  ignore (Device.add_port ~name:"eth1" d);
  ignore (Device.add_port ~name:"eth2" d);
  (net, d)

let test_cli_tunnel_requires_module () =
  let _, d = fresh_router () in
  check tbool "fails without insmod" true
    (match
       Linux_cli.exec d
         (String.split_on_char ' '
            "ip tunnel add name greA mode gre remote 1.2.3.4 local 5.6.7.8")
     with
    | exception Linux_cli.Error _ -> true
    | _ -> false)

let test_cli_tunnel_add () =
  let _, d = fresh_router () in
  let run s = ignore (Linux_cli.exec d (String.split_on_char ' ' s)) in
  run "insmod /lib/modules/2.6.14-2/ip_gre.ko";
  run "ip tunnel add name greA mode gre remote 204.9.169.1 local 204.9.168.1 ikey 1001 okey 2001 icsum ocsum iseq oseq";
  run "ifconfig greA 192.168.3.1";
  let iface = Device.find_iface_exn d "greA" in
  (match iface.Device.if_kind with
  | Device.Tun t ->
      check tbool "ikey" true (t.Device.t_ikey = Some 1001l);
      check tbool "okey" true (t.Device.t_okey = Some 2001l);
      check tbool "flags" true
        (t.Device.t_icsum && t.Device.t_ocsum && t.Device.t_iseq && t.Device.t_oseq)
  | _ -> Alcotest.fail "not a tunnel");
  check tbool "addr" true
    (List.exists
       (fun (a, _) -> Packet.Ipv4_addr.equal a (Packet.Ipv4_addr.of_string "192.168.3.1"))
       iface.Device.if_addrs)

let test_cli_policy_routing () =
  let _, d = fresh_router () in
  let run s = ignore (Linux_cli.exec d (String.split_on_char ' ' s)) in
  run "echo 202 tun-1-2 >> /etc/iproute2/rt_tables";
  run "ip rule add to 10.0.2.0/24 table tun-1-2";
  run "ip route add default dev eth1 table tun-1-2";
  check tint "one rule" 1 (List.length d.Device.rules);
  check tbool "routes via policy table" true
    (match Device.lookup_route d ~in_iface:"" (Packet.Ipv4_addr.of_string "10.0.2.9") with
    | { Device.rt_dev = Some "eth1"; _ } -> true
    | _ | (exception Not_found) -> false)

let test_cli_unknown_command () =
  let _, d = fresh_router () in
  check tbool "raises" true
    (match Linux_cli.exec d [ "frobnicate" ] with
    | exception Linux_cli.Error _ -> true
    | _ -> false)

let test_cli_mpls_requires_modprobe () =
  let _, d = fresh_router () in
  check tbool "fails" true
    (match
       Linux_cli.exec d (String.split_on_char ' ' "mpls labelspace set dev eth1 labelspace 0")
     with
    | exception Linux_cli.Error _ -> true
    | _ -> false)

let test_cli_nhlfe_key_output () =
  let _, d = fresh_router () in
  let sh = Linux_cli.run_script d
      "modprobe mpls\nmodprobe mpls4\nK=`mpls nhlfe add key 0 mtu 1500 instructions push gen 7 nexthop eth2 ipv4 10.0.0.1 | grep key | cut -c 17-26`"
  in
  let k = Option.get (Shell.get_var sh "K") in
  check tbool "parses as int" true (int_of_string k > 0)

let test_cli_nhlfe_key_parser () =
  (* [nhlfe_key] returns the key [mpls nhlfe add] printed *)
  let _, d = fresh_router () in
  ignore (Linux_cli.exec d [ "modprobe"; "mpls" ]);
  List.iter
    (fun key ->
      d.Device.mpls.Device.next_nhlfe_key <- key;
      let out =
        Linux_cli.exec d
          [ "mpls"; "nhlfe"; "add"; "key"; "0"; "mtu"; "1500"; "instructions"; "deliver" ]
      in
      check tint
        (Printf.sprintf "key 0x%x read back from %S" key out)
        key (Linux_cli.nhlfe_key out))
    [ 1; 0xff; 0x10000; 0x7fffffff ];
  List.iter
    (fun text ->
      check tbool
        (Printf.sprintf "%S is rejected" text)
        true
        (match Linux_cli.nhlfe_key text with exception Linux_cli.Error _ -> true | _ -> false))
    [
      "";
      "NHLFE entry key 0x";
      "NHLFE entry key 0x mtu 1500";
      "NHLFE entry key 0xzz mtu 1500";
      "NHLFE entry key 0x0000002g mtu 1500";
      "NHLFE entry key 00000002 mtu 1500";
      "nhlfe entry key 0x00000002 mtu 1500";
      " NHLFE entry key 0x00000002 mtu 1500";
      "NHLFE entry key 0x" ^ String.make 16 'f';
      "ILM entry label 2001";
    ]

(* An MPLS label is 20 bits: [push gen], [ilm add|del] and [xc add] accept
   0-1048575 and reject anything else with [Linux_cli.Error]. *)
let test_cli_mpls_label_range () =
  let mpls_router () =
    let _, d = fresh_router () in
    ignore (Linux_cli.exec d [ "modprobe"; "mpls" ]);
    d
  in
  let push l =
    [ "mpls"; "nhlfe"; "add"; "key"; "0"; "mtu"; "1500"; "instructions"; "push"; "gen"; l;
      "nexthop"; "eth2"; "ipv4"; "10.0.0.1" ]
  in
  let ilm op l = [ "mpls"; "ilm"; op; "label"; "gen"; l; "labelspace"; "0" ] in
  let xc l key =
    [ "mpls"; "xc"; "add"; "ilm"; "label"; "gen"; l; "ilm"; "labelspace"; "0"; "nhlfe"; "key"; key ]
  in
  let d = mpls_router () in
  let mpls = d.Device.mpls in
  let key = Linux_cli.nhlfe_key (Linux_cli.exec d (push "1048575")) in
  check (Alcotest.list tint) "push gen 1048575 is accepted" [ 1048575 ]
    (Hashtbl.find mpls.Device.nhlfe_table key).Device.nh_push;
  ignore (Linux_cli.exec d (ilm "add" "1048575"));
  ignore (Linux_cli.exec d (xc "1048575" (string_of_int key)));
  check tbool "ilm add and xc add 1048575 are accepted" true
    (Hashtbl.mem mpls.Device.ilm_table (1048575, 0));
  ignore (Linux_cli.exec d (ilm "del" "1048575"));
  check tbool "ilm del 1048575 is accepted" false (Hashtbl.mem mpls.Device.ilm_table (1048575, 0));
  List.iter
    (fun l ->
      let rejected what argv =
        check tbool (Printf.sprintf "%s %s is rejected" what l) true
          (match Linux_cli.exec (mpls_router ()) argv with
          | exception Linux_cli.Error _ -> true
          | _ -> false)
      in
      rejected "push gen" (push l);
      rejected "ilm add" (ilm "add" l);
      rejected "ilm del" (ilm "del" l);
      rejected "xc add" (xc l "1"))
    [ "1048576"; "-1"; "x" ]

(* --- paper scripts against the testbeds ----------------------------------- *)

let test_fig7a_gre_script_end_to_end () =
  let tb = Testbeds.vpn () in
  ignore (Linux_cli.run_script tb.Testbeds.ra Paper_scripts.gre_a);
  ignore (Linux_cli.run_script tb.Testbeds.rb Paper_scripts.gre_b);
  ignore (Linux_cli.run_script tb.Testbeds.rc Paper_scripts.gre_c);
  check tbool "S1 <-> S2 over GRE" true (Testbeds.vpn_reachable tb);
  (* isolation: the core must not have a route for customer space *)
  check tbool "core unaware of customer prefixes" true
    (match Device.lookup_route tb.Testbeds.rb ~in_iface:"" (Packet.Ipv4_addr.of_string "10.0.2.2") with
    | _ -> false
    | exception Not_found -> true)

let test_fig8a_mpls_script_end_to_end () =
  let tb = Testbeds.vpn () in
  ignore (Linux_cli.run_script tb.Testbeds.ra Paper_scripts.mpls_a);
  ignore (Linux_cli.run_script tb.Testbeds.rb Paper_scripts.mpls_b);
  ignore (Linux_cli.run_script tb.Testbeds.rc Paper_scripts.mpls_c);
  check tbool "S1 <-> S2 over MPLS" true (Testbeds.vpn_reachable tb);
  check tbool "no IP forwarding at core" true
    (Counters.get tb.Testbeds.rb.Device.dev_counters "ip_forwarded" = 0)

let test_fig9a_vlan_script_end_to_end () =
  let tb = Testbeds.vlan () in
  ignore (Catos_cli.run_script tb.Testbeds.swa Paper_scripts.vlan_a);
  ignore (Catos_cli.run_script tb.Testbeds.swb Paper_scripts.vlan_b);
  ignore (Catos_cli.run_script tb.Testbeds.swc Paper_scripts.vlan_c);
  check tbool "customer sites bridged over QinQ" true (Testbeds.vlan_reachable tb)

let test_gre_script_key_typo_breaks_connectivity () =
  (* The classic error the paper cites: tunnel endpoints disagreeing on the
     key. Flip one digit in C's script and the VPN silently dies. *)
  let tb = Testbeds.vpn () in
  ignore (Linux_cli.run_script tb.Testbeds.ra Paper_scripts.gre_a);
  ignore (Linux_cli.run_script tb.Testbeds.rb Paper_scripts.gre_b);
  let replace ~sub ~by s =
    let sl = String.length sub and n = String.length s in
    let buf = Buffer.create n in
    let rec go i =
      if i >= n then ()
      else if i + sl <= n && String.sub s i sl = sub then begin
        Buffer.add_string buf by;
        go (i + sl)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents buf
  in
  let broken = replace ~sub:"ikey 2001" ~by:"ikey 2002" Paper_scripts.gre_c in
  ignore (Linux_cli.run_script tb.Testbeds.rc broken);
  check tbool "VPN broken by key typo" false (Testbeds.vpn_reachable tb)

(* --- CatOS edge cases -------------------------------------------------------- *)

let fresh_switch () =
  let net = Net.create () in
  let d = Net.add_device net ~switching:true ~id:"id-sw" ~name:"sw" in
  ignore (Device.add_port ~name:"gigabitethernet0/7" d);
  ignore (Device.add_port ~name:"gigabitethernet0/9" d);
  d

let test_catos_context_required () =
  let d = fresh_switch () in
  let t = Catos_cli.create d in
  check tbool "switchport outside interface context fails" true
    (match Catos_cli.exec t [ "switchport"; "mode"; "trunk" ] with
    | exception Catos_cli.Error _ -> true
    | _ -> false)

let test_catos_unknown_port () =
  let d = fresh_switch () in
  let t = Catos_cli.create d in
  check tbool "unknown interface" true
    (match Catos_cli.exec t [ "interface"; "gigabitethernet9/9" ] with
    | exception Catos_cli.Error _ -> true
    | _ -> false)

let test_catos_vlan_mtu_only () =
  let d = fresh_switch () in
  let t = Catos_cli.create d in
  Catos_cli.exec t [ "set"; "vlan"; "22"; "mtu"; "1504" ];
  check tint "mtu stored" 1504 (Device.vlan_def d 22).Device.vd_mtu

let test_catos_tunnel_mode_keeps_vid () =
  let d = fresh_switch () in
  let t = Catos_cli.create d in
  List.iter (Catos_cli.run_line t)
    [ "interface gigabitethernet0/7"; "switchport access vlan 22"; "switchport mode dot1q-tunnel" ];
  check tbool "dot1q tunnel on vid 22" true
    ((Device.port d 0).Device.port_mode = Device.Dot1q_tunnel 22)

(* --- ESP via the CLI ----------------------------------------------------------- *)

let test_cli_esp_tunnel () =
  let _, d = fresh_router () in
  let run s = ignore (Linux_cli.exec d (String.split_on_char ' ' s)) in
  check tbool "needs esp4 module" true
    (match run "ip tunnel add name e0 mode esp remote 1.2.3.4 local 5.6.7.8" with
    | exception Linux_cli.Error _ -> true
    | _ -> false);
  run "insmod /lib/modules/2.6.14-2/esp4.ko";
  run "ip tunnel add name e0 mode esp remote 1.2.3.4 local 5.6.7.8 ikey 256 okey 257 ienc 7001 oenc 7002";
  match (Device.find_iface_exn d "e0").Device.if_kind with
  | Device.Tun t ->
      check tbool "spis" true (t.Device.t_ikey = Some 256l && t.Device.t_okey = Some 257l);
      check tbool "keys" true (t.Device.t_enc_in = Some 7001l && t.Device.t_enc_out = Some 7002l)
  | _ -> Alcotest.fail "not a tunnel"

let test_cli_tc () =
  let _, d = fresh_router () in
  let run s = ignore (Linux_cli.exec d (String.split_on_char ' ' s)) in
  run "tc qdisc add dev eth1 rate 1000000 burst 3000";
  check tbool "policer installed" true
    ((Device.find_iface_exn d "eth1").Device.if_policer <> None);
  run "tc qdisc del dev eth1";
  check tbool "policer removed" true
    ((Device.find_iface_exn d "eth1").Device.if_policer = None)

(* --- classifier edge cases -------------------------------------------------------- *)

let test_classify_unrecognized_raises () =
  check tbool "loudly rejects unknown commands" true
    (match Classify.analyze_line ~dialect:`Linux "frobnicate the network" with
    | exception Classify.Unrecognized _ -> true
    | _ -> false)

let test_classify_comments_skipped () =
  check tbool "comment" true (Classify.analyze_line ~dialect:`Linux "# hello" = None);
  check tbool "blank" true (Classify.analyze_line ~dialect:`Catos "   " = None)

let test_metrics_b_and_c_side_scripts () =
  (* the reconstructed B/C-side scripts parse under the same ruleset *)
  List.iter
    (fun script -> ignore (Metrics.analyze_linux script))
    [ Paper_scripts.gre_b; Paper_scripts.gre_c; Paper_scripts.mpls_b; Paper_scripts.mpls_c ];
  List.iter
    (fun script -> ignore (Metrics.analyze_catos script))
    [ Paper_scripts.vlan_b; Paper_scripts.vlan_c ];
  check tbool "all parsed" true true

(* --- Table V metrics -------------------------------------------------------- *)

let test_table5_gre_today () =
  let c = Metrics.analyze_linux Paper_scripts.gre_a in
  check tint "generic cmds" 1 (Metrics.n_generic_cmds c);
  check tint "specific cmds" 6 (Metrics.n_specific_cmds c);
  check tint "generic vars" 9 (Metrics.n_generic_vars c);
  (* paper reports 11; the mechanical rule counts the two policy-table
     numbers as protocol state, giving 12 *)
  check tint "specific vars" 12 (Metrics.n_specific_vars c)

let test_table5_mpls_today () =
  let c = Metrics.analyze_linux Paper_scripts.mpls_a in
  check tint "generic cmds" 1 (Metrics.n_generic_cmds c);
  check tint "specific cmds" 6 (Metrics.n_specific_cmds c);
  check tint "generic vars" 6 (Metrics.n_generic_vars c);
  check tint "specific vars" 8 (Metrics.n_specific_vars c)

let test_table5_vlan_today () =
  let c = Metrics.analyze_catos Paper_scripts.vlan_a in
  check tint "generic cmds" 3 (Metrics.n_generic_cmds c);
  check tint "specific cmds" 4 (Metrics.n_specific_cmds c);
  check tint "generic vars" 3 (Metrics.n_generic_vars c);
  (* paper reports 5; the mechanical rule yields 4 *)
  check tint "specific vars" 4 (Metrics.n_specific_vars c)

let test_metrics_dedup () =
  (* a value counted specific must not also count as generic *)
  let c =
    Metrics.make
      ~cmds:[ ("x", Classify.Generic); ("x", Classify.Generic) ]
      ~vars:[ ("greA", Classify.Specific); ("greA", Classify.Generic); ("eth1", Classify.Generic) ]
  in
  check tint "cmds dedup" 1 (Metrics.n_generic_cmds c);
  check tint "specific" 1 (Metrics.n_specific_vars c);
  check tint "generic" 1 (Metrics.n_generic_vars c)

let () =
  Alcotest.run "devconf"
    [
      ( "shell",
        [
          Alcotest.test_case "vars and pipes" `Quick test_shell_vars_and_pipes;
          Alcotest.test_case "undefined var" `Quick test_shell_undefined_var;
          Alcotest.test_case "dashed var names" `Quick test_shell_dashed_var_names;
        ] );
      ( "linux-cli",
        [
          Alcotest.test_case "tunnel requires module" `Quick test_cli_tunnel_requires_module;
          Alcotest.test_case "tunnel add" `Quick test_cli_tunnel_add;
          Alcotest.test_case "policy routing" `Quick test_cli_policy_routing;
          Alcotest.test_case "unknown command" `Quick test_cli_unknown_command;
          Alcotest.test_case "mpls requires modprobe" `Quick test_cli_mpls_requires_modprobe;
          Alcotest.test_case "nhlfe key output" `Quick test_cli_nhlfe_key_output;
          Alcotest.test_case "nhlfe key parser" `Quick test_cli_nhlfe_key_parser;
          Alcotest.test_case "mpls label range" `Quick test_cli_mpls_label_range;
        ] );
      ( "paper-scripts",
        [
          Alcotest.test_case "fig 7a GRE end to end" `Quick test_fig7a_gre_script_end_to_end;
          Alcotest.test_case "fig 8a MPLS end to end" `Quick test_fig8a_mpls_script_end_to_end;
          Alcotest.test_case "fig 9a VLAN end to end" `Quick test_fig9a_vlan_script_end_to_end;
          Alcotest.test_case "key typo breaks VPN" `Quick test_gre_script_key_typo_breaks_connectivity;
        ] );
      ( "catos-edge",
        [
          Alcotest.test_case "context required" `Quick test_catos_context_required;
          Alcotest.test_case "unknown port" `Quick test_catos_unknown_port;
          Alcotest.test_case "vlan mtu only" `Quick test_catos_vlan_mtu_only;
          Alcotest.test_case "tunnel mode keeps vid" `Quick test_catos_tunnel_mode_keeps_vid;
        ] );
      ( "cli-esp-tc",
        [
          Alcotest.test_case "esp tunnel" `Quick test_cli_esp_tunnel;
          Alcotest.test_case "tc policer" `Quick test_cli_tc;
        ] );
      ( "classifier-edge",
        [
          Alcotest.test_case "unrecognized raises" `Quick test_classify_unrecognized_raises;
          Alcotest.test_case "comments skipped" `Quick test_classify_comments_skipped;
          Alcotest.test_case "B/C-side scripts parse" `Quick test_metrics_b_and_c_side_scripts;
        ] );
      ( "table5-metrics",
        [
          Alcotest.test_case "gre today" `Quick test_table5_gre_today;
          Alcotest.test_case "mpls today" `Quick test_table5_mpls_today;
          Alcotest.test_case "vlan today" `Quick test_table5_vlan_today;
          Alcotest.test_case "dedup rules" `Quick test_metrics_dedup;
        ] );
    ]
