(* An interpreter for the Linux-style configuration commands used in the
   paper's "today" scripts (figures 7(a) and 8(a)): insmod/modprobe,
   ip tunnel/rule/route, ifconfig, sysctl writes via echo, and the
   mpls-linux userland commands. Commands mutate a {!Netsim.Device.t}. *)

open Packet
open Netsim

exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let parse_prefix s =
  if s = "default" then Prefix.of_string "0.0.0.0/0"
  else try Prefix.of_string s with Invalid_argument m -> fail "bad prefix %s (%s)" s m

let parse_addr s = try Ipv4_addr.of_string s with Invalid_argument _ -> fail "bad address %s" s

(* Classful default mask, as ifconfig without a netmask behaves. *)
let classful_prefix addr =
  let o = Ipv4_addr.octet addr 0 in
  let len = if o < 128 then 8 else if o < 192 then 16 else 24 in
  Prefix.make addr len

let basename path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let module_of_path path =
  let b = basename path in
  if Filename.check_suffix b ".ko" then Filename.chop_suffix b ".ko" else b

(* Finds "key value" in an option list. *)
let find_opt_value opts key =
  let rec go = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go opts

let has_flag opts flag = List.mem flag opts

let int32_of_string s = try Int32.of_string s with Failure _ -> fail "bad number %s" s

(* --- ip tunnel ------------------------------------------------------- *)

let ip_tunnel_add dev args =
  let name =
    match find_opt_value args "name" with
    | Some n -> n
    | None -> ( match args with n :: _ when n <> "mode" -> n | _ -> fail "tunnel: no name")
  in
  let mode =
    match find_opt_value args "mode" with
    | Some "gre" ->
        if not (Device.module_loaded dev "ip_gre") then fail "gre: kernel module not loaded";
        Device.Gre_mode
    | Some "ipip" ->
        if not (Device.module_loaded dev "ipip") then fail "ipip: kernel module not loaded";
        Device.Ipip_mode
    | Some "esp" ->
        if not (Device.module_loaded dev "esp4") then fail "esp: kernel module not loaded";
        Device.Esp_mode
    | Some m -> fail "tunnel: unsupported mode %s" m
    | None -> fail "tunnel: no mode"
  in
  let remote =
    match find_opt_value args "remote" with Some r -> parse_addr r | None -> fail "no remote"
  in
  let local =
    match find_opt_value args "local" with Some l -> parse_addr l | None -> fail "no local"
  in
  let iface = Device.add_tunnel dev ~name ~mode ~local ~remote () in
  (match iface.Device.if_kind with
  | Device.Tun t ->
      (match find_opt_value args "ikey" with
      | Some k -> t.Device.t_ikey <- Some (int32_of_string k)
      | None -> ());
      (match find_opt_value args "okey" with
      | Some k -> t.Device.t_okey <- Some (int32_of_string k)
      | None -> ());
      (match find_opt_value args "key" with
      | Some k ->
          t.Device.t_ikey <- Some (int32_of_string k);
          t.Device.t_okey <- Some (int32_of_string k)
      | None -> ());
      (match find_opt_value args "ttl" with
      | Some v -> t.Device.t_ttl <- int_of_string v
      | None -> ());
      (match find_opt_value args "tos" with
      | Some v -> t.Device.t_tos <- int_of_string v
      | None -> ());
      (match find_opt_value args "ienc" with
      | Some k -> t.Device.t_enc_in <- Some (int32_of_string k)
      | None -> ());
      (match find_opt_value args "oenc" with
      | Some k -> t.Device.t_enc_out <- Some (int32_of_string k)
      | None -> ());
      t.Device.t_icsum <- has_flag args "icsum";
      t.Device.t_ocsum <- has_flag args "ocsum";
      t.Device.t_iseq <- has_flag args "iseq";
      t.Device.t_oseq <- has_flag args "oseq"
  | Device.Phys _ | Device.Loopback -> assert false);
  iface.Device.if_up <- true;
  ""

let ip_tunnel dev = function
  | "add" :: args -> ip_tunnel_add dev args
  | [ "del"; name ] ->
      Device.remove_iface dev name;
      ""
  | args -> fail "ip tunnel: unsupported %s" (String.concat " " args)

(* --- ip rule / ip route ------------------------------------------------ *)

let ip_rule dev = function
  | "add" :: args ->
      let table =
        match find_opt_value args "table" with Some t -> t | None -> fail "rule: no table"
      in
      Device.register_table dev table;
      let sel =
        match (find_opt_value args "to", find_opt_value args "iif", find_opt_value args "iff")
        with
        | Some p, _, _ -> Device.To_prefix (parse_prefix p)
        | None, Some i, _ | None, None, Some i -> Device.From_iface i
        | None, None, None -> Device.Match_all
      in
      Device.add_rule dev { Device.rl_sel = sel; rl_table = table; rl_prio = 100 };
      ""
  | "del" :: args ->
      let table = find_opt_value args "table" in
      Device.del_rule dev (fun r -> Some r.Device.rl_table = table);
      ""
  | args -> fail "ip rule: unsupported %s" (String.concat " " args)

let parse_nhlfe_key s =
  try int_of_string s with Failure _ -> fail "bad nhlfe key %s" s

let ip_route dev = function
  | "add" :: args ->
      let args = match args with "to" :: rest -> rest | rest -> rest in
      let dst, opts =
        match args with d :: rest -> (parse_prefix d, rest) | [] -> fail "route: no dst"
      in
      let table = match find_opt_value opts "table" with Some t -> t | None -> "main" in
      let route =
        {
          Device.rt_dst = dst;
          rt_via = Option.map parse_addr (find_opt_value opts "via");
          rt_dev = find_opt_value opts "dev";
          rt_mpls = Option.map parse_nhlfe_key (find_opt_value opts "mpls");
        }
      in
      Device.add_route dev ~table route;
      ""
  | "del" :: args ->
      let args = match args with "to" :: rest -> rest | rest -> rest in
      let dst, opts =
        match args with d :: rest -> (parse_prefix d, rest) | [] -> fail "route: no dst"
      in
      let table = match find_opt_value opts "table" with Some t -> t | None -> "main" in
      Device.del_routes dev ~table (fun r -> Prefix.equal r.Device.rt_dst dst);
      ""
  | args -> fail "ip route: unsupported %s" (String.concat " " args)

(* --- ifconfig / echo ----------------------------------------------------- *)

let ifconfig dev = function
  | [ iface; "up" ] ->
      (Device.find_iface_exn dev iface).Device.if_up <- true;
      ""
  | [ iface; "down" ] ->
      (Device.find_iface_exn dev iface).Device.if_up <- false;
      ""
  | iface :: addr :: rest ->
      let addr, prefix =
        match String.index_opt addr '/' with
        | Some _ ->
            let p = parse_prefix addr in
            (parse_addr (String.sub addr 0 (String.index addr '/')), p)
        | None -> (
            let a = parse_addr addr in
            match find_opt_value rest "netmask" with
            | Some _ -> fail "ifconfig: netmask unsupported, use CIDR"
            | None -> (a, classful_prefix a))
      in
      Device.add_addr dev ~iface ~addr ~prefix;
      ""
  | args -> fail "ifconfig: unsupported %s" (String.concat " " args)

let echo dev args =
  (* echo VALUE... > TARGET  /  echo VALUE... >> TARGET *)
  let rec split_redirect acc = function
    | (">" | ">>") :: [ target ] -> (List.rev acc, Some target)
    | x :: rest -> split_redirect (x :: acc) rest
    | [] -> (List.rev acc, None)
  in
  match split_redirect [] args with
  | values, Some "/proc/sys/net/ipv4/ip_forward" ->
      dev.Device.ip_forward <- values = [ "1" ];
      ""
  | values, Some "/etc/iproute2/rt_tables" -> (
      match values with
      | [ _num; name ] ->
          Device.register_table dev name;
          ""
      | _ -> fail "rt_tables: expected 'NUM NAME'")
  | _, Some target -> fail "echo: unsupported target %s" target
  | values, None -> String.concat " " values ^ "\n"

(* --- mpls (mpls-linux style userland) ------------------------------------ *)

let require_mpls dev =
  if not dev.Device.mpls.Device.mpls_enabled then fail "mpls: kernel modules not loaded"

(* An MPLS label is a 20-bit field: anything else would reach the datapath
   and lose its high bits in the label stack entry. *)
let parse_label s =
  match int_of_string s with
  | l when l >= 0 && l <= 0xfffff -> l
  | _ | (exception Failure _) -> fail "bad MPLS label %s (0-1048575)" s

let rec parse_instructions = function
  | [] -> ([], None)
  | "push" :: "gen" :: l :: rest ->
      let pushes, nh = parse_instructions rest in
      (parse_label l :: pushes, nh)
  | "nexthop" :: iface :: "ipv4" :: addr :: rest ->
      let pushes, _ = parse_instructions rest in
      (pushes, Some (iface, parse_addr addr))
  | "deliver" :: rest ->
      let pushes, _ = parse_instructions rest in
      (pushes, Some ("local", Ipv4_addr.any))
  | tok :: _ -> fail "mpls instructions: unsupported token %s" tok

(* The key of the line `mpls nhlfe add` prints (below): the hex digits
   after "NHLFE entry key 0x", up to a space or the end. *)
let nhlfe_key_prefix = "NHLFE entry key 0x"

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let nhlfe_key out =
  let n = String.length out and p = String.length nhlfe_key_prefix in
  let rec digits i key =
    let d = if i < n then hex_value out.[i] else -1 in
    if d >= 0 && key <= max_int lsr 4 then digits (i + 1) ((key lsl 4) lor d)
    else if i > p && (i = n || out.[i] = ' ') then key
    else fail "not an NHLFE key line: %S" out
  in
  if String.starts_with ~prefix:nhlfe_key_prefix out then digits p 0
  else fail "not an NHLFE key line: %S" out

let mpls dev = function
  | [ "labelspace"; "set"; "dev"; iface; "labelspace"; n ] ->
      require_mpls dev;
      Device.mpls_set_labelspace dev ~iface ~space:(int_of_string n);
      ""
  | [ "ilm"; "add"; "label"; "gen"; l; "labelspace"; n ] ->
      require_mpls dev;
      let _ = Device.mpls_add_ilm dev ~label:(parse_label l) ~space:(int_of_string n) in
      ""
  | [ "ilm"; "del"; "label"; "gen"; l; "labelspace"; n ] ->
      Device.mpls_del_ilm dev ~label:(parse_label l) ~space:(int_of_string n);
      ""
  | "nhlfe" :: "add" :: rest ->
      require_mpls dev;
      let mtu =
        match find_opt_value rest "mtu" with Some m -> int_of_string m | None -> 1500
      in
      let instr =
        let rec after = function
          | "instructions" :: r -> r
          | _ :: r -> after r
          | [] -> []
        in
        after rest
      in
      let push, nexthop = parse_instructions instr in
      let dev_out, via =
        match nexthop with Some x -> x | None -> fail "nhlfe: no nexthop/deliver"
      in
      let n = Device.mpls_add_nhlfe dev ~mtu ~push ~dev_out ~via () in
      (* Output formatted so that the paper's `grep key | cut -c 17-26`
         extracts the hexadecimal key; [nhlfe_key] reads it back. *)
      Printf.sprintf "NHLFE entry key 0x%08x mtu %d propagate_ttl\n" n.Device.nh_key mtu
  | [ "nhlfe"; "del"; "key"; k ] ->
      Device.mpls_del_nhlfe dev (int_of_string k);
      ""
  | [ "xc"; "add"; "ilm"; "label"; "gen"; l; "ilm"; "labelspace"; n; "nhlfe"; "key"; k ] ->
      require_mpls dev;
      Device.mpls_xc dev ~label:(parse_label l) ~space:(int_of_string n)
        ~nhlfe_key:(int_of_string k);
      ""
  | args -> fail "mpls: unsupported %s" (String.concat " " args)

(* --- tc (simplified egress policing) ------------------------------------- *)

let tc dev = function
  | [ "qdisc"; "add"; "dev"; iface; "rate"; rate; "burst"; burst ] ->
      Device.set_policer dev ~iface ~rate_bps:(int_of_string rate) ~burst:(int_of_string burst);
      ""
  | [ "qdisc"; "del"; "dev"; iface ] ->
      Device.clear_policer dev ~iface;
      ""
  | args -> fail "tc: unsupported %s" (String.concat " " args)

(* --- entry point ------------------------------------------------------ *)

let exec dev argv =
  match argv with
  | [] -> ""
  | [ "insmod"; path ] ->
      let m = module_of_path path in
      Device.load_module dev m;
      if m = "mpls" || m = "mpls4" then dev.Device.mpls.Device.mpls_enabled <- true;
      ""
  | [ "modprobe"; name ] ->
      Device.load_module dev name;
      if name = "mpls" || name = "mpls4" then dev.Device.mpls.Device.mpls_enabled <- true;
      ""
  | "ip" :: "tunnel" :: rest -> ip_tunnel dev rest
  | "ip" :: "rule" :: rest -> ip_rule dev rest
  | "ip" :: "route" :: rest -> ip_route dev rest
  | "ifconfig" :: rest -> ifconfig dev rest
  | "echo" :: rest -> echo dev rest
  | "mpls" :: rest -> mpls dev rest
  | "tc" :: rest -> tc dev rest
  | cmd :: _ -> fail "unknown command %s" cmd

(* Runs a whole script (shell syntax) against a device. *)
let run_script dev script =
  let sh = Shell.create (exec dev) in
  Shell.run sh script;
  sh
