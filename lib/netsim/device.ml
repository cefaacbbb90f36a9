(* Device state: ports, interfaces, routing, ARP, MPLS, VLAN switching and
   UDP/ICMP endpoints. The forwarding pipeline lives in {!Datapath}; this
   module only defines state and its accessors/mutators. *)

open Packet

type tunnel_mode = Gre_mode | Ipip_mode | Esp_mode

type tunnel = {
  mutable t_local : Ipv4_addr.t;
  mutable t_remote : Ipv4_addr.t;
  mutable t_ikey : int32 option;
  mutable t_okey : int32 option;
  mutable t_icsum : bool;
  mutable t_ocsum : bool;
  mutable t_iseq : bool;
  mutable t_oseq : bool;
  mutable t_ttl : int;
  mutable t_tos : int;
  t_mode : tunnel_mode;
  mutable t_tx_seq : int32;
  mutable t_rx_seq : int32 option;
  (* ESP keying material (provided by a control module such as IKE) *)
  mutable t_enc_in : int32 option;
  mutable t_enc_out : int32 option;
}

type iface_kind = Phys of int (* port index *) | Tun of tunnel | Loopback

type policer = {
  mutable pol_rate_bps : int; (* token refill rate *)
  mutable pol_burst : int; (* bucket size, bytes *)
  mutable pol_tokens : float;
  mutable pol_last_ns : int64;
}

type iface = {
  if_name : string;
  if_kind : iface_kind;
  mutable if_addrs : (Ipv4_addr.t * Prefix.t) list;
  mutable if_up : bool;
  mutable if_policer : policer option; (* egress rate enforcement *)
  if_counters : Counters.t;
}

type trunk_config = { mutable allowed : int list; mutable native : int option }

type vlan_mode = No_vlan | Access of int | Trunk of trunk_config | Dot1q_tunnel of int

type port = {
  port_index : int;
  mutable port_name : string;
  port_mac : Mac_addr.t;
  mutable port_endpoint : Link.endpoint option;
  mutable port_up : bool;
  mutable port_mode : vlan_mode;
  port_counters : Counters.t;
}

type route = {
  rt_dst : Prefix.t;
  rt_via : Ipv4_addr.t option;
  rt_dev : string option;
  rt_mpls : int option; (* NHLFE key for label imposition *)
}

type rule_sel = To_prefix of Prefix.t | From_iface of string | Match_all

type rule = { rl_sel : rule_sel; rl_table : string; rl_prio : int }

type nhlfe = {
  nh_key : int;
  nh_mtu : int;
  nh_push : int list;
  nh_dev : string;
  nh_via : Ipv4_addr.t;
}

type ilm = { ilm_label : int; ilm_space : int; mutable ilm_xc : int option }

type mpls_state = {
  mutable mpls_enabled : bool;
  labelspace_of_iface : (string, int) Hashtbl.t;
  ilm_table : (int * int, ilm) Hashtbl.t;
  nhlfe_table : (int, nhlfe) Hashtbl.t;
  mutable next_nhlfe_key : int;
}

type vlan_def = { mutable vd_name : string; mutable vd_mtu : int }

type switch_state = {
  mutable switching : bool;
  fdb : (int, int) Hashtbl.t; (* (vlan lsl 48) lor mac -> port *)
  vlans : (int, vlan_def) Hashtbl.t;
  mutable tag_native : bool;
}

type arp_state = {
  arp_cache : (Ipv4_addr.t, Mac_addr.t) Hashtbl.t;
  arp_pending : (Ipv4_addr.t, (Mac_addr.t -> unit) list ref) Hashtbl.t;
}

type udp_handler = src:Ipv4_addr.t -> src_port:int -> bytes -> unit

type t = {
  dev_id : string; (* globally unique, topology independent (CONMan §II) *)
  dev_name : string;
  dev_index : int;
  eq : Event_queue.t;
  mutable dev_up : bool; (* false while crashed: no rx, no tx *)
  mutable ports : port array;
  mutable ifaces : iface list;
  mutable ip_forward : bool;
  mutable proxy_arp : bool;
  mutable loaded_modules : string list; (* insmod/modprobe emulation *)
  mutable rt_table_names : string list; (* registered policy tables *)
  mutable tables : (string * route list ref) list;
  mutable rules : rule list; (* sorted by priority *)
  mutable ip_drops : (Prefix.t * Prefix.t) list; (* (src, dst) filter rules *)
  mpls : mpls_state;
  sw : switch_state;
  arp : arp_state;
  udp_socks : (int, udp_handler) Hashtbl.t;
  mutable icmp_waiters : (Ipv4.t -> Icmp.t -> unit) list;
      (* each sees every ICMP message the device receives; a probe adds
         its own and removes it when it is done *)
  mutable mgmt_hook : (in_port:int -> bytes -> unit) option;
      (* receives the whole frame; the management payload follows the
         Ethernet header *)
  dev_counters : Counters.t;
  mutable rx_dispatch : int -> bytes -> unit; (* set by Datapath.activate *)
}

let next_index = ref 0

let create ?(switching = false) ~eq ~id ~name () =
  incr next_index;
  let dev =
    {
      dev_id = id;
      dev_name = name;
      dev_index = !next_index;
      eq;
      dev_up = true;
      ports = [||];
      ifaces = [];
      ip_forward = false;
      proxy_arp = false;
      loaded_modules = [];
      rt_table_names = [ "main" ];
      tables = [ ("main", ref []) ];
      rules = [];
      ip_drops = [];
      mpls =
        {
          mpls_enabled = false;
          labelspace_of_iface = Hashtbl.create 4;
          ilm_table = Hashtbl.create 8;
          nhlfe_table = Hashtbl.create 8;
          next_nhlfe_key = 1;
        };
      sw = { switching; fdb = Hashtbl.create 16; vlans = Hashtbl.create 4; tag_native = false };
      arp = { arp_cache = Hashtbl.create 8; arp_pending = Hashtbl.create 4 };
      udp_socks = Hashtbl.create 4;
      icmp_waiters = [];
      mgmt_hook = None;
      dev_counters = Counters.create ();
      rx_dispatch = (fun _ _ -> ());
    }
  in
  let lo =
    { if_name = "lo"; if_kind = Loopback; if_addrs = [ (Ipv4_addr.localhost, Prefix.of_string "127.0.0.0/8") ]; if_up = true; if_policer = None; if_counters = Counters.create () }
  in
  dev.ifaces <- [ lo ];
  dev

(* Ports ------------------------------------------------------------- *)

let add_port ?name dev =
  let index = Array.length dev.ports in
  let port_name = match name with Some n -> n | None -> Printf.sprintf "eth%d" index in
  let port =
    {
      port_index = index;
      port_name;
      port_mac = Mac_addr.make ~device:dev.dev_index ~port:index;
      port_endpoint = None;
      port_up = true;
      port_mode = No_vlan;
      port_counters = Counters.create ();
    }
  in
  dev.ports <- Array.append dev.ports [| port |];
  (* Physical ports automatically get an interface of the same name so the
     IP stack can address them. *)
  dev.ifaces <-
    dev.ifaces
    @ [ { if_name = port_name; if_kind = Phys index; if_addrs = []; if_up = true; if_policer = None; if_counters = Counters.create () } ];
  port

let port dev i = dev.ports.(i)

let port_by_name dev name =
  Array.to_seq dev.ports |> Seq.find (fun p -> p.port_name = name)

let attach_port dev i endpoint =
  let p = dev.ports.(i) in
  p.port_endpoint <- Some endpoint;
  Link.set_rx endpoint (fun frame -> dev.rx_dispatch i frame)

(* Interfaces -------------------------------------------------------- *)

let rec iface_named name = function
  | [] -> raise Not_found
  | i :: rest -> if String.equal i.if_name name then i else iface_named name rest

(* The interface called [name]; raises [Not_found]. Allocates nothing. *)
let iface dev name = iface_named name dev.ifaces

let find_iface dev name = match iface dev name with i -> Some i | exception Not_found -> None

let find_iface_exn dev name =
  match iface dev name with
  | i -> i
  | exception Not_found -> failwith (Printf.sprintf "%s: no such interface %s" dev.dev_name name)

let add_tunnel dev ~name ~mode ~local ~remote () =
  if find_iface dev name <> None then failwith (name ^ ": interface exists");
  let tun =
    {
      t_local = local;
      t_remote = remote;
      t_ikey = None;
      t_okey = None;
      t_icsum = false;
      t_ocsum = false;
      t_iseq = false;
      t_oseq = false;
      t_ttl = 64;
      t_tos = 0;
      t_mode = mode;
      t_tx_seq = 0l;
      t_rx_seq = None;
      t_enc_in = None;
      t_enc_out = None;
    }
  in
  let iface =
    { if_name = name; if_kind = Tun tun; if_addrs = []; if_up = false; if_policer = None; if_counters = Counters.create () }
  in
  dev.ifaces <- dev.ifaces @ [ iface ];
  iface

let remove_iface dev name = dev.ifaces <- List.filter (fun i -> i.if_name <> name) dev.ifaces

let local_addrs dev =
  List.concat_map (fun i -> if i.if_up then List.map fst i.if_addrs else []) dev.ifaces

let rec has_addr a = function
  | [] -> false
  | (x, _) :: rest -> Ipv4_addr.equal x a || has_addr a rest

let rec local_in a = function
  | [] -> false
  | i :: rest -> (i.if_up && has_addr a i.if_addrs) || local_in a rest

(* Allocates nothing. *)
let is_local_addr dev a = local_in a dev.ifaces

let primary_addr iface = match iface.if_addrs with (a, _) :: _ -> Some a | [] -> None

(* Routing ----------------------------------------------------------- *)

let register_table dev name =
  if not (List.mem_assoc name dev.tables) then begin
    dev.tables <- dev.tables @ [ (name, ref []) ];
    dev.rt_table_names <- dev.rt_table_names @ [ name ]
  end

let table_exn dev name =
  match List.assoc_opt name dev.tables with
  | Some t -> t
  | None -> failwith (Printf.sprintf "%s: no such routing table %s" dev.dev_name name)

let add_route dev ?(table = "main") route =
  register_table dev table;
  let t = table_exn dev table in
  t := route :: !t

(* A policy table with no routes that no rule names is forgotten, so a
   configuration's teardown leaves the device as it found it. [lookup_route]
   treats a missing table as an empty one; [main] always stays. *)
let reclaim_table dev name =
  if
    name <> "main"
    && (match List.assoc_opt name dev.tables with Some t -> !t = [] | None -> false)
    && not (List.exists (fun r -> r.rl_table = name) dev.rules)
  then begin
    dev.tables <- List.remove_assoc name dev.tables;
    dev.rt_table_names <- List.filter (( <> ) name) dev.rt_table_names
  end

let del_routes dev ?(table = "main") pred =
  match List.assoc_opt table dev.tables with
  | None -> ()
  | Some t ->
      t := List.filter (fun r -> not (pred r)) !t;
      reclaim_table dev table

(* Assigning an address also installs the connected route, as the Linux
   stack does. *)
let add_addr dev ~iface ~addr ~prefix =
  let i = find_iface_exn dev iface in
  i.if_addrs <- i.if_addrs @ [ (addr, prefix) ];
  i.if_up <- true;
  if Prefix.len prefix < 32 then
    add_route dev { rt_dst = prefix; rt_via = None; rt_dev = Some iface; rt_mpls = None }

let add_rule dev rule =
  dev.rules <- List.stable_sort (fun a b -> compare a.rl_prio b.rl_prio) (dev.rules @ [ rule ])

let del_rule dev pred =
  let gone, kept = List.partition pred dev.rules in
  dev.rules <- kept;
  List.iter (fun r -> reclaim_table dev r.rl_table) gone

(* The longest matching prefix; the earliest route wins a tie. *)
let rec longest dst best best_len = function
  | [] -> if best_len < 0 then raise Not_found else best
  | r :: rest ->
      let l = Prefix.len r.rt_dst in
      if l > best_len && Prefix.mem dst r.rt_dst then longest dst r l rest
      else longest dst best best_len rest

let no_route = { rt_dst = Prefix.of_string "0.0.0.0/0"; rt_via = None; rt_dev = None; rt_mpls = None }

(* Raises [Not_found] when no route matches. Allocates nothing. *)
let lpm routes dst = longest dst no_route (-1) routes

let rec routes_of name = function
  | [] -> []
  | (n, t) :: rest -> if String.equal n name then !t else routes_of name rest

let rec first_rule dev in_iface dst = function
  | [] -> lpm (routes_of "main" dev.tables) dst
  | r :: rest ->
      let matches =
        match r.rl_sel with
        | Match_all -> true
        | To_prefix p -> Prefix.mem dst p
        | From_iface i -> String.equal in_iface i
      in
      if matches then
        match lpm (routes_of r.rl_table dev.tables) dst with
        | route -> route
        | exception Not_found -> first_rule dev in_iface dst rest
      else first_rule dev in_iface dst rest

(* Route lookup honouring policy rules: first matching rule whose table
   contains a route wins; the main table is the fallback. [in_iface] is
   the interface the packet arrived on, [""] for one sent by the device
   itself. Raises [Not_found] when no route matches. Allocates nothing. *)
let lookup_route dev ~in_iface dst = first_rule dev in_iface dst dev.rules

(* MPLS -------------------------------------------------------------- *)

let mpls_set_labelspace dev ~iface ~space =
  Hashtbl.replace dev.mpls.labelspace_of_iface iface space

let mpls_labelspace dev iface =
  match Hashtbl.find dev.mpls.labelspace_of_iface iface with s -> s | exception Not_found -> -1

let mpls_add_ilm dev ~label ~space =
  let ilm = { ilm_label = label; ilm_space = space; ilm_xc = None } in
  Hashtbl.replace dev.mpls.ilm_table (label, space) ilm;
  ilm

let mpls_del_ilm dev ~label ~space = Hashtbl.remove dev.mpls.ilm_table (label, space)

let mpls_add_nhlfe dev ?(mtu = 1500) ~push ~dev_out ~via () =
  let key = dev.mpls.next_nhlfe_key in
  dev.mpls.next_nhlfe_key <- key + 1;
  let n = { nh_key = key; nh_mtu = mtu; nh_push = push; nh_dev = dev_out; nh_via = via } in
  Hashtbl.replace dev.mpls.nhlfe_table key n;
  n

let mpls_del_nhlfe dev key = Hashtbl.remove dev.mpls.nhlfe_table key

let mpls_xc dev ~label ~space ~nhlfe_key =
  match Hashtbl.find_opt dev.mpls.ilm_table (label, space) with
  | Some ilm -> ilm.ilm_xc <- Some nhlfe_key
  | None -> failwith "mpls_xc: no such ILM"

(* VLAN / switch ------------------------------------------------------ *)

let vlan_def dev vid =
  match Hashtbl.find_opt dev.sw.vlans vid with
  | Some d -> d
  | None ->
      let d = { vd_name = ""; vd_mtu = 1500 } in
      Hashtbl.replace dev.sw.vlans vid d;
      d

(* Egress rate enforcement ------------------------------------------- *)

let set_policer dev ~iface ~rate_bps ~burst =
  let i = find_iface_exn dev iface in
  i.if_policer <-
    Some
      { pol_rate_bps = rate_bps; pol_burst = burst; pol_tokens = float_of_int burst; pol_last_ns = Event_queue.now dev.eq }

let clear_policer dev ~iface = (find_iface_exn dev iface).if_policer <- None

let policer_drops = Counters.key "policer_drops"

(* Token-bucket admission: true if [bytes] may pass now. *)
let policer_admit dev (i : iface) bytes =
  match i.if_policer with
  | None -> true
  | Some p ->
      let now = Event_queue.now dev.eq in
      let dt_ns = Int64.to_float (Int64.sub now p.pol_last_ns) in
      p.pol_last_ns <- now;
      p.pol_tokens <-
        Float.min (float_of_int p.pol_burst)
          (p.pol_tokens +. (dt_ns *. float_of_int p.pol_rate_bps /. 8e9));
      if p.pol_tokens >= float_of_int bytes then begin
        p.pol_tokens <- p.pol_tokens -. float_of_int bytes;
        true
      end
      else begin
        Counters.incr i.if_counters policer_drops;
        false
      end

(* UDP / ICMP --------------------------------------------------------- *)

let udp_bind dev ~port handler = Hashtbl.replace dev.udp_socks port handler
let udp_unbind dev ~port = Hashtbl.remove dev.udp_socks port

(* Crash / restart ----------------------------------------------------- *)

(* Warm restart semantics: the device stops receiving and transmitting and
   loses volatile state (ARP cache, pending resolutions, learned switch
   FDB), but keeps its configuration — interfaces, addresses, routes,
   tunnels — the way a reboot with persistent config does. Cold-start
   config loss is the NM's business (it re-runs scripts), not the sim's. *)
let crash dev =
  dev.dev_up <- false;
  Hashtbl.reset dev.arp.arp_cache;
  Hashtbl.reset dev.arp.arp_pending;
  Hashtbl.reset dev.sw.fdb

let restart dev = dev.dev_up <- true

(* ICMP waiters --------------------------------------------------------- *)

let add_icmp_waiter dev w = dev.icmp_waiters <- w :: dev.icmp_waiters

let rec without w = function [] -> [] | x :: xs -> if x == w then xs else x :: without w xs

(* Removes exactly [w] (by identity), whatever was added or removed since. *)
let remove_icmp_waiter dev w = dev.icmp_waiters <- without w dev.icmp_waiters

(* Misc ---------------------------------------------------------------- *)

let load_module dev name =
  if not (List.mem name dev.loaded_modules) then dev.loaded_modules <- name :: dev.loaded_modules

let module_loaded dev name = List.mem name dev.loaded_modules
