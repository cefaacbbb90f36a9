(* The forwarding pipeline: Ethernet (host and switch with VLAN/QinQ), ARP,
   IPv4 with policy routing, GRE/IP-IP tunnelling, MPLS label switching and
   local UDP/ICMP delivery. [activate dev] installs the pipeline as the
   device's receive dispatch; it must be called once per device. *)

open Packet
open Device

let max_encap_depth = 8

let count dev name = Counters.incr dev.dev_counters name

(* Raw transmit out of a physical port. *)
let transmit dev port_index frame =
  let p = dev.ports.(port_index) in
  if dev.dev_up && p.port_up then
    match p.port_endpoint with
    | Some ep ->
        Counters.incr p.port_counters "tx_frames";
        Counters.incr ~by:(Bytes.length frame) p.port_counters "tx_bytes";
        Trace.emit ~device:dev.dev_name ~what:"tx" ~port:p.port_name frame;
        Link.send ep frame
    | None -> Counters.incr p.port_counters "tx_no_link"
  else Counters.incr p.port_counters "tx_down"

(* --- ARP ------------------------------------------------------------- *)

let arp_send dev port_index arp =
  let p = dev.ports.(port_index) in
  let dst =
    match arp.Arp_pkt.op with
    | Arp_pkt.Request -> Mac_addr.broadcast
    | Arp_pkt.Reply -> arp.Arp_pkt.target_mac
  in
  let frame =
    Ethernet.encode
      { Ethernet.dst; src = p.port_mac; ethertype = Ethertype.Arp }
      (Arp_pkt.encode arp)
  in
  transmit dev port_index frame

let arp_resolve dev ~port_index ~src_ip via k =
  match Hashtbl.find_opt dev.arp.arp_cache via with
  | Some mac -> k mac
  | None ->
      count dev "arp_requests";
      let waiters =
        match Hashtbl.find_opt dev.arp.arp_pending via with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace dev.arp.arp_pending via l;
            (* unanswered resolutions expire: queued packets are dropped
               rather than released stale much later (as Linux's neighbour
               queue does) *)
            Event_queue.schedule dev.eq ~delay_ns:1_000_000L (fun () ->
                match Hashtbl.find_opt dev.arp.arp_pending via with
                | Some l' when l' == l ->
                    Hashtbl.remove dev.arp.arp_pending via;
                    count dev "arp_expired"
                | _ -> ());
            l
      in
      waiters := k :: !waiters;
      let p = dev.ports.(port_index) in
      arp_send dev port_index
        {
          Arp_pkt.op = Arp_pkt.Request;
          sender_mac = p.port_mac;
          sender_ip = src_ip;
          target_mac = Mac_addr.of_int 0;
          target_ip = via;
        }

let arp_input dev ~port_index payload =
  match Arp_pkt.decode payload with
  | exception Arp_pkt.Bad_header _ -> count dev "arp_bad"
  | arp -> (
      (* Learn the sender mapping opportunistically. *)
      if not (Ipv4_addr.equal arp.Arp_pkt.sender_ip Ipv4_addr.any) then begin
        Hashtbl.replace dev.arp.arp_cache arp.Arp_pkt.sender_ip arp.Arp_pkt.sender_mac;
        match Hashtbl.find_opt dev.arp.arp_pending arp.Arp_pkt.sender_ip with
        | Some waiters ->
            let ws = !waiters in
            Hashtbl.remove dev.arp.arp_pending arp.Arp_pkt.sender_ip;
            List.iter (fun k -> k arp.Arp_pkt.sender_mac) ws
        | None -> ()
      end;
      let answer () =
        let p = dev.ports.(port_index) in
        arp_send dev port_index
          {
            Arp_pkt.op = Arp_pkt.Reply;
            sender_mac = p.port_mac;
            sender_ip = arp.Arp_pkt.target_ip;
            target_mac = arp.Arp_pkt.sender_mac;
            target_ip = arp.Arp_pkt.sender_ip;
          }
      in
      match arp.Arp_pkt.op with
      | Arp_pkt.Request when is_local_addr dev arp.Arp_pkt.target_ip -> answer ()
      | Arp_pkt.Request
        when dev.proxy_arp && dev.ip_forward
             && (* proxy-ARP: answer for addresses we can route towards via a
                   different interface than the one the request came in on *)
             (match lookup_route dev arp.Arp_pkt.target_ip with
             | Some r -> r.rt_dev <> Some dev.ports.(port_index).port_name
             | None -> false) ->
          answer ()
      | Arp_pkt.Request | Arp_pkt.Reply -> ())

(* --- IP output ------------------------------------------------------- *)

(* Transmit an IP packet (or MPLS-labelled packet) out of a physical
   interface, resolving the next hop with ARP. *)
let xmit_on_phys dev ~port_index ~iface ~via ~ethertype packet =
  if not (policer_admit dev iface (Bytes.length packet)) then
    count dev "policer_drop"
  else
    let src_ip = match primary_addr iface with Some a -> a | None -> Ipv4_addr.any in
    arp_resolve dev ~port_index ~src_ip via (fun mac ->
        let p = dev.ports.(port_index) in
        Counters.incr iface.if_counters "tx_packets";
        Counters.incr ~by:(Bytes.length packet) iface.if_counters "tx_bytes";
        if Ethertype.equal ethertype Ethertype.Mpls_unicast then begin
          Counters.incr iface.if_counters "tx_mpls";
          Counters.incr ~by:(Bytes.length packet) iface.if_counters "tx_mpls_bytes"
        end;
        transmit dev port_index
          (Ethernet.encode { Ethernet.dst = mac; src = p.port_mac; ethertype } packet))

let rec route_and_xmit dev ~depth ?in_iface (hdr : Ipv4.t) payload =
  if depth > max_encap_depth then count dev "encap_loop_drop"
  else if is_local_addr dev hdr.Ipv4.dst then local_deliver dev ~depth hdr payload
  else
    match lookup_route dev ?in_iface hdr.Ipv4.dst with
    | None ->
        count dev "no_route_drop";
        Trace.emit ~device:dev.dev_name ~what:"no-route"
          (Bytes.of_string (Ipv4_addr.to_string hdr.Ipv4.dst))
    | Some route -> (
        match route.rt_mpls with
        | Some key -> mpls_impose dev ~depth key (Ipv4.encode hdr payload)
        | None -> (
            let egress =
              match route.rt_dev with
              | Some name -> find_iface dev name
              | None -> (
                  (* Derive the egress interface from the gateway address. *)
                  match route.rt_via with
                  | Some via ->
                      List.find_opt
                        (fun i ->
                          i.if_up && List.exists (fun (_, p) -> Prefix.mem via p) i.if_addrs)
                        dev.ifaces
                  | None -> None)
            in
            match egress with
            | None -> count dev "no_egress_drop"
            | Some iface when not iface.if_up -> count dev "iface_down_drop"
            | Some iface -> (
                match iface.if_kind with
                | Phys port_index ->
                    let via =
                      match route.rt_via with Some v -> v | None -> hdr.Ipv4.dst
                    in
                    xmit_on_phys dev ~port_index ~iface ~via ~ethertype:Ethertype.Ipv4
                      (Ipv4.encode hdr payload)
                | Tun tun -> tunnel_encap dev ~depth ~iface tun (Ipv4.encode hdr payload)
                | Loopback -> local_deliver dev ~depth hdr payload)))

and tunnel_encap dev ~depth ~iface tun inner =
  if not (policer_admit dev iface (Bytes.length inner)) then count dev "policer_drop"
  else begin
  let encapped =
    match tun.t_mode with
    | Ipip_mode -> Some (Ip_proto.Ipip, inner)
    | Esp_mode -> (
        match (tun.t_okey, tun.t_enc_out) with
        | Some spi, Some key ->
            tun.t_tx_seq <- Int32.add tun.t_tx_seq 1l;
            Some (Ip_proto.Esp, Esp.encode ~key { Esp.spi; seq = tun.t_tx_seq } inner)
        | _ ->
            (* no SA established: nothing leaves in the clear — and nothing
               was transmitted, so tx_packets must not count it *)
            Counters.incr iface.if_counters "tx_no_sa_drop";
            None)
    | Gre_mode ->
        let seq =
          if tun.t_oseq then begin
            tun.t_tx_seq <- Int32.add tun.t_tx_seq 1l;
            Some tun.t_tx_seq
          end
          else None
        in
        let g = Gre.make ?key:tun.t_okey ?seq ~with_csum:tun.t_ocsum Ethertype.Ipv4 in
        Some (Ip_proto.Gre, Gre.encode g inner)
  in
  match encapped with
  | None -> ()
  | Some (proto, payload) ->
      Counters.incr iface.if_counters "tx_packets";
      Counters.incr ~by:(Bytes.length inner) iface.if_counters "tx_bytes";
      let outer =
        Ipv4.make ~tos:tun.t_tos ~ttl:tun.t_ttl ~proto ~src:tun.t_local ~dst:tun.t_remote ()
      in
      route_and_xmit dev ~depth:(depth + 1) outer payload
  end

and mpls_impose dev ~depth key ip_bytes =
  match Hashtbl.find_opt dev.mpls.nhlfe_table key with
  | None -> count dev "mpls_no_nhlfe_drop"
  | Some nh ->
      (* the pipe model (RFC 3443): an LSP is one IP hop, and its labels
         start from the largest TTL, so an LSP may cross up to 254
         label-switching routers *)
      let stack = List.map (fun l -> Mpls.entry ~ttl:255 l) nh.nh_push in
      if stack = [] then count dev "mpls_empty_push_drop"
      else mpls_xmit dev ~depth nh (Mpls.encode stack ip_bytes)

and mpls_xmit dev ~depth nh packet =
  if depth > max_encap_depth then count dev "encap_loop_drop"
  else
    match find_iface dev nh.nh_dev with
    | Some ({ if_kind = Phys port_index; _ } as iface) ->
        xmit_on_phys dev ~port_index ~iface ~via:nh.nh_via ~ethertype:Ethertype.Mpls_unicast
          packet
    | Some _ | None -> count dev "mpls_bad_dev_drop"

(* --- local delivery -------------------------------------------------- *)

and local_deliver dev ~depth (hdr : Ipv4.t) payload =
  count dev "ip_local_in";
  match hdr.Ipv4.proto with
  | Ip_proto.Icmp -> icmp_input dev ~depth hdr payload
  | Ip_proto.Udp -> (
      match Udp.decode ~src:hdr.Ipv4.src ~dst:hdr.Ipv4.dst payload with
      | exception Udp.Bad_header _ -> count dev "udp_bad"
      | udp, data -> (
          match Hashtbl.find_opt dev.udp_socks udp.Udp.dst_port with
          | Some handler -> handler ~src:hdr.Ipv4.src ~src_port:udp.Udp.src_port data
          | None -> count dev "udp_no_sock"))
  | Ip_proto.Gre -> gre_input dev ~depth hdr payload
  | Ip_proto.Ipip -> ipip_input dev ~depth hdr payload
  | Ip_proto.Esp -> esp_input dev ~depth hdr payload
  | Ip_proto.Other _ -> count dev "ip_unknown_proto"

and icmp_input dev ~depth hdr payload =
  match Icmp.decode payload with
  | exception Icmp.Bad_header _ -> count dev "icmp_bad"
  | msg, data -> (
      (match dev.icmp_hook with Some f -> f hdr msg | None -> ());
      match msg with
      | Icmp.Echo_request { id; seq } ->
          let reply = Icmp.encode (Icmp.Echo_reply { id; seq }) data in
          let rhdr =
            Ipv4.make ~proto:Ip_proto.Icmp ~src:hdr.Ipv4.dst ~dst:hdr.Ipv4.src ()
          in
          route_and_xmit dev ~depth:(depth + 1) rhdr reply
      | Icmp.Echo_reply _ | Icmp.Dest_unreachable _ | Icmp.Time_exceeded -> ())

and find_tunnel dev ~mode ~local ~remote =
  List.find_opt
    (fun i ->
      i.if_up
      &&
      match i.if_kind with
      | Tun t ->
          t.t_mode = mode && Ipv4_addr.equal t.t_local local && Ipv4_addr.equal t.t_remote remote
      | Phys _ | Loopback -> false)
    dev.ifaces

and gre_input dev ~depth hdr payload =
  match find_tunnel dev ~mode:Gre_mode ~local:hdr.Ipv4.dst ~remote:hdr.Ipv4.src with
  | None -> count dev "gre_no_tunnel_drop"
  | Some iface -> (
      let tun = match iface.if_kind with Tun t -> t | _ -> assert false in
      match Gre.decode payload with
      | exception Gre.Bad_header _ ->
          Counters.incr iface.if_counters "rx_errors";
          count dev "gre_bad_drop"
      | g, inner ->
          let key_ok =
            match (tun.t_ikey, g.Gre.key) with
            | None, None -> true
            | Some k, Some k' -> Int32.equal k k'
            | Some _, None | None, Some _ -> false
          in
          let csum_ok = (not tun.t_icsum) || g.Gre.with_csum in
          let seq_ok =
            if not tun.t_iseq then true
            else
              match g.Gre.seq with
              | None -> false
              | Some s -> (
                  match tun.t_rx_seq with
                  | Some prev when Int32.unsigned_compare s prev <= 0 -> false
                  | Some _ | None ->
                      tun.t_rx_seq <- Some s;
                      true)
          in
          if not (key_ok && csum_ok && seq_ok) then begin
            Counters.incr iface.if_counters "rx_errors";
            count dev "gre_check_drop"
          end
          else if not (Ethertype.equal g.Gre.protocol Ethertype.Ipv4) then
            count dev "gre_proto_drop"
          else begin
            Counters.incr iface.if_counters "rx_packets";
            Counters.incr ~by:(Bytes.length inner) iface.if_counters "rx_bytes";
            ip_input_bytes dev ~depth:(depth + 1) ~in_iface:iface.if_name inner
          end)

and esp_input dev ~depth hdr payload =
  match find_tunnel dev ~mode:Esp_mode ~local:hdr.Ipv4.dst ~remote:hdr.Ipv4.src with
  | None -> count dev "esp_no_tunnel_drop"
  | Some iface -> (
      let tun = match iface.if_kind with Tun t -> t | _ -> assert false in
      match (tun.t_ikey, tun.t_enc_in) with
      | Some spi, Some key -> (
          match Esp.decode ~key payload with
          | exception Esp.Bad_packet _ ->
              Counters.incr iface.if_counters "rx_errors";
              count dev "esp_auth_drop"
          | esp, inner ->
              if not (Int32.equal esp.Esp.spi spi) then begin
                Counters.incr iface.if_counters "rx_errors";
                count dev "esp_spi_drop"
              end
              else begin
                Counters.incr iface.if_counters "rx_packets";
                Counters.incr ~by:(Bytes.length inner) iface.if_counters "rx_bytes";
                ip_input_bytes dev ~depth:(depth + 1) ~in_iface:iface.if_name inner
              end)
      | _ -> count dev "esp_no_sa_drop")

and ipip_input dev ~depth hdr payload =
  match find_tunnel dev ~mode:Ipip_mode ~local:hdr.Ipv4.dst ~remote:hdr.Ipv4.src with
  | None -> count dev "ipip_no_tunnel_drop"
  | Some iface ->
      Counters.incr iface.if_counters "rx_packets";
      Counters.incr ~by:(Bytes.length payload) iface.if_counters "rx_bytes";
      ip_input_bytes dev ~depth:(depth + 1) ~in_iface:iface.if_name payload

(* --- IP input --------------------------------------------------------- *)

and ip_input_bytes dev ~depth ~in_iface buf =
  match Ipv4.decode buf with
  | exception Ipv4.Bad_header _ -> count dev "ip_bad_drop"
  | hdr, payload -> ip_input dev ~depth ~in_iface hdr payload

and ip_input dev ~depth ~in_iface (hdr : Ipv4.t) payload =
  if
    List.exists
      (fun (src, dst) -> Prefix.mem hdr.Ipv4.src src && Prefix.mem hdr.Ipv4.dst dst)
      dev.ip_drops
  then count dev "ip_filtered_drop"
  else if is_local_addr dev hdr.Ipv4.dst then local_deliver dev ~depth hdr payload
  else if not dev.ip_forward then count dev "ip_not_forwarding_drop"
  else if hdr.Ipv4.ttl <= 1 then begin
    count dev "ttl_exceeded";
    (* Send time-exceeded back towards the source to support traceroute-style
       debugging by the NM. *)
    match local_addrs dev with
    | [] -> ()
    | src :: _ ->
        let te = Icmp.encode Icmp.Time_exceeded (Bytes.sub payload 0 (min 8 (Bytes.length payload))) in
        let rhdr = Ipv4.make ~proto:Ip_proto.Icmp ~src ~dst:hdr.Ipv4.src () in
        route_and_xmit dev ~depth:(depth + 1) rhdr te
  end
  else begin
    count dev "ip_forwarded";
    route_and_xmit dev ~depth ~in_iface { hdr with Ipv4.ttl = hdr.Ipv4.ttl - 1 } payload
  end

(* --- MPLS input -------------------------------------------------------- *)

let mpls_input dev ~in_iface buf =
  if not dev.mpls.mpls_enabled then count dev "mpls_disabled_drop"
  else
    match Mpls.decode buf with
    | exception Mpls.Bad_header _ -> count dev "mpls_bad_drop"
    | [], _ -> count dev "mpls_bad_drop"
    | top :: rest_stack, ip_bytes -> (
        let space = mpls_labelspace dev in_iface in
        if space < 0 then count dev "mpls_no_labelspace_drop"
        else
          match Hashtbl.find_opt dev.mpls.ilm_table (top.Mpls.label, space) with
          | None -> count dev "mpls_no_ilm_drop"
          | Some { ilm_xc = None; _ } -> count dev "mpls_no_xc_drop"
          | Some { ilm_xc = Some key; _ } -> (
              match Hashtbl.find_opt dev.mpls.nhlfe_table key with
              | None -> count dev "mpls_no_nhlfe_drop"
              | Some nh -> (
                  if top.Mpls.ttl <= 1 then count dev "mpls_ttl_drop"
                  else
                    let pushed =
                      List.map (fun l -> Mpls.entry ~ttl:(top.Mpls.ttl - 1) l) nh.nh_push
                    in
                    let stack = pushed @ rest_stack in
                    match (stack, nh.nh_dev) with
                    | [], "local" ->
                        (* Pop to the local IP stack ("deliver" instruction). *)
                        count dev "mpls_delivered";
                        ip_input_bytes dev ~depth:0 ~in_iface:"mpls0" ip_bytes
                    | [], _ -> (
                        (* Penultimate-style direct IP forward to the NHLFE
                           next hop, bypassing the IP routing table. *)
                        match find_iface dev nh.nh_dev with
                        | Some ({ if_kind = Phys port_index; _ } as iface) ->
                            count dev "mpls_switched";
                            xmit_on_phys dev ~port_index ~iface ~via:nh.nh_via
                              ~ethertype:Ethertype.Ipv4 ip_bytes
                        | Some _ | None -> count dev "mpls_bad_dev_drop")
                    | stack, _ ->
                        count dev "mpls_switched";
                        mpls_xmit dev ~depth:0 nh (Mpls.encode stack ip_bytes))))

(* --- Ethernet switching (learning bridge with 802.1Q and QinQ) -------- *)

let default_vid = 1

(* Strips the outer 802.1Q tag if present, returning the carried vid. *)
let split_outer_tag frame =
  let r = Cursor.reader frame in
  let eth = Ethernet.read r in
  match eth.Ethernet.ethertype with
  | Ethertype.Vlan | Ethertype.Qinq ->
      let tag = Vlan.read r in
      let inner =
        Ethernet.encode { eth with Ethernet.ethertype = tag.Vlan.inner } (Cursor.rest r)
      in
      (Some tag.Vlan.vid, inner)
  | _ -> (None, frame)

let push_outer_tag frame vid =
  let r = Cursor.reader frame in
  let eth = Ethernet.read r in
  let w = Cursor.writer () in
  Ethernet.write w { eth with Ethernet.ethertype = Ethertype.Vlan };
  Vlan.write w (Vlan.make ~vid eth.Ethernet.ethertype);
  Cursor.wbytes w (Cursor.rest r);
  Cursor.contents w

(* Ingress classification: returns the vlan id and the canonical (outer-
   untagged) frame, or None to drop. *)
let classify_ingress port frame =
  match port.port_mode with
  | No_vlan -> (
      match split_outer_tag frame with
      | None, f -> Some (default_vid, f)
      | Some _, _ -> None (* plain switch ports drop tagged frames *))
  | Access vid -> (
      match split_outer_tag frame with
      | None, f -> Some (vid, f)
      | Some v, f when v = vid -> Some (vid, f)
      | Some _, _ -> None)
  | Dot1q_tunnel vid ->
      (* QinQ: the whole customer frame, tags included, is payload. *)
      Some (vid, frame)
  | Trunk { allowed; native } -> (
      match split_outer_tag frame with
      | Some v, f when allowed = [] || List.mem v allowed -> Some (v, f)
      | Some _, _ -> None
      | None, _ -> ( match native with Some v -> Some (v, frame) | None -> None))

(* Egress encapsulation for a canonical frame in [vid]; None drops. *)
let egress_frame dev port vid frame =
  let check_mtu f =
    let payload = Bytes.length f - Ethernet.header_size in
    let mtu = (Device.vlan_def dev vid).vd_mtu in
    if payload > mtu + Vlan.size then None else Some f
  in
  match port.port_mode with
  | No_vlan -> if vid = default_vid then Some frame else None
  | Access v | Dot1q_tunnel v -> if v = vid then Some frame else None
  | Trunk { allowed; native } ->
      if not (allowed = [] || List.mem vid allowed) then None
      else if native = Some vid && not dev.sw.tag_native then Some frame
      else (
        match check_mtu (push_outer_tag frame vid) with
        | Some f ->
            Counters.incr port.port_counters "tagged_frames";
            Some f
        | None -> None)

let switch_forward dev ~in_port frame =
  let p = dev.ports.(in_port) in
  match classify_ingress p frame with
  | None -> Counters.incr p.port_counters "rx_vlan_drop"
  | Some (vid, canonical) -> (
      let r = Cursor.reader canonical in
      let eth = Ethernet.read r in
      Hashtbl.replace dev.sw.fdb (vid, eth.Ethernet.src) in_port;
      let send_to out_port =
        if out_port <> in_port && dev.ports.(out_port).port_up then
          match egress_frame dev dev.ports.(out_port) vid canonical with
          | Some f -> transmit dev out_port f
          | None -> Counters.incr dev.ports.(out_port).port_counters "tx_mtu_or_vlan_drop"
      in
      match
        if Mac_addr.is_broadcast eth.Ethernet.dst || Mac_addr.is_multicast eth.Ethernet.dst
        then None
        else Hashtbl.find_opt dev.sw.fdb (vid, eth.Ethernet.dst)
      with
      | Some out_port -> send_to out_port
      | None -> Array.iter (fun port -> send_to port.port_index) dev.ports)

(* --- top-level receive -------------------------------------------------- *)

let eth_input dev ~in_port frame =
  let p = dev.ports.(in_port) in
  Counters.incr p.port_counters "rx_frames";
  Counters.incr ~by:(Bytes.length frame) p.port_counters "rx_bytes";
  Trace.emit ~device:dev.dev_name ~what:"rx" ~port:p.port_name frame;
  match Ethernet.read (Cursor.reader frame) with
  | exception Cursor.Truncated -> Counters.incr p.port_counters "rx_bad"
  | eth ->
      let payload () =
        Bytes.sub frame Ethernet.header_size (Bytes.length frame - Ethernet.header_size)
      in
      if Ethertype.equal eth.Ethernet.ethertype Ethertype.Mgmt then
        (* Management frames go to the management agent on every device;
           they are never switched or routed (CONMan §II-A). *)
        match dev.mgmt_hook with
        | Some f -> f ~in_port ~src:eth.Ethernet.src (payload ())
        | None -> count dev "mgmt_no_agent"
      else if dev.sw.switching then switch_forward dev ~in_port frame
      else if
        Mac_addr.equal eth.Ethernet.dst p.port_mac || Mac_addr.is_broadcast eth.Ethernet.dst
      then begin
        let in_iface = p.port_name in
        let count_iface pkts byts =
          match find_iface dev in_iface with
          | Some i ->
              let pl = payload () in
              Counters.incr i.if_counters pkts;
              Counters.incr ~by:(Bytes.length pl) i.if_counters byts
          | None -> ()
        in
        match eth.Ethernet.ethertype with
        | Ethertype.Arp -> arp_input dev ~port_index:in_port (payload ())
        | Ethertype.Ipv4 ->
            count_iface "rx_packets" "rx_bytes";
            ip_input_bytes dev ~depth:0 ~in_iface (payload ())
        | Ethertype.Mpls_unicast ->
            count_iface "rx_mpls" "rx_mpls_bytes";
            mpls_input dev ~in_iface (payload ())
        | Ethertype.Vlan | Ethertype.Qinq | Ethertype.Mgmt | Ethertype.Other _ ->
            count dev "eth_unknown_type"
      end
      else Counters.incr p.port_counters "rx_other_dst"

let activate dev =
  dev.rx_dispatch <-
    (fun in_port frame -> if dev.dev_up then eth_input dev ~in_port frame)

(* --- local send helpers -------------------------------------------------- *)

let ip_send dev hdr payload = route_and_xmit dev ~depth:0 hdr payload

let udp_send dev ~src ~dst ~src_port ~dst_port data =
  let payload = Udp.encode ~src ~dst { Udp.src_port; dst_port } data in
  ip_send dev (Ipv4.make ~proto:Ip_proto.Udp ~src ~dst ()) payload

let icmp_echo dev ~src ~dst ~id ~seq data =
  let payload = Icmp.encode (Icmp.Echo_request { id; seq }) data in
  ip_send dev (Ipv4.make ~proto:Ip_proto.Icmp ~src ~dst ()) payload
