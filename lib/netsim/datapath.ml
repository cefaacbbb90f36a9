(* The forwarding pipeline: Ethernet (host and switch with VLAN/QinQ), ARP,
   IPv4 with policy routing, GRE/IP-IP/ESP tunnelling, MPLS label switching
   and local UDP/ICMP delivery. [activate dev] installs the pipeline as the
   device's receive dispatch; it must be called once per device.

   A received frame is read in place: each layer parses its header at an
   offset in the buffer the frame arrived in, and nothing ever writes into
   that buffer (a LAN segment hands the same one to every endpoint). What
   a hop sends is described by an [out] value, the headers to generate
   over a slice of some buffer, and written once, into one buffer of its
   final size, when the egress port and the next hop's MAC are known. *)

open Packet
open Device

let max_encap_depth = 8

(* --- counters ----------------------------------------------------------- *)

let key = Counters.key

(* port *)
let rx_frames = key "rx_frames"
let rx_bytes = key "rx_bytes"
let rx_bad = key "rx_bad"
let rx_other_dst = key "rx_other_dst"
let rx_vlan_drop = key "rx_vlan_drop"
let tx_frames = key "tx_frames"
let tx_bytes = key "tx_bytes"
let tx_no_link = key "tx_no_link"
let tx_down = key "tx_down"
let tx_mtu_or_vlan_drop = key "tx_mtu_or_vlan_drop"
let tagged_frames = key "tagged_frames"

(* interface (with rx_bytes and tx_bytes above) *)
let rx_packets = key "rx_packets"
let rx_mpls = key "rx_mpls"
let rx_mpls_bytes = key "rx_mpls_bytes"
let rx_errors = key "rx_errors"
let tx_packets = key "tx_packets"
let tx_mpls = key "tx_mpls"
let tx_mpls_bytes = key "tx_mpls_bytes"
let tx_no_sa_drop = key "tx_no_sa_drop"

(* device *)
let arp_requests = key "arp_requests"
let arp_expired = key "arp_expired"
let arp_bad = key "arp_bad"
let mgmt_no_agent = key "mgmt_no_agent"
let eth_unknown_type = key "eth_unknown_type"
let policer_drop = key "policer_drop"
let encap_loop_drop = key "encap_loop_drop"
let no_route_drop = key "no_route_drop"
let no_egress_drop = key "no_egress_drop"
let iface_down_drop = key "iface_down_drop"
let ip_bad_drop = key "ip_bad_drop"
let ip_filtered_drop = key "ip_filtered_drop"
let ip_not_forwarding_drop = key "ip_not_forwarding_drop"
let ttl_exceeded = key "ttl_exceeded"
let ip_forwarded = key "ip_forwarded"
let ip_local_in = key "ip_local_in"
let ip_unknown_proto = key "ip_unknown_proto"
let icmp_bad = key "icmp_bad"
let udp_bad = key "udp_bad"
let udp_no_sock = key "udp_no_sock"
let gre_no_tunnel_drop = key "gre_no_tunnel_drop"
let gre_bad_drop = key "gre_bad_drop"
let gre_check_drop = key "gre_check_drop"
let gre_proto_drop = key "gre_proto_drop"
let esp_no_tunnel_drop = key "esp_no_tunnel_drop"
let esp_auth_drop = key "esp_auth_drop"
let esp_spi_drop = key "esp_spi_drop"
let esp_no_sa_drop = key "esp_no_sa_drop"
let ipip_no_tunnel_drop = key "ipip_no_tunnel_drop"
let mpls_disabled_drop = key "mpls_disabled_drop"
let mpls_bad_drop = key "mpls_bad_drop"
let mpls_no_labelspace_drop = key "mpls_no_labelspace_drop"
let mpls_no_ilm_drop = key "mpls_no_ilm_drop"
let mpls_no_xc_drop = key "mpls_no_xc_drop"
let mpls_no_nhlfe_drop = key "mpls_no_nhlfe_drop"
let mpls_empty_push_drop = key "mpls_empty_push_drop"
let mpls_bad_dev_drop = key "mpls_bad_dev_drop"
let mpls_ttl_drop = key "mpls_ttl_drop"
let mpls_delivered = key "mpls_delivered"
let mpls_switched = key "mpls_switched"

let count dev k = Counters.incr dev.dev_counters k

(* --- what a hop sends ---------------------------------------------------- *)

(* Everything after the Ethernet header of a frame being built. *)
type out =
  | Slice of { buf : bytes; off : int; len : int; ttl : int }
      (* [len] bytes of [buf] from [off], copied; when [ttl >= 0] they
         start with an IPv4 header that leaves with that TTL *)
  | Labels of { push : int list; ttl : int; bottom : bool; inner : out }
      (* MPLS entries over [inner], the last with the S bit when [bottom] *)
  | Tunnel of { outer : Ipv4.t; encap : encap; inner : out }
      (* a generated IPv4 header and tunnel header over [inner] *)

and encap = Ipip | Gre of Gre.t | Esp of { key : int32; esp : Esp.t }

let encap_header = function
  | Ipip -> 0
  | Gre g -> Gre.header_size g
  | Esp _ -> Esp.header_size

let encap_trailer = function Ipip | Gre _ -> 0 | Esp _ -> Esp.tag_size

let rec size = function
  | Slice s -> s.len
  | Labels l -> (Mpls.entry_size * List.length l.push) + size l.inner
  | Tunnel t -> Ipv4.header_size + encap_header t.encap + size t.inner + encap_trailer t.encap

let rec write_labels b pos ttl bottom = function
  | [] -> pos
  | label :: rest ->
      let last = match rest with [] -> true | _ :: _ -> false in
      Mpls.set b pos ~label ~tc:0 ~ttl ~bottom:(bottom && last);
      write_labels b (pos + Mpls.entry_size) ttl bottom rest

(* Writes [o] at [pos] of [b], which has room for its [size] there. A GRE
   checksum and ESP's cipher and tag cover what follows the tunnel header,
   so the inner packet is written first. *)
let rec write b pos o =
  match o with
  | Slice { buf; off; len; ttl } ->
      Bytes.blit buf off b pos len;
      if ttl >= 0 then Ipv4.set_ttl b pos ttl
  | Labels { push; ttl; bottom; inner } -> write b (write_labels b pos ttl bottom push) inner
  | Tunnel { outer; encap; inner } -> (
      let n = size inner in
      let at = pos + Ipv4.header_size in
      Ipv4.set b pos outer ~payload_len:(encap_header encap + n + encap_trailer encap);
      write b (at + encap_header encap) inner;
      match encap with
      | Ipip -> ()
      | Gre g -> Gre.set b at g ~payload_len:n
      | Esp { key; esp } -> Esp.seal ~key esp b at n)

let to_bytes o =
  let b = Bytes.create (size o) in
  write b 0 o;
  b

(* Raw transmit out of a physical port. *)
let transmit dev port_index frame =
  let p = dev.ports.(port_index) in
  if dev.dev_up && p.port_up then
    match p.port_endpoint with
    | Some ep ->
        Counters.incr p.port_counters tx_frames;
        Counters.add p.port_counters tx_bytes (Bytes.length frame);
        if !Trace.enabled then Trace.emit ~device:dev.dev_name ~what:"tx" ~port:p.port_name frame;
        Link.send ep frame
    | None -> Counters.incr p.port_counters tx_no_link
  else Counters.incr p.port_counters tx_down

(* --- ARP ------------------------------------------------------------- *)

let arp_send dev port_index arp =
  let p = dev.ports.(port_index) in
  let dst =
    match arp.Arp_pkt.op with
    | Arp_pkt.Request -> Mac_addr.broadcast
    | Arp_pkt.Reply -> arp.Arp_pkt.target_mac
  in
  let frame = Bytes.create (Ethernet.header_size + Arp_pkt.size) in
  Ethernet.set frame ~dst ~src:p.port_mac Ethertype.Arp;
  Arp_pkt.set frame Ethernet.header_size arp;
  transmit dev port_index frame

(* A cache miss: [k] waits for the answer to a request for [via]. *)
let arp_resolve dev ~port_index ~src_ip via k =
  count dev arp_requests;
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
                count dev arp_expired
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

(* proxy-ARP: answer for addresses we can route towards via a different
   interface than the one the request came in on *)
let proxies dev ~port_index target =
  dev.proxy_arp && dev.ip_forward
  &&
  match lookup_route dev ~in_iface:"" target with
  | r -> ( match r.rt_dev with Some d -> d <> dev.ports.(port_index).port_name | None -> true)
  | exception Not_found -> false

let arp_input dev ~port_index frame =
  match Arp_pkt.get frame Ethernet.header_size with
  | exception Arp_pkt.Bad_header _ -> count dev arp_bad
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
      match arp.Arp_pkt.op with
      | Arp_pkt.Request
        when is_local_addr dev arp.Arp_pkt.target_ip
             || proxies dev ~port_index arp.Arp_pkt.target_ip ->
          let p = dev.ports.(port_index) in
          arp_send dev port_index
            {
              Arp_pkt.op = Arp_pkt.Reply;
              sender_mac = p.port_mac;
              sender_ip = arp.Arp_pkt.target_ip;
              target_mac = arp.Arp_pkt.sender_mac;
              target_ip = arp.Arp_pkt.sender_ip;
            }
      | Arp_pkt.Request | Arp_pkt.Reply -> ())

(* --- IP output ------------------------------------------------------- *)

(* Builds the frame for [o] ([n] bytes) to [mac] and sends it. *)
let emit dev ~port_index ~iface ~mac ethertype o n =
  Counters.incr iface.if_counters tx_packets;
  Counters.add iface.if_counters tx_bytes n;
  if Ethertype.equal ethertype Ethertype.Mpls_unicast then begin
    Counters.incr iface.if_counters tx_mpls;
    Counters.add iface.if_counters tx_mpls_bytes n
  end;
  let frame = Bytes.create (Ethernet.header_size + n) in
  Ethernet.set frame ~dst:mac ~src:dev.ports.(port_index).port_mac ethertype;
  write frame Ethernet.header_size o;
  transmit dev port_index frame

(* Transmits an IP packet (or MPLS-labelled packet) out of a physical
   interface, resolving the next hop with ARP. A packet that waits for a
   resolution is written out first: the waiter outlives this event. *)
let xmit_on_phys dev ~port_index ~iface ~via ethertype o =
  let n = size o in
  if not (policer_admit dev iface n) then count dev policer_drop
  else
    match Hashtbl.find dev.arp.arp_cache via with
    | mac -> emit dev ~port_index ~iface ~mac ethertype o n
    | exception Not_found ->
        let src_ip = match primary_addr iface with Some a -> a | None -> Ipv4_addr.any in
        let pending = Slice { buf = to_bytes o; off = 0; len = n; ttl = -1 } in
        arp_resolve dev ~port_index ~src_ip via (fun mac ->
            emit dev ~port_index ~iface ~mac ethertype pending n)

let rec holds via = function
  | [] -> false
  | (_, p) :: rest -> Prefix.mem via p || holds via rest

(* The up interface whose subnet holds [via]; raises [Not_found]. *)
let rec on_link via = function
  | [] -> raise Not_found
  | i :: rest -> if i.if_up && holds via i.if_addrs then i else on_link via rest

let egress dev route =
  match route.rt_dev with
  | Some name -> iface dev name
  | None -> (
      (* Derive the egress interface from the gateway address. *)
      match route.rt_via with Some via -> on_link via dev.ifaces | None -> raise Not_found)

let rec tunnel_in mode ~local ~remote = function
  | [] -> raise Not_found
  | i :: rest -> (
      match i.if_kind with
      | Tun t
        when i.if_up && t.t_mode = mode
             && Ipv4_addr.equal t.t_local local
             && Ipv4_addr.equal t.t_remote remote ->
          (i, t)
      | Tun _ | Phys _ | Loopback -> tunnel_in mode ~local ~remote rest)

let rec notify hdr msg = function
  | [] -> ()
  | w :: ws ->
      w hdr msg;
      notify hdr msg ws

let rec filtered src dst = function
  | [] -> false
  | (s, d) :: rest -> (Prefix.mem src s && Prefix.mem dst d) || filtered src dst rest

(* Routes [o], an IPv4 packet for [dst], that arrived on [in_iface] ([""]
   when the device sends it itself). *)
let rec route_and_xmit dev ~depth ~in_iface dst o =
  if depth > max_encap_depth then count dev encap_loop_drop
  else if is_local_addr dev dst then deliver_out dev ~depth o
  else
    match lookup_route dev ~in_iface dst with
    | exception Not_found ->
        count dev no_route_drop;
        if !Trace.enabled then
          Trace.emit ~device:dev.dev_name ~what:"no-route"
            (Bytes.of_string (Ipv4_addr.to_string dst))
    | route -> (
        match route.rt_mpls with
        | Some key -> mpls_impose dev ~depth key o
        | None -> (
            match egress dev route with
            | exception Not_found -> count dev no_egress_drop
            | iface when not iface.if_up -> count dev iface_down_drop
            | iface -> (
                match iface.if_kind with
                | Phys port_index ->
                    let via = match route.rt_via with Some v -> v | None -> dst in
                    xmit_on_phys dev ~port_index ~iface ~via Ethertype.Ipv4 o
                | Tun tun -> tunnel_encap dev ~depth ~iface tun o
                | Loopback -> deliver_out dev ~depth o)))

and tunnel_encap dev ~depth ~iface tun o =
  let n = size o in
  if not (policer_admit dev iface n) then count dev policer_drop
  else
    match tun.t_mode with
    | Ipip_mode -> encap_and_route dev ~depth ~iface tun Ip_proto.Ipip Ipip o n
    | Esp_mode -> (
        match (tun.t_okey, tun.t_enc_out) with
        | Some spi, Some key ->
            tun.t_tx_seq <- Int32.add tun.t_tx_seq 1l;
            encap_and_route dev ~depth ~iface tun Ip_proto.Esp
              (Esp { key; esp = { Esp.spi; seq = tun.t_tx_seq } })
              o n
        | _ ->
            (* no SA established: nothing leaves in the clear — and nothing
               was transmitted, so tx_packets must not count it *)
            Counters.incr iface.if_counters tx_no_sa_drop)
    | Gre_mode ->
        let seq =
          if tun.t_oseq then begin
            tun.t_tx_seq <- Int32.add tun.t_tx_seq 1l;
            Some tun.t_tx_seq
          end
          else None
        in
        encap_and_route dev ~depth ~iface tun Ip_proto.Gre
          (Gre (Gre.make ?key:tun.t_okey ?seq ~with_csum:tun.t_ocsum Ethertype.Ipv4))
          o n

and encap_and_route dev ~depth ~iface tun proto encap o n =
  Counters.incr iface.if_counters tx_packets;
  Counters.add iface.if_counters tx_bytes n;
  let outer =
    Ipv4.make ~tos:tun.t_tos ~ttl:tun.t_ttl ~proto ~src:tun.t_local ~dst:tun.t_remote ()
  in
  route_and_xmit dev ~depth:(depth + 1) ~in_iface:"" tun.t_remote
    (Tunnel { outer; encap; inner = o })

and mpls_impose dev ~depth key o =
  match Hashtbl.find dev.mpls.nhlfe_table key with
  | exception Not_found -> count dev mpls_no_nhlfe_drop
  | nh ->
      (* the pipe model (RFC 3443): an LSP is one IP hop, and its labels
         start from the largest TTL, so an LSP may cross up to 254
         label-switching routers *)
      match nh.nh_push with
      | [] -> count dev mpls_empty_push_drop
      | push -> mpls_xmit dev ~depth nh (Labels { push; ttl = 255; bottom = true; inner = o })

and mpls_xmit dev ~depth nh o =
  if depth > max_encap_depth then count dev encap_loop_drop
  else
    match iface dev nh.nh_dev with
    | { if_kind = Phys port_index; _ } as iface ->
        xmit_on_phys dev ~port_index ~iface ~via:nh.nh_via Ethertype.Mpls_unicast o
    | _ | (exception Not_found) -> count dev mpls_bad_dev_drop

(* --- local delivery -------------------------------------------------- *)

(* A packet routed to this device: read in place when its header leaves as
   it is, else written out first. *)
and deliver_out dev ~depth o =
  match o with
  | Slice { buf; off; len; ttl } when ttl < 0 -> local_deliver dev ~depth buf off len
  | Slice _ | Labels _ | Tunnel _ ->
      let b = to_bytes o in
      local_deliver dev ~depth b 0 (Bytes.length b)

(* The [len]-byte IPv4 packet at [off] of [buf], addressed to this device. *)
and local_deliver dev ~depth buf off len =
  count dev ip_local_in;
  let at = off + Ipv4.header_size and n = len - Ipv4.header_size in
  match Ipv4.proto buf off with
  | Ip_proto.Icmp -> icmp_input dev ~depth buf off at n
  | Ip_proto.Udp -> (
      let src = Ipv4.src buf off in
      match Udp.decode ~src ~dst:(Ipv4.dst buf off) buf at n with
      | exception Udp.Bad_header _ -> count dev udp_bad
      | udp, data -> (
          match Hashtbl.find_opt dev.udp_socks udp.Udp.dst_port with
          | Some handler -> handler ~src ~src_port:udp.Udp.src_port data
          | None -> count dev udp_no_sock))
  | Ip_proto.Gre -> gre_input dev ~depth buf off at n
  | Ip_proto.Ipip -> ipip_input dev ~depth buf off at n
  | Ip_proto.Esp -> esp_input dev ~depth buf off at n
  | Ip_proto.Other _ -> count dev ip_unknown_proto

and icmp_send dev ~depth ~src ~dst msg data doff dlen =
  let n = Ipv4.header_size + Icmp.header_size + dlen in
  let b = Bytes.create n in
  Ipv4.set b 0 (Ipv4.make ~proto:Ip_proto.Icmp ~src ~dst ()) ~payload_len:(n - Ipv4.header_size);
  Icmp.set b Ipv4.header_size msg data doff dlen;
  route_and_xmit dev ~depth ~in_iface:"" dst (Slice { buf = b; off = 0; len = n; ttl = -1 })

and icmp_input dev ~depth buf ip at n =
  match Icmp.get buf at n with
  | exception Icmp.Bad_header _ -> count dev icmp_bad
  | msg -> (
      (match dev.icmp_waiters with [] -> () | ws -> notify (Ipv4.get buf ip) msg ws);
      match msg with
      | Icmp.Echo_request { id; seq } ->
          icmp_send dev ~depth:(depth + 1) ~src:(Ipv4.dst buf ip) ~dst:(Ipv4.src buf ip)
            (Icmp.Echo_reply { id; seq }) buf (at + Icmp.header_size) (n - Icmp.header_size)
      | Icmp.Echo_reply _ | Icmp.Dest_unreachable _ | Icmp.Time_exceeded -> ())

and gre_input dev ~depth buf ip at n =
  match tunnel_in Gre_mode ~local:(Ipv4.dst buf ip) ~remote:(Ipv4.src buf ip) dev.ifaces with
  | exception Not_found -> count dev gre_no_tunnel_drop
  | iface, tun -> (
      match Gre.get buf at n with
      | exception Gre.Bad_header _ ->
          Counters.incr iface.if_counters rx_errors;
          count dev gre_bad_drop
      | g ->
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
            Counters.incr iface.if_counters rx_errors;
            count dev gre_check_drop
          end
          else if not (Ethertype.equal g.Gre.protocol Ethertype.Ipv4) then
            count dev gre_proto_drop
          else begin
            let hs = Gre.header_size g in
            Counters.incr iface.if_counters rx_packets;
            Counters.add iface.if_counters rx_bytes (n - hs);
            ip_input_bytes dev ~depth:(depth + 1) ~in_iface:iface.if_name buf (at + hs) (n - hs)
          end)

and esp_input dev ~depth buf ip at n =
  match tunnel_in Esp_mode ~local:(Ipv4.dst buf ip) ~remote:(Ipv4.src buf ip) dev.ifaces with
  | exception Not_found -> count dev esp_no_tunnel_drop
  | iface, tun -> (
      match (tun.t_ikey, tun.t_enc_in) with
      | Some spi, Some key -> (
          match Esp.decode ~key buf at n with
          | exception Esp.Bad_packet _ ->
              Counters.incr iface.if_counters rx_errors;
              count dev esp_auth_drop
          | esp, inner ->
              if not (Int32.equal esp.Esp.spi spi) then begin
                Counters.incr iface.if_counters rx_errors;
                count dev esp_spi_drop
              end
              else begin
                Counters.incr iface.if_counters rx_packets;
                Counters.add iface.if_counters rx_bytes (Bytes.length inner);
                ip_input_bytes dev ~depth:(depth + 1) ~in_iface:iface.if_name inner 0
                  (Bytes.length inner)
              end)
      | _ -> count dev esp_no_sa_drop)

and ipip_input dev ~depth buf ip at n =
  match tunnel_in Ipip_mode ~local:(Ipv4.dst buf ip) ~remote:(Ipv4.src buf ip) dev.ifaces with
  | exception Not_found -> count dev ipip_no_tunnel_drop
  | iface, _ ->
      Counters.incr iface.if_counters rx_packets;
      Counters.add iface.if_counters rx_bytes n;
      ip_input_bytes dev ~depth:(depth + 1) ~in_iface:iface.if_name buf at n

(* --- IP input --------------------------------------------------------- *)

(* The IPv4 packet in the [n] bytes at [off] of [buf]. *)
and ip_input_bytes dev ~depth ~in_iface buf off n =
  match Ipv4.check buf off (off + n) with
  | exception Ipv4.Bad_header _ -> count dev ip_bad_drop
  | len -> ip_input dev ~depth ~in_iface buf off len

and ip_input dev ~depth ~in_iface buf off len =
  let dst = Ipv4.dst buf off in
  if dev.ip_drops <> [] && filtered (Ipv4.src buf off) dst dev.ip_drops then
    count dev ip_filtered_drop
  else if is_local_addr dev dst then local_deliver dev ~depth buf off len
  else if not dev.ip_forward then count dev ip_not_forwarding_drop
  else
    let ttl = Ipv4.ttl buf off in
    if ttl <= 1 then begin
      count dev ttl_exceeded;
      (* Send time-exceeded back towards the source to support
         traceroute-style debugging by the NM. *)
      match local_addrs dev with
      | [] -> ()
      | src :: _ ->
          let at = off + Ipv4.header_size in
          icmp_send dev ~depth:(depth + 1) ~src ~dst:(Ipv4.src buf off) Icmp.Time_exceeded buf at
            (min 8 (len - Ipv4.header_size))
    end
    else begin
      count dev ip_forwarded;
      route_and_xmit dev ~depth ~in_iface dst (Slice { buf; off; len; ttl = ttl - 1 })
    end

(* --- MPLS input -------------------------------------------------------- *)

(* The labelled packet in the [n] bytes at [off] of [buf]. Swapping writes
   the new entries over what follows the top one, copied as it is. *)
let mpls_input dev ~in_iface buf off n =
  if not dev.mpls.mpls_enabled then count dev mpls_disabled_drop
  else
    match Mpls.stack_end buf off (off + n) with
    | exception Mpls.Bad_header _ -> count dev mpls_bad_drop
    | stop -> (
        let space = mpls_labelspace dev in_iface in
        if space < 0 then count dev mpls_no_labelspace_drop
        else
          match Hashtbl.find dev.mpls.ilm_table (Mpls.label buf off, space) with
          | exception Not_found -> count dev mpls_no_ilm_drop
          | { ilm_xc = None; _ } -> count dev mpls_no_xc_drop
          | { ilm_xc = Some key; _ } -> (
              match Hashtbl.find dev.mpls.nhlfe_table key with
              | exception Not_found -> count dev mpls_no_nhlfe_drop
              | nh ->
                  let ttl = Mpls.ttl buf off in
                  let bottom = Mpls.bottom buf off in
                  if ttl <= 1 then count dev mpls_ttl_drop
                  else if bottom && match nh.nh_push with [] -> true | _ :: _ -> false then
                    if nh.nh_dev = "local" then begin
                      (* Pop to the local IP stack ("deliver" instruction). *)
                      count dev mpls_delivered;
                      ip_input_bytes dev ~depth:0 ~in_iface:"mpls0" buf stop (off + n - stop)
                    end
                    else
                      (* Penultimate-style direct IP forward to the NHLFE
                         next hop, bypassing the IP routing table. *)
                      match iface dev nh.nh_dev with
                      | { if_kind = Phys port_index; _ } as iface ->
                          count dev mpls_switched;
                          xmit_on_phys dev ~port_index ~iface ~via:nh.nh_via Ethertype.Ipv4
                            (Slice { buf; off = stop; len = off + n - stop; ttl = -1 })
                      | _ | (exception Not_found) -> count dev mpls_bad_dev_drop
                  else begin
                    count dev mpls_switched;
                    let rest = off + Mpls.entry_size in
                    mpls_xmit dev ~depth:0 nh
                      (Labels
                         {
                           push = nh.nh_push;
                           ttl = ttl - 1;
                           bottom;
                           inner = Slice { buf; off = rest; len = off + n - rest; ttl = -1 };
                         })
                  end))

(* --- Ethernet switching (learning bridge with 802.1Q and QinQ) -------- *)

let default_vid = 1

let fdb_key vid mac = (vid lsl 48) lor Mac_addr.to_int mac

(* A frame's canonical form is the frame less its outer 802.1Q tag when
   [strip]: what the FDB and every egress port see. Ingress classification
   gives its VLAN, or -1 to drop. *)
let outer_vid frame = Vlan.vid frame Ethernet.header_size

let ingress_vid port frame ~tagged =
  match port.port_mode with
  | No_vlan -> if tagged then -1 (* plain switch ports drop tagged frames *) else default_vid
  | Access vid -> if (not tagged) || outer_vid frame = vid then vid else -1
  | Dot1q_tunnel vid ->
      (* QinQ: the whole customer frame, tags included, is payload. *)
      vid
  | Trunk { allowed; native } -> (
      if tagged then
        let v = outer_vid frame in
        if allowed = [] || List.mem v allowed then v else -1
      else match native with Some v -> v | None -> -1)

(* The canonical form of [frame], tagged with [vid] when [vid >= 0]: one
   buffer of its final size, or [frame] itself when that is unchanged. *)
let egress_bytes frame ~strip ~vid =
  if (not strip) && vid < 0 then frame
  else
    (* the canonical ethertype, then the payload *)
    let body = if strip then Ethernet.header_size + Vlan.size - 2 else Ethernet.header_size - 2 in
    let tag = if vid >= 0 then Vlan.size else 0 in
    let rest = Bytes.length frame - body in
    let b = Bytes.create (Ethernet.header_size - 2 + tag + rest) in
    Bytes.blit frame 0 b 0 (Ethernet.header_size - 2);
    if vid >= 0 then begin
      Bytes.set_uint16_be b (Ethernet.header_size - 2) (Ethertype.to_int Ethertype.Vlan);
      Vlan.set b Ethernet.header_size
        (Vlan.make ~vid (Ethertype.of_int (Bytes.get_uint16_be frame body)))
    end;
    Bytes.blit frame body b (Ethernet.header_size - 2 + tag) rest;
    b

(* Egress encapsulation for the canonical frame in [vid]; None drops. *)
let egress_frame dev port vid frame ~strip =
  match port.port_mode with
  | No_vlan -> if vid = default_vid then Some (egress_bytes frame ~strip ~vid:(-1)) else None
  | Access v | Dot1q_tunnel v -> if v = vid then Some (egress_bytes frame ~strip ~vid:(-1)) else None
  | Trunk { allowed; native } ->
      if not (allowed = [] || List.mem vid allowed) then None
      else if (match native with Some v -> v = vid | None -> false) && not dev.sw.tag_native
      then Some (egress_bytes frame ~strip ~vid:(-1))
      else
        let canonical = if strip then Bytes.length frame - Vlan.size else Bytes.length frame in
        let mtu = (Device.vlan_def dev vid).vd_mtu in
        if canonical - Ethernet.header_size > mtu then None
        else begin
          Counters.incr port.port_counters tagged_frames;
          Some (egress_bytes frame ~strip ~vid)
        end

let switch_forward dev ~in_port frame =
  let p = dev.ports.(in_port) in
  let strip =
    (match Ethernet.ethertype frame with Ethertype.Vlan | Ethertype.Qinq -> true | _ -> false)
    && match p.port_mode with Dot1q_tunnel _ -> false | _ -> true
  in
  let vid =
    if strip && Bytes.length frame < Ethernet.header_size + Vlan.size then -1
    else ingress_vid p frame ~tagged:strip
  in
  if vid < 0 then Counters.incr p.port_counters rx_vlan_drop
  else begin
    Hashtbl.replace dev.sw.fdb (fdb_key vid (Ethernet.src frame)) in_port;
    let send_to out_port =
      if out_port <> in_port && dev.ports.(out_port).port_up then
        match egress_frame dev dev.ports.(out_port) vid frame ~strip with
        | Some f -> transmit dev out_port f
        | None -> Counters.incr dev.ports.(out_port).port_counters tx_mtu_or_vlan_drop
    in
    let dst = Ethernet.dst frame in
    match
      if Mac_addr.is_broadcast dst || Mac_addr.is_multicast dst then None
      else Hashtbl.find_opt dev.sw.fdb (fdb_key vid dst)
    with
    | Some out_port -> send_to out_port
    | None -> Array.iter (fun port -> send_to port.port_index) dev.ports
  end

(* --- top-level receive -------------------------------------------------- *)

let count_iface dev name pkts byts n =
  match iface dev name with
  | i ->
      Counters.incr i.if_counters pkts;
      Counters.add i.if_counters byts n
  | exception Not_found -> ()

let eth_input dev ~in_port frame =
  let p = dev.ports.(in_port) in
  let len = Bytes.length frame in
  Counters.incr p.port_counters rx_frames;
  Counters.add p.port_counters rx_bytes len;
  if !Trace.enabled then Trace.emit ~device:dev.dev_name ~what:"rx" ~port:p.port_name frame;
  if len < Ethernet.header_size then Counters.incr p.port_counters rx_bad
  else
    let ethertype = Ethernet.ethertype frame in
    if Ethertype.equal ethertype Ethertype.Mgmt then
      (* Management frames go to the management agent on every device;
         they are never switched or routed (CONMan §II-A). *)
      match dev.mgmt_hook with Some f -> f ~in_port frame | None -> count dev mgmt_no_agent
    else if dev.sw.switching then switch_forward dev ~in_port frame
    else
      let dst = Ethernet.dst frame in
      if Mac_addr.equal dst p.port_mac || Mac_addr.is_broadcast dst then begin
        let in_iface = p.port_name in
        let n = len - Ethernet.header_size in
        match ethertype with
        | Ethertype.Arp -> arp_input dev ~port_index:in_port frame
        | Ethertype.Ipv4 ->
            count_iface dev in_iface rx_packets rx_bytes n;
            ip_input_bytes dev ~depth:0 ~in_iface frame Ethernet.header_size n
        | Ethertype.Mpls_unicast ->
            count_iface dev in_iface rx_mpls rx_mpls_bytes n;
            mpls_input dev ~in_iface frame Ethernet.header_size n
        | Ethertype.Vlan | Ethertype.Qinq | Ethertype.Mgmt | Ethertype.Other _ ->
            count dev eth_unknown_type
      end
      else Counters.incr p.port_counters rx_other_dst

let activate dev =
  dev.rx_dispatch <-
    (fun in_port frame -> if dev.dev_up then eth_input dev ~in_port frame)

(* --- local send helpers -------------------------------------------------- *)

let ip_send dev hdr payload =
  let b = Ipv4.encode hdr payload in
  route_and_xmit dev ~depth:0 ~in_iface:"" hdr.Ipv4.dst
    (Slice { buf = b; off = 0; len = Bytes.length b; ttl = -1 })

let udp_send dev ~src ~dst ~src_port ~dst_port data =
  let payload = Udp.encode ~src ~dst { Udp.src_port; dst_port } data in
  ip_send dev (Ipv4.make ~proto:Ip_proto.Udp ~src ~dst ()) payload

let icmp_echo dev ~src ~dst ~id ~seq data =
  icmp_send dev ~depth:0 ~src ~dst (Icmp.Echo_request { id; seq }) data 0 (Bytes.length data)
