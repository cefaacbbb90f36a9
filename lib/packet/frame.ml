(* Best-effort decoding of a whole frame into its header stack. Used by the
   packet tracer and tests; the forwarding engines parse incrementally and
   do not depend on this. *)

type header =
  | Eth of Ethernet.t
  | Vlan_tag of Vlan.t
  | Ip of Ipv4.t
  | Gre_hdr of Gre.t
  | Mpls_stack of Mpls.t
  | Udp_hdr of Udp.t
  | Icmp_msg of Icmp.t
  | Arp of Arp_pkt.t
  | Payload of bytes
  | Opaque of string * bytes

let rec decode_ethertype et (buf : bytes) : header list =
  match et with
  | Ethertype.Ipv4 -> decode_ip buf
  | Ethertype.Arp -> ( try [ Arp (Arp_pkt.get buf 0) ] with _ -> [ Opaque ("arp?", buf) ])
  | Ethertype.Vlan | Ethertype.Qinq -> (
      try
        let tag = Vlan.get buf 0 in
        Vlan_tag tag
        :: decode_ethertype tag.Vlan.inner (Bytes.sub buf Vlan.size (Bytes.length buf - Vlan.size))
      with _ -> [ Opaque ("vlan?", buf) ])
  | Ethertype.Mpls_unicast -> (
      try
        let stack, rest = Mpls.decode buf in
        (* The payload under MPLS is not self-describing; assume IPv4 as the
           simulator only labels IP packets. *)
        Mpls_stack stack :: decode_ip rest
      with _ -> [ Opaque ("mpls?", buf) ])
  | Ethertype.Mgmt -> [ Opaque ("mgmt", buf) ]
  | Ethertype.Other _ -> [ Payload buf ]

and decode_ip buf : header list =
  try
    let hdr, payload = Ipv4.decode buf in
    let inner =
      match hdr.Ipv4.proto with
      | Ip_proto.Ipip -> decode_ip payload
      | Ip_proto.Gre -> (
          try
            let g, rest = Gre.decode payload in
            Gre_hdr g :: decode_ethertype g.Gre.protocol rest
          with _ -> [ Opaque ("gre?", payload) ])
      | Ip_proto.Udp -> (
          try
            let u, rest =
              Udp.decode ~src:hdr.Ipv4.src ~dst:hdr.Ipv4.dst payload 0 (Bytes.length payload)
            in
            [ Udp_hdr u; Payload rest ]
          with _ -> [ Opaque ("udp?", payload) ])
      | Ip_proto.Icmp -> (
          try
            let i, rest = Icmp.decode payload in
            [ Icmp_msg i; Payload rest ]
          with _ -> [ Opaque ("icmp?", payload) ])
      | Ip_proto.Esp ->
          (* encrypted: nothing below the SPI is visible without the key *)
          [ Opaque ("esp", payload) ]
      | Ip_proto.Other _ -> [ Payload payload ]
    in
    Ip hdr :: inner
  with _ -> [ Opaque ("ip?", buf) ]

let decode buf : header list =
  try
    let eth = Ethernet.get buf in
    Eth eth
    :: decode_ethertype eth.Ethernet.ethertype
         (Bytes.sub buf Ethernet.header_size (Bytes.length buf - Ethernet.header_size))
  with _ -> [ Opaque ("eth?", buf) ]
let pp_header ppf = function
  | Eth e -> Ethernet.pp ppf e
  | Vlan_tag v -> Vlan.pp ppf v
  | Ip i -> Ipv4.pp ppf i
  | Gre_hdr g -> Gre.pp ppf g
  | Mpls_stack m -> Mpls.pp ppf m
  | Udp_hdr u -> Udp.pp ppf u
  | Icmp_msg i -> Icmp.pp ppf i
  | Arp a -> Arp_pkt.pp ppf a
  | Payload b -> Fmt.pf ppf "payload(%d)" (Bytes.length b)
  | Opaque (what, b) -> Fmt.pf ppf "%s(%d)" what (Bytes.length b)

let pp ppf headers = Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any " | ") pp_header) headers

(* A compact protocol signature, e.g. "eth.ip.gre.ip.icmp". *)
let signature buf =
  decode buf
  |> List.filter_map (function
       | Eth _ -> Some "eth"
       | Vlan_tag _ -> Some "vlan"
       | Ip _ -> Some "ip"
       | Gre_hdr _ -> Some "gre"
       | Mpls_stack _ -> Some "mpls"
       | Udp_hdr _ -> Some "udp"
       | Icmp_msg _ -> Some "icmp"
       | Arp _ -> Some "arp"
       | Payload _ -> None
       | Opaque (w, _) -> Some w)
  |> String.concat "."
