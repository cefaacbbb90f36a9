(** The forwarding pipeline: Ethernet (host and switch with VLAN/QinQ),
    ARP, IPv4 with policy routing, GRE/IP-IP/ESP tunnelling, MPLS label
    switching and local UDP/ICMP delivery.

    A received frame is read in place and never written: a LAN segment
    hands the same buffer to every endpoint. Each frame a device sends is
    one buffer of exactly its size. *)

val activate : Device.t -> unit
(** Installs the pipeline as the device's receive dispatch; call it once
    per device. *)

val transmit : Device.t -> int -> bytes -> unit
(** [transmit dev port frame] sends a whole frame out of a physical port
    as it is. *)

val ip_send : Device.t -> Packet.Ipv4.t -> bytes -> unit
(** Routes a packet the device originates. *)

val udp_send :
  Device.t ->
  src:Packet.Ipv4_addr.t ->
  dst:Packet.Ipv4_addr.t ->
  src_port:int ->
  dst_port:int ->
  bytes ->
  unit

val icmp_echo :
  Device.t -> src:Packet.Ipv4_addr.t -> dst:Packet.Ipv4_addr.t -> id:int -> seq:int -> bytes -> unit
