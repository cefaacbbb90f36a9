(** ICMP-echo reachability testing — the ground truth every configuration
    experiment is verified against. *)

val reachable :
  ?payload:bytes ->
  Net.t ->
  from:Device.t ->
  src:Packet.Ipv4_addr.t ->
  dst:Packet.Ipv4_addr.t ->
  unit ->
  bool
(** Sends one echo request from [from], runs the network to quiescence
    and reports whether the matching reply came back. *)
