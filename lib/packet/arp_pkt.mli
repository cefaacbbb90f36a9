(** ARP for IPv4 over Ethernet. *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac_addr.t;
  sender_ip : Ipv4_addr.t;
  target_mac : Mac_addr.t;
  target_ip : Ipv4_addr.t;
}

exception Bad_header of string

val size : int

val set : bytes -> int -> t -> unit
(** Writes the {!size}-byte packet at an offset. *)

val get : bytes -> int -> t
(** The packet at an offset; raises {!Bad_header} on malformed input. *)

val encode : t -> bytes
val equal : t -> t -> bool
val pp : t Fmt.t
