(** UDP headers with pseudo-header checksums. *)

type t = { src_port : int; dst_port : int }

exception Bad_header of string

val encode : src:Ipv4_addr.t -> dst:Ipv4_addr.t -> t -> bytes -> bytes

val decode : src:Ipv4_addr.t -> dst:Ipv4_addr.t -> bytes -> int -> int -> t * bytes
(** [decode ~src ~dst buf off len] verifies the [len]-byte datagram at
    [off] and returns its header and a copy of its data. *)

val pp : t Fmt.t
