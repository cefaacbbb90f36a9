(** IPv4 headers (no options, no fragmentation), read and written at an
    offset in a buffer. *)

type t = {
  tos : int;
  id : int;
  dont_fragment : bool;
  ttl : int;
  proto : Ip_proto.t;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
}

exception Bad_header of string

val header_size : int

val make :
  ?tos:int ->
  ?id:int ->
  ?dont_fragment:bool ->
  ?ttl:int ->
  proto:Ip_proto.t ->
  src:Ipv4_addr.t ->
  dst:Ipv4_addr.t ->
  unit ->
  t

(** {1 A header at an offset} *)

val check : bytes -> int -> int -> int
(** [check buf off limit] verifies the header at [off] of a packet that
    may extend to [limit] and returns its total length; raises
    {!Bad_header} on malformed input. *)

val ttl : bytes -> int -> int
val proto : bytes -> int -> Ip_proto.t
val src : bytes -> int -> Ipv4_addr.t
val dst : bytes -> int -> Ipv4_addr.t

val get : bytes -> int -> t
(** The header at an offset, unchecked. *)

val set : bytes -> int -> t -> payload_len:int -> unit
(** Writes a checksummed header for a payload of [payload_len] bytes. *)

val set_ttl : bytes -> int -> int -> unit
(** Rewrites the TTL of the header at an offset and its checksum. *)

(** {1 Whole packets} *)

val encode : t -> bytes -> bytes
(** [encode t payload] builds a checksummed packet of exactly its size. *)

val decode : bytes -> t * bytes
(** Parses and verifies a packet; raises {!Bad_header} on malformed input. *)

val equal : t -> t -> bool
val pp : t Fmt.t
