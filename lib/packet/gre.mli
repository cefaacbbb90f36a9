(** GRE headers (RFC 2784 + RFC 2890 key/sequence extensions). *)

type t = {
  key : int32 option;
  seq : int32 option;
  with_csum : bool;
  protocol : Ethertype.t;
}

exception Bad_header of string

val make : ?key:int32 -> ?seq:int32 -> ?with_csum:bool -> Ethertype.t -> t
val header_size : t -> int

val set : bytes -> int -> t -> payload_len:int -> unit
(** Writes the header at an offset. With a checksum, the [payload_len]
    bytes of payload must already follow it: the checksum covers them. *)

val get : bytes -> int -> int -> t
(** [get buf off len] verifies and parses the header of the [len]-byte
    packet at [off]; raises {!Bad_header} on malformed input. *)

val encode : t -> bytes -> bytes
val decode : bytes -> t * bytes
val equal : t -> t -> bool
val pp : t Fmt.t
