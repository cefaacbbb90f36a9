(** Management-channel frames, carried directly in Ethernet frames with a
    dedicated ethertype (§III-A: raw frames, no pre-configuration). *)

type t = {
  src_device : string;
  dst_device : string; (** {!broadcast} floods to every agent *)
  seq : int; (** per-source sequence number, for flood suppression *)
  payload : bytes;
}

exception Bad_frame of string

val broadcast : string
val encode : t -> bytes

val decode : bytes -> int -> t
(** [decode buf off] decodes the frame starting at [off]; raises
    {!Bad_frame} on any malformed input. *)

val equal : t -> t -> bool
