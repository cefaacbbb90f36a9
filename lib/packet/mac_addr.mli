(** 48-bit Ethernet MAC addresses. *)

type t

val broadcast : t
val of_int : int -> t
val to_int : t -> int

val make : device:int -> port:int -> t
(** A locally-administered unicast address unique per (device, port). *)

val is_broadcast : t -> bool
val is_multicast : t -> bool
val equal : t -> t -> bool
val to_string : t -> string
val of_string : string -> t
val pp : t Fmt.t

val set : bytes -> int -> t -> unit
(** [set buf off t] writes the six bytes of [t] at [off]. *)

val get : bytes -> int -> t
(** The address in the six bytes at [off]. *)
