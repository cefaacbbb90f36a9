(** IPv4 addresses. *)

type t

val of_int32 : int32 -> t
val to_int32 : t -> int32
val octet : t -> int -> int
val of_string : string -> t
val to_string : t -> string
val any : t
val localhost : t
val equal : t -> t -> bool
val pp : t Fmt.t

val set : bytes -> int -> t -> unit
(** [set buf off t] writes the four bytes of [t] at [off]. *)

val get : bytes -> int -> t
(** The address in the four bytes at [off]. *)
