(** IPv4 CIDR prefixes. *)

type t

val make : Ipv4_addr.t -> int -> t
(** [make addr len] normalises [addr] to its network address. *)

val len : t -> int
val of_string : string -> t
val to_string : t -> string
val mem : Ipv4_addr.t -> t -> bool
val subset : sub:t -> super:t -> bool
val equal : t -> t -> bool
val pp : t Fmt.t

val nth_host : t -> int -> Ipv4_addr.t
(** [nth_host t i] is the [i]-th usable host address in [t]. *)
