(** 802.1Q VLAN tags, read and written at an offset in a buffer. *)

type t = { pcp : int; dei : bool; vid : int; inner : Ethertype.t }

val make : ?pcp:int -> ?dei:bool -> vid:int -> Ethertype.t -> t
val size : int
val set : bytes -> int -> t -> unit

val vid : bytes -> int -> int
(** The VLAN id of the tag at an offset. *)

val get : bytes -> int -> t
val equal : t -> t -> bool
val pp : t Fmt.t
