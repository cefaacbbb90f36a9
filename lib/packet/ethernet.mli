(** Ethernet II framing. A frame's header is at offset 0 of its buffer. *)

type t = { dst : Mac_addr.t; src : Mac_addr.t; ethertype : Ethertype.t }

val header_size : int

(** {1 Fields of a frame's header} *)

val dst : bytes -> Mac_addr.t
val src : bytes -> Mac_addr.t
val ethertype : bytes -> Ethertype.t

val set : bytes -> dst:Mac_addr.t -> src:Mac_addr.t -> Ethertype.t -> unit
(** Writes the header into the first {!header_size} bytes. *)

val get : bytes -> t
(** The header; raises [Invalid_argument] on a buffer shorter than it. *)

(** {1 Whole frames} *)

val frame : dst:Mac_addr.t -> src:Mac_addr.t -> Ethertype.t -> bytes -> int -> int -> bytes
(** [frame ~dst ~src ethertype payload off len] is a frame of exactly
    [header_size + len] bytes carrying [len] bytes of [payload] from [off]. *)

val encode : t -> bytes -> bytes
val equal : t -> t -> bool
val pp : t Fmt.t
