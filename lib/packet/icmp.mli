(** ICMP echo request/reply and the error messages the simulator emits. *)

type t =
  | Echo_request of { id : int; seq : int }
  | Echo_reply of { id : int; seq : int }
  | Dest_unreachable of { code : int }
  | Time_exceeded

exception Bad_header of string

val header_size : int

val set : bytes -> int -> t -> bytes -> int -> int -> unit
(** [set buf off t data doff len] writes message [t] carrying [len] bytes
    of [data] from [doff] at [off], checksummed. *)

val get : bytes -> int -> int -> t
(** [get buf off len] verifies the [len]-byte message at [off] and returns
    it; raises {!Bad_header} on malformed input. *)

val encode : t -> bytes -> bytes
val decode : bytes -> t * bytes
val equal : t -> t -> bool
val pp : t Fmt.t
