(** MPLS label stacks (RFC 3032). *)

type entry = { label : int; tc : int; ttl : int }
type t = entry list

exception Bad_header of string

val entry : ?tc:int -> ?ttl:int -> int -> entry
val entry_size : int

(** {1 An entry at an offset} *)

val label : bytes -> int -> int
val ttl : bytes -> int -> int
val bottom : bytes -> int -> bool
val set : bytes -> int -> label:int -> tc:int -> ttl:int -> bottom:bool -> unit

val stack_end : bytes -> int -> int -> int
(** [stack_end buf off limit] is the offset just past the bottom entry of
    the stack starting at [off]; raises {!Bad_header} if the stack runs
    past [limit]. *)

(** {1 Whole packets} *)

val encode : t -> bytes -> bytes
val decode : bytes -> t * bytes
val equal : t -> t -> bool
val pp : t Fmt.t
