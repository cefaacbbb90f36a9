(** A global packet/event tracer, disabled by default. Tests and the NM
    debugger enable it to observe the data plane; rx/tx events record the
    frame's protocol signature (e.g. ["eth.ip.gre.ip.icmp"]). *)

type event = { seq : int; device : string; what : string; port : string; detail : string }

val enabled : bool ref
val clear : unit -> unit

val set_limit : int -> unit
(** Caps the in-memory buffer (default 100_000 events). Once full, the
    oldest events are dropped and counted in {!dropped}. *)

val get_limit : unit -> int

val dropped : unit -> int
(** Events discarded (oldest first) since the last {!clear}. *)

val emit : device:string -> what:string -> ?port:string -> bytes -> unit
val with_trace : (unit -> 'a) -> 'a
(** Runs the thunk with tracing on (cleared first), restoring the flag. *)

val get : unit -> event list
