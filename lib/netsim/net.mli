(** A network: an event queue plus devices and link segments, with helpers
    to wire topologies and run the simulation to quiescence. *)

type edge = {
  edge_name : string;
  segment : Link.segment;
  attachments : (Device.t * int) list; (** (device, port index) *)
}

type t

val create : unit -> t
val eq : t -> Event_queue.t

val add_device : ?switching:bool -> t -> id:string -> name:string -> Device.t
(** Creates a device with its forwarding pipeline installed. [switching]
    makes it a layer-2 switch. *)

val devices : t -> Device.t list
val device_by_id : t -> string -> Device.t option

val lan :
  ?latency_ns:int64 -> ?mtu:int -> ?name:string -> t -> (Device.t * int) list -> Link.segment
(** A broadcast segment with the given attachments. *)

val connect :
  ?latency_ns:int64 ->
  ?mtu:int ->
  ?name:string ->
  t ->
  Device.t * int ->
  Device.t * int ->
  Link.segment
(** A point-to-point cable. *)

val edges : t -> edge list
val find_segment : t -> string -> Link.segment option
val find_segment_exn : t -> string -> Link.segment

val neighbours : t -> Device.t -> int -> (Device.t * int) list
(** Physical neighbours of a device port — what each management agent
    reports to the NM as its connectivity. *)

val run : ?max_events:int -> t -> int
(** Processes events until quiescence; returns the number processed. *)

val run_until : ?max_events:int -> t -> deadline:int64 -> int
(** Processes events up to [deadline] (inclusive) and advances the clock
    there, leaving later events (scheduled faults, future probes) pending. *)
