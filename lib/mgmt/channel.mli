(** The management channel: device-to-NM communication that must work
    before, and independently of, any data-plane configuration (§III-A).

    Two implementations, as in the paper: {!Oob} models the authors'
    separate management NICs (direct delivery, fixed latency); {!Raw} is
    the 4D-style straw man — raw-Ethernet flooding with per-source
    sequence-number suppression, needing zero configuration.

    Both are best-effort: frames can be lost (see {!Faults}) and nothing is
    acknowledged at this layer. {!Reliable} adds at-least-once delivery
    with duplicate suppression on top of any channel. *)

type handler = src:string -> bytes -> unit

type stats = {
  mutable frames_sent : int;
  mutable bytes_sent : int;
      (** the payload bytes of every frame sent: what a management link
          carries above the channel's own framing *)
  mutable frames_delivered : int;
  mutable frames_dropped : int;
      (** frames discarded at the channel itself, e.g. a {!Raw} send from a
          device that is not attached (crashed / removed mid-flight) *)
  mutable seen_high_water : int;
      (** largest per-source suppression window ever held by a {!Raw}
          agent — bounded by the [window] passed to {!Raw.create} *)
}

type t
(** A channel endpoint: subscribe per device id, send to a device id or
    {!Frame.broadcast}. *)

val send : t -> cls:int -> src:string -> dst:string -> bytes -> unit
(** [send t ~cls ~src ~dst payload] ships [payload] from [src] to [dst].
    [cls] is the frame's admission class, 0–3, stated by the sender from
    the message it encoded (the NM and the agents pass
    [Wire.priority_of msg]). It travels beside the bytes so that no layer
    parses a payload to classify it: {!Admission} admits or sheds by it,
    {!Reliable} keeps it with each pending frame, and {!Faults}, {!Oob} and
    {!Raw} pass it on or ignore it. Receivers see only the bytes. *)

val subscribe : t -> device_id:string -> handler -> unit
val stats : t -> stats

val make :
  send:(cls:int -> src:string -> dst:string -> bytes -> unit) ->
  subscribe:(string -> handler -> unit) ->
  stats:stats ->
  t
(** Builds a channel from raw callbacks — the hook used by wrapping layers
    ({!Faults}, {!Reliable}, {!Admission}) to interpose on an existing
    channel. [send] receives each frame's class as {!send} does. *)

module Oob : sig
  val create : ?latency_ns:int64 -> Netsim.Event_queue.t -> t
end

module Raw : sig
  val create : ?window:int -> unit -> t * (Netsim.Device.t -> unit)
  (** [create ()] returns the channel and an [attach] function that turns a
      device into a flooding management agent (it claims the device's
      management-ethertype hook). Every participating device — including
      the NM's station — must be attached before use.

      Broadcast semantics: a broadcast ([dst = Frame.broadcast]) is flooded
      to every other attached device but is {e never} self-delivered to the
      sending device. A unicast to the sender's own id is delivered locally
      without touching the wire.

      [window] bounds the per-source flood-suppression state: each agent
      remembers at most [window] recent sequence numbers per source
      (default 512); anything older than [hi - window] is
      treated as already seen. Sending from a device that is not attached
      drops the frame and increments [frames_dropped] rather than raising. *)
end
