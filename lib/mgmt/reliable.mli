(** At-least-once delivery with duplicate suppression over any management
    channel.

    Unicasts are sequence-numbered, acknowledged by the receiving endpoint
    and retransmitted with exponential backoff until acked or until
    [max_retries] is exhausted, at which point give-up listeners are
    notified (the NM uses this to mark a device unreachable). Retransmitted
    or {!Faults}-duplicated frames are suppressed at the receiver and
    re-acked, so the layer above sees each payload at most once per send.

    Delivery is in-order per (sender, receiver): a frame arriving ahead of
    an undelivered predecessor is held until the gap fills, so e.g. a
    deletion and a later create to the same device cannot swap under
    channel jitter. A hole that makes no progress for [gap_timeout_ns]
    (a frame whose sender gave up) is skipped so delivery never deadlocks;
    a skipped frame arriving later is still delivered, out of order.

    Broadcasts are passed through unreliably — there is no single acker. *)

type config = {
  timeout_ns : int64;  (** first retransmission timeout (virtual time) *)
  backoff : float;  (** timeout multiplier applied per retry *)
  max_retries : int;  (** retransmissions before giving up *)
  gap_timeout_ns : int64;
      (** how long a sequence hole may stall in-order delivery before the
          receiver skips past it *)
  max_pending_per_dst : int;
      (** in-flight unicasts tolerated per destination before the oldest
          telemetry payload owed to it is shed (see {!create}); bounds the
          retry wheel under a partitioned peer *)
}

val default_config : config
(** 1 ms virtual-time timeout, backoff ×2, 12 retries, 50 ms gap timeout,
    64 in-flight frames per destination. *)

type counters = {
  mutable data_sent : int;  (** distinct payloads sent (first copies) *)
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable acks_received : int;
  mutable duplicates : int;  (** data frames suppressed at a receiver *)
  mutable gave_up : int;  (** sends abandoned after [max_retries] *)
  mutable broadcasts : int;  (** unreliable pass-through broadcasts *)
  mutable held_back : int;  (** frames buffered awaiting a predecessor *)
  mutable gap_skips : int;  (** sequence holes skipped after the gap timeout *)
  mutable pending_high_water : int;
      (** worst per-destination in-flight depth ever observed *)
  mutable pending_shed : int;
      (** telemetry payloads abandoned at [max_pending_per_dst] *)
}

type t

val create : ?config:config -> eq:Netsim.Event_queue.t -> Channel.t -> Channel.t * t
(** [create ~eq chan] wraps [chan] (typically the output of {!Faults.wrap})
    and returns the reliable channel plus the control handle. The returned
    channel shares [chan]'s frame stats.

    Each pending frame keeps the class its sender stated (see
    {!Channel.send}), and its retries ship with that class. Sends past
    [max_pending_per_dst] in-flight frames to one destination abandon the
    oldest class-3 (telemetry) payload owed to it — its retries stop, and
    the receiver's gap-skip machinery rides over the hole if the first
    copy was lost. Frames of any other class are never shed; the cap then
    only records [pending_high_water]. Acks state class 1.

    Acks travel back over the same channel and are consumed by the
    sender's subscription, so an endpoint must be subscribed (even with a
    no-op handler) for its outgoing unicasts to ever be confirmed — true
    of the NM and every agent, which subscribe at creation. *)

val cancel : t -> src:string -> dst:string -> bytes -> int
(** [cancel t ~src ~dst payload] recalls every unacked unicast from [src]
    to [dst] carrying exactly [payload]: the pending frame is voided in
    place (its payload emptied, its sequence number kept), so retries
    continue but deliver nothing and later frames are not stalled behind a
    sequence hole. Returns how many sends were recalled. A copy already in
    flight may still be delivered. *)

val on_give_up : t -> (src:string -> dst:string -> unit) -> unit
(** Registers a listener invoked whenever a unicast from [src] to [dst] is
    abandoned after exhausting its retries. *)

val set_observer : t -> (bytes -> string -> unit) -> unit
(** Taps per-frame fate for tracing: the observer receives the payload and
    one of ["retried"], ["gave-up"], ["dedup"] (suppressed duplicate at a
    receiver) or ["transport-shed"] (abandoned at the per-destination
    cap). The layer stays payload-agnostic — the caller decodes the
    payload to attribute the event (see [Obs] wiring in lib/core).
    Observer exceptions are swallowed. *)

val counters : t -> counters

val in_flight : t -> int
(** Number of unacked unicasts currently being retried. *)

type frame_view = { seq : int; cls : int; payload : bytes }
(** An unacked unicast: its sequence number, its stated class and its
    payload (empty once {!cancel} voided it). *)

val links : t -> (string * string * int * frame_view list) list
(** [(src, dst, count, frames)] for every directed link the layer has
    carried a unicast on: [count] is the in-flight depth the pending cap
    reads, [frames] the link's unacked unicasts, oldest first. {!in_flight}
    is the sum of the counts. Exposes the bookkeeping to tests. *)

val obs_counters : t -> (string * int) list
(** The counters in registry-source form (e.g. [("retransmits", n)]) for
    [Obs.Registry.register]. *)
