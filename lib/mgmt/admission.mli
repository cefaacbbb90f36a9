(** Overload protection for the management plane: per-class admission,
    per-peer token buckets, bounded queues and lowest-priority-first
    shedding.

    Interposes on a management channel the same way {!Faults} and
    {!Reliable} do, sitting {e above} {!Reliable} so that only fresh
    application payloads are admitted — acks and retransmissions of
    already-admitted frames pass underneath.

    Each frame's class is the [cls] its sender states (see
    {!Channel.send}): 0 = P0 heartbeats/takeovers, 1 = P1
    scripts/back-outs/replication, 2 = P2 probes/showState, 3 = P3
    telemetry showPerf. This layer never parses a payload; a class below
    0 or above 3 counts as the nearest end.

    Policy: P0 (liveness) and P1 (mutations) are unsheddable and
    unthrottled. P2 (interrogation) and P3 (telemetry) draw from a
    per-sending-peer token bucket; over-budget frames wait in bounded
    per-class FIFOs drained P2-before-P3 as tokens refill, the shared
    backlog sheds the strictly lowest-priority frame (oldest first) at the
    cap, and queued P3 frames expire after a deadline — a stale perf
    scrape is worthless by the next monitor tick. All timing uses the
    event queue's virtual clock, so runs are deterministic. *)

type config = {
  bucket_capacity : int;  (** per-peer burst budget, frames *)
  refill_per_s : int;  (** per-peer sustained budget, frames per virtual second *)
  queue_capacity : int;  (** shared bound on the queued P2+P3 backlog *)
  p3_deadline_ns : int64;  (** queued P3 frames older than this expire *)
  drain_period_ns : int64;  (** backstop drainer period while frames wait *)
}

type class_counters = {
  mutable admitted : int;  (** frames handed to the layer below *)
  mutable deferred : int;  (** frames that had to wait for tokens *)
  mutable shed : int;  (** frames dropped at the queue cap *)
  mutable expired : int;  (** P3 frames dropped on deadline *)
  mutable queue_high_water : int;
}

type t

val wrap : ?config:config -> eq:Netsim.Event_queue.t -> Channel.t -> Channel.t * t
(** [wrap ~eq chan] returns the admission-controlled channel plus the
    control handle. Each send is admitted, queued or shed by the class it
    states, and an admitted frame reaches [chan] with that class
    unchanged. Subscription passes through untouched. The returned channel
    shares [chan]'s frame stats. *)

val counters : t -> class_counters array
(** Indexed by class (0 = P0 … 3 = P3); length 4. *)

val reset_counters : t -> unit

val lost_total : t -> int
(** Frames lost to queue-cap shedding {e or} deadline expiry across P2+P3
    — the load-feedback signal telemetry pollers watch to back off their
    scrape period. The two fates stay separately counted ([shed] vs
    [expired] in {!class_counters}, [pN_shed] vs [pN_expired] in
    {!obs_counters}); this is their explicit union, not another "shed". *)

val set_observer : t -> (bytes -> string -> unit) -> unit
(** Taps per-frame fate for tracing: the observer receives the payload and
    one of ["deferred"], ["shed"] or ["expired"]. Observer exceptions are
    swallowed; the layer stays payload-agnostic. *)

val obs_counters : t -> (string * int) list
(** Every class counter in registry-source form under unambiguous keys
    ([p2_admitted], [p3_shed], [p3_expired], ...) plus [lost_total], for
    [Obs.Registry.register]. *)

val queue_depth : t -> int
(** Frames currently waiting for tokens. *)
