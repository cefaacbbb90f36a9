(** Physical links: broadcast segments with attachable endpoints and
    first-class fault injection (seeded random loss and corruption,
    scheduled cut/restore flapping, per-cause drop counters). *)

type endpoint
type segment

val create_segment : ?latency_ns:int64 -> ?mtu:int -> Event_queue.t -> segment
val attach : segment -> endpoint

val detach : endpoint -> unit
(** Removes the endpoint from its segment; frames are no longer delivered
    to it. Endpoint ids are assigned monotonically, so attach after detach
    never reuses an id. *)

val endpoint_id : endpoint -> int
val set_rx : endpoint -> (bytes -> unit) -> unit
val send : endpoint -> bytes -> unit

(** {1 Fault injection} *)

val cut : segment -> unit
(** Cuts the segment (idempotent); counts one flap per down transition. *)

val restore : segment -> unit
val is_cut : segment -> bool

val schedule_cut : segment -> delay_ns:int64 -> unit
val schedule_restore : segment -> delay_ns:int64 -> unit

val flap : ?cycles:int -> segment -> first_down_ns:int64 -> down_ns:int64 -> up_ns:int64 -> unit
(** Schedules [cycles] cut/restore pairs on the event queue: down at
    [first_down_ns] from now for [down_ns], up for [up_ns], repeating. *)

val set_seed : segment -> int64 -> unit
(** Reseeds the segment's PRNG (defaults to the link id), making loss and
    corruption patterns reproducible per segment. *)

val set_loss : segment -> float -> unit
(** Probability in [0,1] that a frame delivery is silently lost. *)

val set_corrupt : segment -> float -> unit
(** Probability in [0,1] that a delivery is corrupted in flight; modelled
    as the receiver's CRC check dropping the frame. *)

val clear_faults : segment -> unit
(** Restores the segment and zeroes the loss/corruption probabilities.
    Already-scheduled cut/restore events still fire; callers forcing
    quiescence should clear faults after the last scheduled event. *)

(** {1 Statistics} *)

val dropped : segment -> int
(** Total drops, all causes. *)

val drop_count : segment -> string -> int
(** Drops for one cause: ["cut"], ["mtu"], ["loss"] or ["corrupt"]. *)

val drop_stats : segment -> Counters.t
(** The underlying per-cause counters ([drop_cut], [drop_mtu], ...). *)

val flaps : segment -> int
(** Number of up->down transitions this segment has seen. *)
