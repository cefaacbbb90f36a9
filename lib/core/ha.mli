(** NM high availability: heartbeat failure detection, epoch-fenced
    leadership and automatic failover (§V, made automatic).

    A {!pair} of NM stations share the management channel. The primary
    heartbeats to the standby every {!tick} and continuously ships its
    write-ahead intent journal and in-flight request deltas; the standby
    runs a phi/timeout-style failure detector over heartbeat arrivals and
    promotes itself when suspicion crosses the threshold — bumping the
    leadership epoch, announcing the takeover and replaying only the
    requests the primary died without seeing confirmed.

    Every frame a fenced NM sends carries its epoch ({!Wire.Fenced});
    agents reject lower epochs, so a deposed or partitioned old primary
    fences itself out instead of issuing conflicting configuration.
    Promotion always picks an epoch strictly above anything the promoting
    node observed, so two acting primaries can never share an epoch.

    On demotion a deposed primary surrenders its unconfirmed requests to
    the new leader (in-flight deltas are accepted whatever epoch the
    sender believed in): agents silently fence its frames after the
    transport-level ack, so without the hand-off any back-out deletion it
    issued after losing leadership would be stranded, leaking datapath
    state.

    The journal ships by sequence number ({!Intent.length},
    {!Intent.since}): the standby appends entry [k+1] only when its journal
    length is [k] and cumulatively acks its length; the primary re-ships
    at most [ship_batch] unacked entries per tick. The ack is the primary's
    compaction floor ({!Intent.set_floor}), so it keeps every entry its
    standby has not acknowledged, however long the standby is down. *)

type role = Primary | Standby

type config = {
  heartbeat_period_ns : int64;
      (** nominal heartbeat spacing in simulated time: the driver should
          call {!tick} about this often. The detector itself counts ticks
          (heartbeat opportunities), not raw simulated time, so a harness
          that fast-forwards the clock between ticks cannot fake a death. *)
  phi_threshold : float;
      (** promote when the heartbeat gap / mean interval (both in ticks)
          crosses this *)
  window : int;  (** heartbeat intervals kept for the mean *)
  ship_batch : int;  (** unacked journal entries re-shipped per tick *)
  replay_horizon_ns : int64 option;
      (** when set, promotion bounds its takeover replay at now + horizon
          so scheduled faults are not fast-forwarded through *)
}

val default_config : config
(** 500 ms heartbeats, phi 3.0, window 8, batch 16, unbounded replay. *)

type t

val create : ?config:config -> role:role -> peer:string -> Nm.t -> t
(** Wraps one NM as an HA node talking to the station [peer]. Installs the
    HA receive hook, the journal-append sink, the journal's compaction
    floor (this node's acknowledged cursor) and the in-flight delta hooks
    on the NM. Prefer {!pair} for a correctly bootstrapped pair. *)

val pair : ?config:config -> primary:Nm.t -> standby:Nm.t -> unit -> t * t
(** Wires a primary/standby pair: bootstraps the standby via
    {!Nm.replicate_to}, marks the shipped journal prefix acked and fences
    the primary at epoch 1. *)

val tick : t -> tick:int -> unit
(** One HA tick at the heartbeat period: the primary heartbeats and
    re-ships its unacked journal tail; the standby accrues suspicion and
    promotes past the threshold. [tick] is recorded on promotion for
    detection-latency accounting. *)

val set_alive : t -> bool -> unit
(** Fault-injection switch: a dead node neither ticks nor reacts to HA
    traffic. Revival grants a fresh detection grace period. *)

val role : t -> role
val epoch : t -> int
(** The highest leadership epoch this node knows of. *)

val is_alive : t -> bool
val nm : t -> Nm.t

(** {2 Observation} *)

val promotions : t -> int
val demotions : t -> int
val heartbeats_seen : t -> int

val entries_applied : t -> int

val replayed : t -> int
(** Requests replayed across all of this node's promotions. *)

val promotion_ticks : t -> int list
(** Tick numbers at which this node promoted, oldest first. *)

val replica_inflight_count : t -> int

val obs_counters : t -> (string * int) list
(** The stats in registry-source form (e.g. [("promotions", n)]) for
    [Obs.Registry.register]. *)
