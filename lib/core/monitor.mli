(** The self-healing reconciliation loop.

    A periodic task that keeps every live {!Intent.t} healthy: each tick
    advances the simulation one interval (scheduled link faults fire in
    place thanks to {!Netsim.Net.run_until}), end-to-end probes and a
    [show_actual]-based drift check classify each intent, and the repair
    ladder is: resync the script on drift, re-achieve over the next-best
    path (backing the stale script out) on a dead path, and escalate to
    the NM's error report after a bounded number of attempts.

    With a {!Telemetry.t} attached, a failed probe first consults the
    counter-based root-cause localizer and the diagnosis picks the first
    repair rung: a cut link, lossy segment or unreachable agent skips
    resync and goes straight to re-achieving around the devices the
    verdict names ({!avoid}); a misconfigured module resyncs the script in
    place first, and reroutes around the module's device if that fails.
    No rung walks the path with self-tests: without telemetry, a reroute
    avoids only the paths already tried. *)

type config = {
  interval_ns : int64;  (** virtual time between reconciliation ticks *)
  probe_slack_ns : int64;
      (** extra horizon granted to probes/repairs within a tick — keep it
          below the interval so faults scheduled for later ticks stay put *)
  max_repair_attempts : int;
      (** consecutive failed repairs before an intent is escalated *)
}

val default_config : config
(** 500 ms interval, 100 ms slack, 4 attempts. *)

type event = { ev_time : int64; ev_intent : int; ev_what : string }

type t

val create : ?config:config -> ?telemetry:Telemetry.t -> Nm.t -> t
(** [telemetry] attaches a scrape store: each tick keeps it warm, and a
    failed probe scrapes + localizes before picking a repair rung. *)

val tick : t -> unit
(** One reconciliation round: advance virtual time by the interval, then
    probe / drift-check / repair every live intent. *)

val run : t -> ticks:int -> unit

(** {1 Observation} *)

val repairs : t -> int
(** Successful re-achievements over an alternate path. *)

val resyncs : t -> int
(** Drift repairs (script re-sent in place). *)

val escalations : t -> int
val events : t -> event list
(** Oldest first. The log is a bounded drop-oldest ring (default 10_000
    events) so long soaks can't grow memory without bound. *)

val set_event_limit : t -> int -> unit
(** Caps the event log; clamps to at least 1. Oldest events are dropped
    (and counted) once the cap is exceeded. *)

val event_limit : t -> int

val dropped_events : t -> int
(** Events evicted from the ring since creation. *)

val drift : t -> Intent.t -> (string * string list) list
(** The drift check: one showActual read of each device in the intent's
    baseline, conditional on the device's tag, and per device whose state
    lost structural keys the baseline has, those keys. A full reply that
    shows no drift becomes the device's tag; a drifted one never does. *)

val avoid : Path_finder.goal -> Diagnose.verdict -> string list
(** The devices a reroute steers around on a localizer verdict: both
    devices of a cut or lossy segment, a silent agent, or a misconfigured
    module's device, less the goal's end devices (every path visits
    them). *)

val structural_keys : (Ids.t * (string * string) list) list -> string list
(** The structural part of a [show_actual] report, as the drift check sees
    it: ["<module>/<key>"] per state key, sorted and deduplicated. Values
    (traffic counters) and transient [pending[..]] entries are left out. *)

val pp_event : event Fmt.t
val pp_health : t Fmt.t
(** The per-intent health table plus loop counters. *)
