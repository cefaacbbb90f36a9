(** The unified metrics registry.

    Every subsystem registers one source — a closure producing its
    current counter values — under a subsystem prefix; the registry
    renders the union as uniform ["subsystem.name"] keys. Sources are
    read lazily at [snapshot] time, so registration is free and the
    registry never holds stale copies.

    Key convention: both the subsystem and the counter name are lowercase
    [a-z0-9_] tokens joined by a single dot, e.g. ["admission.p3_shed"],
    ["reliable.retries"], ["faults.crash_drops"]. [register] normalizes
    names (anything else becomes '_') and rejects duplicate subsystems.

    Histograms record per-goal-phase tick latencies (plan, commit, abort,
    failover replay) and report count/min/max/mean/p50/p90/p99. *)

type t

val create : unit -> t

val register : t -> string -> (unit -> (string * int) list) -> unit
(** [register t subsystem source] — raises [Invalid_argument] on a
    duplicate subsystem. *)

val snapshot : t -> (string * int) list
(** Every ["subsystem.name"] key, sorted. *)

val delta : base:(string * int) list -> (string * int) list -> (string * int) list
(** Counter movement between two snapshots; keys absent from [base] count
    from zero, negative movements clamp to zero (a reset source). *)

val observe : t -> string -> int -> unit
(** [observe t key v] records one histogram sample (key follows the same
    subsystem.name convention, e.g. ["fed.plan_ticks"]). *)

type stats = {
  count : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
}

val histogram : t -> string -> stats option
val histograms : t -> (string * stats) list

val samples : t -> string -> int list
(** Raw samples in observation order — lets a soak merge histograms
    across independent runs before computing percentiles. *)

val to_json : t -> string
(** jq-friendly: [{"counters": {...}, "histograms": {key: {...}}}]. *)
