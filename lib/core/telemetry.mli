(** The NM-side telemetry poller over the showPerf primitive.

    Scrapes per-pipe counters from every device in scope, feeds the
    {!Diagnose} time-series store, and localizes faults on configured
    paths by adapting them (through the potential graph) into the hops and
    inter-device segments the protocol-agnostic localizer consumes. A
    segment joins the physical-facing modules ({!Potential_graph.facing})
    of two consecutive path devices. *)

type t

val create : ?window:int -> ?period_ns:int64 -> scope:string list -> Nm.t -> t
(** [window] bounds the per-series delta ring; [period_ns] (default
    250ms) is the base scrape period honoured by {!maybe_scrape}. *)

val store : t -> Diagnose.t
val rounds : t -> int
(** Scrape rounds so far; round [n] is the [n]th {!scrape}. *)

val period_ns : t -> int64
(** Current scrape period — equals the base period until shed feedback
    (see {!set_shed_probe}) backs it off. *)

val set_shed_probe : t -> (unit -> int) -> unit
(** Wires overload feedback into the poller: [probe] returns a monotonic
    count of telemetry payloads shed or expired by the admission layer
    (e.g. {!Mgmt.Admission.lost_total}). On every {!maybe_scrape}, growth
    since the last look doubles the scrape period (capped at 8× base —
    graceful degradation, the NM stops feeding the storm) and a quiet
    interval halves it back towards the base. *)

val backoffs : t -> int
(** How many times the scrape period was doubled in response to sheds. *)

val scrape : t -> unit
(** One scrape round, now: showPerf at every device in scope, in one
    {!Nm.show_perf_round}, the replies observed in scope order; devices
    that do not answer are noted unreachable in the store. Each device's
    state tag is kept for {!tag}. *)

val scrape_path : t -> Path_finder.path -> unit
(** {!scrape}, over only the devices [path] visits: the ones
    {!diagnose_path} reads. *)

val tag : t -> since:int -> string -> string option
(** [tag t ~since dev]: the state tag ({!Wire.state_tag}) [dev] answered
    in a round numbered above [since] (see {!rounds}), unless the NM has
    sent [dev] a state-changing request since that round began
    ({!Nm.writes}), which may have changed the state. *)

val maybe_scrape : t -> unit
(** {!scrape}, but only if the period elapsed since the last round. *)

val anomalies : t -> Diagnose.anomaly list

val diagnose_path : t -> Path_finder.path -> Diagnose.diagnosis list
(** Ranked root-cause diagnosis for one configured path. *)
