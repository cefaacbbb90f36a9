(** One-stop observability wiring: a shared {!Obs.Registry} plus one
    {!Obs.Trace} collector per NM station, with transport/admission-level
    events (retries, sheds, deferrals) decoded out of raw payloads and
    routed back to the owning goal's span.

    Typical use: [create] once per deployment, [attach_nm] per NM (passing
    its agents and channel stack), then drive [set_tick] from the
    scenario's tick loop so spans and events are tick-stamped. *)

type t

val create : unit -> t
val registry : t -> Obs.Registry.t

val collectors : t -> Obs.Trace.t list
(** One per attached NM, in attachment order — the collector set for
    [Obs.Trace.goal_spans] / [render] / [connected]. *)

val set_tick : t -> int -> unit
(** Advance the shared logical clock every attached collector stamps
    spans and events with. *)

val tick : t -> int

val route : t -> bytes -> string -> unit
(** [route t payload what] decodes [payload], extracts its trace context
    (if any) and lands [what] as an event on the owning span. Safe on
    arbitrary bytes. *)

val attach_nm :
  ?prefix:string ->
  ?agents:(string * Agent.t) list ->
  ?transport:Mgmt.Reliable.t ->
  ?admission:Mgmt.Admission.t ->
  ?faults:Mgmt.Faults.t ->
  t ->
  station:string ->
  Nm.t ->
  Obs.Trace.t
(** Creates the station's span collector, hands it (and the registry) to
    the NM and its agents, installs Reliable/Admission observers that
    [route] their events, and registers every layer's counters under
    [nm] / [agent] / [reliable] / [admission] / [faults] — prefixed
    ["<prefix>_"] when [?prefix] is given, so multi-NM deployments keep
    one subsystem per (station, layer). Returns the collector. *)

val attach_ha : ?prefix:string -> t -> Ha.t -> unit
(** Registers an HA node's counters under [ha]. *)

val attach_net : ?prefix:string -> t -> Netsim.Net.t -> unit
(** Registers the summed per-cause link-drop counters under [netsim]. *)

val attach_monitor : ?prefix:string -> t -> Monitor.t -> unit
(** Registers monitor health (and its event-ring drop count) under
    [monitor]. *)

val ring_dropped : t -> (string * int) list
(** Every bounded ring's silent-drop count: the global packet-trace ring,
    each station's span collector and each attached NM's per-goal log
    rings ({!Nm.ring_dropped}). *)

val attach_rings : t -> unit
(** Registers {!ring_dropped} as the [rings] subsystem. *)
