(** Chaos over the federated two-domain deployment
    ({!Federation.Fed_scenarios.build_two_domain}): seeded schedules that
    always include a [Peer_nm_crash] and an [Inter_domain_partition]
    alongside background channel faults, checked against the federation
    invariants — the cross-domain goal converges, no stitched pipe is
    left half-configured after a back-out, neither NM writes configuration
    outside its own domain, and the converged configuration is exactly
    the single-NM one. Fully deterministic: same schedule, same report. *)

type verdict = Harness.verdict = { name : string; ok : bool; detail : string }

type report = {
  verdicts : verdict list;
  converged_tick : int option;
      (** tail tick at which the goal was achieved and the edges reachable *)
  replans : int;  (** coordinator planning rounds restarted *)
  backouts : int;  (** distributed back-outs driven *)
  relays : int;  (** cross-domain conveyMessages relayed, both nodes *)
  foreign_writes : int;  (** state-changing requests across a boundary — must be 0 *)
  half_configured : int;
      (** devices neither pristine nor fully configured at the end — must be 0 *)
  commits_received : int;
  aborts_received : int;
  goal_trace : string;
      (** the cross-domain goal's rendered span tree, attached to every
          report so a violated invariant ships with its causal history *)
  orphan_spans : int;  (** spans whose parent vanished — must be 0 *)
  trace_connected : bool;
      (** one root, zero orphans across both NMs' collectors *)
  total_spans : int;  (** spans in the goal's tree *)
  phase_samples : (string * int list) list;
      (** raw per-phase latency samples ([fed.plan_ticks],
          [fed.commit_ticks], [fed.abort_ticks]) so a soak can merge
          histograms across seeds before taking percentiles *)
  metrics_json : string;  (** the run's full {!Conman.Obs.Registry} dump *)
}

val generate : ?intensity:float -> seed:int -> ticks:int -> unit -> Schedule.t
(** Derives a two-domain schedule deterministically from [seed]. Both
    federation events are forced into every schedule; [intensity] scales
    the background channel-fault count (default 0.5 events/tick). The
    background menu is channel-level only, so convergence failures are
    attributable to the inter-NM protocol. *)

val run : Schedule.t -> report
(** Runs one schedule through the {!Harness} driver against a fresh
    two-domain chain deployment with the cross-domain goal submitted at
    the west NM, then checks the federation invariants. Diamond-only
    events in a replayed schedule are skipped; a [Peer_nm_crash] naming a
    domain other than [west] or [east] raises [Invalid_argument] before
    the first tick. *)

val failures : report -> verdict list
