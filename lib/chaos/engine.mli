(** The chaos engine: runs a {!Schedule.t} against a live diamond
    deployment managed by a primary/standby NM pair (see {!Conman.Ha})
    through the {!Harness} driver, and checks the global
    invariants (convergence, bounded oscillation, counter conservation,
    journal-replay equivalence, at most one acting primary per epoch, no
    committed intent lost across failover, no liveness/mutation frame ever
    shed by admission control, convergence despite telemetry storms, no
    stale datapath state). Fully deterministic: same schedule, same
    report. *)

type config = {
  monitor : Conman.Monitor.config;
  oscillation_bound : int option;
      (** max successful reroutes per intent; [None] derives a bound from
          the schedule size, [Some 0] is the deliberately weakened
          invariant used to demonstrate the shrinker *)
}

val default_config : config

type verdict = Harness.verdict = { name : string; ok : bool; detail : string }

type ha_stats = {
  failovers : int;  (** promotions across both nodes *)
  detection_ticks : int option;
      (** ticks from the first leader crash to the first promotion after
          it; [None] when no crash occurred or none led to a promotion *)
  replayed : int;  (** unconfirmed requests replayed on promotion *)
  split_brain_count : int;
      (** ticks on which two alive nodes acted as primary under the same
          epoch — the fencing invariant requires 0 *)
  lost_intents : int;
      (** intents committed in either journal, never retired, yet missing
          at the final leader — must be 0 *)
  final_epoch : int;
}

type overload_stats = {
  storm_frames : int;
      (** telemetry-storm frames injected by {!Schedule.Overload} events *)
  p0_shed : int;  (** shed+expired heartbeat-class frames — must be 0 *)
  p1_shed : int;  (** shed+expired script-class frames — must be 0 *)
  p2_shed : int;
  p3_shed : int;
  p3_expired : int;
  p3_queue_high_water : int;
  telemetry_final_period_ns : int64;
      (** the acting leader's scrape period at the end of the run — above
          base when shed feedback backed it off and it has not yet decayed *)
  telemetry_backoffs : int;
      (** scrape-period doublings in response to shed feedback *)
}

type report = {
  verdicts : verdict list;
  converged_tick : int option;
      (** tail tick at which every intent was healthy, if any *)
  total_repairs : int;  (** successful reroutes across NM incarnations *)
  nm_crashes : int;
  mgmt_counters : string;  (** rendered management fault counters *)
  trace : string list;  (** monitor event log, across NM incarnations *)
  ha : ha_stats;
  overload : overload_stats;
  goal_trace : string;
      (** the initial achieve goal's rendered span tree, attached to every
          report so a violated invariant ships with its causal history *)
  orphan_spans : int;  (** across every traced goal — a lost context if nonzero *)
  phase_samples : (string * int list) list;
      (** raw latency samples ([ha.failover_detect_ticks]) so a soak can
          merge histograms across seeds before taking percentiles *)
  metrics_json : string;  (** the run's full {!Conman.Obs.Registry} dump *)
}

val run : ?config:config -> Schedule.t -> report
(** Raises [Invalid_argument] before the first tick if an event names a
    segment or managed device the diamond lacks. Federation-only events
    are skipped. *)

val failures : report -> verdict list
(** The verdicts that did not hold. *)

val pp_report : report Fmt.t
