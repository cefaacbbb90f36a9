(** Federated multi-NM management (the §V "multiple NMs" direction).

    The testbed is partitioned into administrative domains, each owned by
    one NM. Cross-domain connectivity goals are achieved by an inter-NM
    protocol over the ordinary lossy management channel:

    - domains exchange advertisements carrying only border modules and an
      abridged per-address-domain reachability summary — never the raw
      internal topology;
    - a cross-domain goal is coordinated by its home NM, which obtains a
      per-goal scoped expansion of the remote segment, plans one global
      script with the shared deterministic generator (so the resulting
      configuration is byte-identical to a single NM owning everything),
      and delegates each domain its own per-device slices under a
      two-phase commit;
    - every configuration write comes from the owning NM — the
      coordinator never touches a foreign device ({!Conman.Nm.foreign_writes}
      stays 0);
    - on a failed or timed-out segment the coordinator drives a
      distributed back-out so no domain is left half-configured, then
      replans;
    - conveyMessage traffic between modules in different domains is
      relayed NM-to-NM ([Fed_relay]) without interpretation.

    All inter-NM traffic rides at admission priority 1, with scripts.
    The node is driven by {!tick} (bounded-horizon, like the Monitor) and
    is idempotent under retransmission, so it rides out NM crashes and
    inter-domain partitions. *)

open Conman

type t

val create :
  nm:Nm.t -> domain:string -> devices:string list -> peers:string list -> unit -> t
(** Wraps an NM as a federation node owning [devices] (its administrative
    domain). [peers] lists the station ids of the other domains' NMs;
    further peers may be learnt from their adverts. Installs the NM's
    federation hook, convey relay and owned-device boundary. *)

val announce : t -> unit
(** Sends this domain's advertisement to every known peer. Also done
    periodically by {!tick}. *)

val advert : t -> Wire.t
(** The advertisement this node currently exports — always a
    [Wire.Fed_advert] carrying border modules, the abridged summary and
    the owned device ids; never links or internal module state. *)

val submit : t -> Path_finder.goal -> int
(** Registers a (possibly cross-domain) goal with this NM as its
    coordinator; returns a goal id for {!status}. Progress is made by
    subsequent {!tick}s. *)

val tick : t -> tick:int -> unit
(** One protocol step: periodic advert, in-flight re-delivery, delegated
    commit/abort duty, and the coordinator state machine for every
    submitted goal (plan → commit → achieve, or back-out → replan). Runs
    the network only up to a small bounded horizon, like the Monitor, so
    scheduled faults are not fast-forwarded through. *)

(** {1 Observation} *)

type status = Pending | Achieved_ok | Failed_with of string

val status : t -> int -> status
val achieved : t -> int -> bool

val replans : t -> int
(** Planning rounds restarted after a plan error or back-out. *)

val backouts : t -> int
(** Distributed back-outs this coordinator drove. *)

val relays : t -> int
(** Cross-domain conveyMessages forwarded or delivered by this node. *)

val commits_received : t -> int
val aborts_received : t -> int

val delegated_aborted : t -> int
(** Delegated commits this node backed out (including tombstones for
    commits that never arrived). *)

val nm : t -> Nm.t
val domain : t -> string
val devices : t -> string list

(** {1 Tracing and metrics}

    When the underlying NM carries a span collector ({!Nm.set_obs}), every
    goal run gets a root ["fed-goal"] span with one child span per protocol
    phase (["plan"], ["commit"], ["abort"]); inter-NM frames carry the
    current phase's context ({!Wire.Traced}) so the participant's
    ["plan-expand"] and ["delegated:<domain>"] spans — and every
    configuration bundle either side ships — parent into the same tree. *)

val set_registry : t -> Obs.Registry.t -> unit
(** Feeds per-phase tick latencies into [fed.plan_ticks],
    [fed.commit_ticks] and [fed.abort_ticks] histograms. *)

val goal_trace : t -> int -> Obs.Trace.ctx option
(** The root trace context of a submitted goal, once its first phase has
    begun (usable with [Obs.Trace.goal_spans] / [render]). *)

val obs_counters : t -> (string * int) list
(** Protocol stats in registry-source form for [Obs.Registry.register]. *)
