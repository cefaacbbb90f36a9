(** Ready-made federated deployments: the n-router chain of
    {!Conman.Scenarios.build_chain}, partitioned into a west and an east
    administrative domain, each owned by its own NM on a shared
    out-of-band management channel. *)

open Conman

val west_station : string
(** Station id the west domain's NM subscribes under ("id-NM-W"). *)

val east_station : string

type two_domain = {
  ftb : Netsim.Testbeds.chain;
  fchan : Mgmt.Channel.t;
  ffaults : Mgmt.Faults.t;  (** fault-injection handle for the shared channel *)
  ftransport : Mgmt.Reliable.t;
  fadmission : Mgmt.Admission.t;
  fwest : Fed.t;
  feast : Fed.t;
  fgoal : Path_finder.goal;  (** the same cross-domain goal build_chain poses to one NM *)
  fscope : string list;  (** all router ids, west then east *)
  fwest_devices : string list;
  feast_devices : string list;
  fagents : (string * Agent.t) list;  (** device id -> agent *)
}

val build_two_domain : ?fault_seed:int -> int -> two_domain
(** [build_two_domain n] builds the n-router chain with routers
    [0..n/2-1] owned by the west NM and the rest by the east NM: the
    layout of {!Conman.Scenarios.build_chain}, each router homed to its
    domain's station, put up with {!Conman.Scenarios.deploy}. Each NM
    discovers, harvests and holds module-domain knowledge for its own
    devices only ({!Conman.Scenarios.discover}). Domain adverts have
    already been exchanged on return. *)

val two_domain_reachable : two_domain -> bool
(** Bidirectional reachability between the chain's customer edges. *)

val instrument : two_domain -> Observe.t
(** Wires full observability over the deployment: a span collector per NM
    station (agents report into their domain's collector), the shared
    channel stack's retry/shed events routed back to goal spans, every
    layer's counters registered ([west_nm.*], [east_nm.*], [west_reliable.*],
    [fed_west.*], [netsim.*], [rings.*], ...) and both Fed nodes feeding
    the [fed.plan_ticks]/[fed.commit_ticks]/[fed.abort_ticks] histograms. *)

val converge : ?obs:Observe.t -> two_domain -> int -> bool
(** [converge t gid] drives both federation nodes (one {!Fed.tick} each,
    then half a virtual second of network time) until goal [gid] is
    achieved or 40 ticks are exhausted — the fault-free drive. [?obs]
    keeps the observability clock in step with the drive's ticks. *)
