(** The Network Manager (§II-D).

    Discovers the network over the management channel, harvests module
    abstractions with showPotential, achieves high-level connectivity goals
    by generating and executing CONMan scripts, relays conveyMessage
    traffic between modules (without interpreting it), accounts messages
    (Table VI), diagnoses faults and maintains dependencies via triggers.

    The NM is driven from outside the event loop: its helpers send requests
    and run the network to quiescence, while module coordination happens
    asynchronously inside the run. *)

type t

val create :
  ?transport:Mgmt.Reliable.t ->
  ?journal:Intent.journal ->
  chan:Mgmt.Channel.t ->
  net:Netsim.Net.t ->
  my_id:string ->
  unit ->
  t
(** A NM subscribed to the channel as device [my_id]. When [transport] is
    the {!Mgmt.Reliable} layer under [chan], the NM listens for delivery
    give-ups and marks the abandoned device unreachable in its
    {!topology}, to be routed around by {!achieve} until a fresh [Hello]
    shows it recovered (which also re-syncs the device's slices of every
    active script).

    [journal] seeds the NM's write-ahead intent journal: live intents are
    replayed from it at creation, modelling a restart from stable storage
    — call {!recover} (after discovery) to re-converge the network to
    them. Without it the NM starts with a fresh, empty journal. *)

val run : t -> unit
(** Runs the network to quiescence — or up to the current horizon when one
    is set. *)

val set_horizon : t -> int64 option -> unit
(** Bounds every internal [run] at the given virtual time, so scheduled
    data-plane faults are not fast-forwarded through. The monitor sets
    this around each reconciliation tick; [None] restores
    run-to-quiescence. *)

(** {1 Discovery} *)

val harvest_potentials : t -> string list -> unit
(** showPotential at every listed device; fills {!topology}. *)

val show_actual : t -> string -> (Ids.t * (string * string) list) list option
(** showActual at one device: per-module low-level state report. [None]
    when the agent did not answer within the horizon. The NM keeps no
    reply once it is returned, and ignores an answer that arrives after
    its reader gave up. *)

val show_perf : t -> string -> (Ids.t * (string * (string * int) list) list) list option
(** showPerf at one device: per-module, per-pipe monotonic counter
    snapshots (the abstraction's performance aspect). [None] when the
    agent did not answer within the horizon — telemetry treats that as
    the device being unreachable. Replies are kept no longer than
    {!show_actual}'s. *)

val stored_replies : t -> int
(** showActual, showPerf and selfTest replies the NM holds for readers
    that have not taken them yet: 0 between calls. *)

val topology : t -> Topology.t
val net : t -> Netsim.Net.t

(** {1 Goal achievement (§III-C)} *)

val find_paths : t -> Path_finder.goal -> Path_finder.path list
(** Every protocol-sane path ({!Path_finder.find}): the paper's
    enumeration, e.g. the nine figure-4 paths. {!achieve} does not
    enumerate. *)

val configure_path :
  ?batched:bool -> t -> Path_finder.goal -> Path_finder.path -> Script_gen.script
(** Generates the CONMan script for a specific path and executes it.
    [batched:false] ships one message per primitive instead of one bundle
    per device (ablation of the Table-VI accounting). *)

val achieve :
  ?configure:bool ->
  ?max_attempts:int ->
  t ->
  Path_finder.goal ->
  (Path_finder.path list * Path_finder.path * Script_gen.script, string) result
(** The full pipeline: plan, generate and (unless [configure:false])
    execute. Planning is {!Path_finder.best}: the path
    {!Path_finder.choose} would pick from {!find_paths}, found without
    enumerating. Returns the candidates the search completed (in discovery
    order; a handful, not every sane path), the chosen path, and its
    script.

    Degraded mode: paths through devices currently marked unreachable are
    skipped, and if a path device stops answering mid-script the partial
    configuration is backed out of the devices that still respond and the
    next-best path is tried (up to [max_attempts], default 4). When the
    only candidates run through dead devices the result is
    [Error "device unreachable: <ids>"]. *)

val achieve_l2 :
  ?configure:bool ->
  t ->
  scope:string list ->
  from_eth:Ids.t ->
  to_eth:Ids.t ->
  (Script_gen.script, string) result
(** The figure-9 layer-2 goal: bridge two customer-facing ETH modules
    across a chain of switches with a negotiated VLAN tunnel. *)

val assign_address : t -> target:Ids.t -> addr:string -> plen:int -> unit
(** Assigns an address to an IP module (the paper's DHCP-like exception to
    protocol agnosticity, §II-E/§III-C). *)

val enforce_rate : t -> owner:Ids.t -> pipe_id:string -> rate_kbps:int -> unit
(** Performance enforcement (§II-D.1(c)): rate-limit what [owner] sends
    into [pipe_id]. *)

val remove_rate : t -> owner:Ids.t -> pipe_id:string -> unit

val teardown : t -> Script_gen.script -> unit
(** Deletes the script's switch rules and pipes, undoing the device state,
    and retires the intent the script realised (if any). *)

(** {1 Intents and reconciliation}

    {!achieve}, {!achieve_l2}, {!assign_address} and {!enforce_rate}
    journal an {!Intent.t} before configuring (write-ahead), so desired
    state survives an NM crash; {!teardown} and {!remove_rate} retire it.
    The {!Monitor} drives {!reconfigure}/{!resync_intent}/{!escalate} to
    keep live intents healthy. *)

val journal : t -> Intent.journal
val intents : t -> Intent.t list
(** Live intents and the most recent {!log_capacity} retired ones, in id
    order. Retired intents beyond that are counted in {!ring_dropped}. *)

val recover : t -> unit
(** Re-realises every live intent — the second half of a restart from the
    journal (after discovery has repopulated {!topology}). Idempotent
    agents and a deterministic script generator make this converge to the
    same configuration as an uninterrupted run. *)

val reconfigure : ?exclude:string list -> ?avoid:string list -> t -> Intent.t -> (unit, string) result
(** Re-realises one intent, first backing its stale script (if any) out of
    the devices that still answer. For layer-3 goals, [exclude] skips
    candidate paths by {!Path_finder.signature} and [avoid] skips paths
    visiting the listed device ids — the monitor's next-best-path lever. *)

val resync_intent : t -> Intent.t -> unit
(** Re-sends the intent's script as-is (idempotent) — the drift repair. *)

val flush_inflight : t -> unit
(** Re-issues every state-changing request that was sent but never
    confirmed — the backstop for requests the reliable transport gave up
    on. Agents answer repeated request ids from their reply cache, so
    re-sends are idempotent; the monitor calls this every tick. *)

val set_incarnations : int -> unit
(** Pins the per-process NM boot counter that strides the request-id
    space. Only for harnesses needing cross-process reproducibility (the
    chaos engine); never call it while agents from an earlier NM share a
    channel with a new one. *)

val escalate : t -> Intent.t -> string -> unit
(** Marks the intent [Failed] and records the failure in {!errors}. *)

(** {1 Debugging (§II-D.2)} *)

val self_test : ?against:Ids.t -> t -> Ids.t -> bool * string
(** Asks one module to self-test; with [against] it probes data-plane
    connectivity towards that module instead. *)

val diagnose : t -> Path_finder.path -> (Ids.t * bool * string) list
(** Walks a configured path, self-testing every module: localises faults
    like a cut wire to the first failing module. *)

val probe_end_to_end : t -> Path_finder.path -> bool * string
(** Edge-to-edge data-plane probe between the path's customer-edge IP
    modules; catches silent faults hop-by-hop tests miss. *)

(** {1 Multiple NMs (§V)} *)

val replicate_to : t -> standby:t -> unit
(** Copies the learnt topology, domain knowledge, active scripts, journal
    and unconfirmed in-flight requests into a warm standby. Nothing mutable
    is shared: topology records are copied and the standby's intents are
    rebuilt by replaying the shipped journal entries, so later mutations on
    the primary never leak into the standby. The journal entries keep their
    sequence numbers and the standby takes on the primary's
    {!Intent.length} ({!Intent.catch_up}), so both number later entries
    alike even after the primary compacted. {!Ha} supersedes this one-shot
    copy with continuous journal-shipping; it remains the bootstrap. *)

val take_over : ?epoch:int -> t -> unit
(** Broadcasts an [Nm_takeover] (plus a retried unicast per known device):
    every agent redirects its management traffic to this NM. Requests the
    primary never saw confirmed are re-issued under this NM's identity.

    The announcement and all subsequent frames are fenced with a strictly
    larger leadership epoch — [epoch] if given (clamped to never regress),
    otherwise the current epoch + 1 — so agents reject the deposed primary
    instead of obeying two managers (split-brain fencing). *)

(** {2 High-availability support (used by {!Ha})} *)

val my_id : t -> string

val epoch : t -> int
(** Current leadership epoch; 0 = unfenced single-NM legacy mode. *)

val set_epoch : t -> int -> unit
(** Raises the epoch (never lowers it); subsequent frames are fenced. *)

val send_msg : t -> dst:string -> Wire.t -> unit
(** Sends one message over the management channel, fenced per the current
    epoch — the HA layer's transport for heartbeats and journal shipping. *)

val set_ha_hook : t -> (src:string -> Wire.t -> unit) -> unit
(** Routes received NM-to-NM HA traffic ([Ha_*], [Nm_takeover]) to the
    hook instead of the normal dispatch (and outside Table-VI stats). *)

val set_repl_hooks :
  t -> on_add:(int * string * Wire.t -> unit) -> on_confirm:(int -> unit) -> unit
(** Observes the in-flight set: [on_add] fires when a state-changing
    request is sent, [on_confirm] when it is confirmed — the deltas the
    primary ships to its standby. *)

val apply_replicated_entry : t -> Intent.entry -> unit
(** Appends one journal entry shipped from the primary and rebuilds the
    intent list from the local journal (idempotent under re-shipping). *)

val inflight : t -> (int * string * Wire.t) list
(** The in-flight set, newest first. *)

val set_inflight : t -> (int * string * Wire.t) list -> unit
(** Replaces the in-flight set — promotion merges the replicated set in
    before {!take_over} replays it. *)

(** {2 Federation support (used by {!Fed} in [lib/federation])} *)

val set_fed_hook : t -> (src:string -> Wire.t -> unit) -> unit
(** Routes received inter-NM federation traffic ([Fed_*]) to the hook
    instead of the normal dispatch (and outside Table-VI stats). *)

val set_convey_relay : t -> (src:Ids.t -> dst:Ids.t -> Peer_msg.t -> unit) -> unit
(** Called instead of direct delivery when a conveyMessage targets a module
    on a device outside the owned set — the federation layer forwards it to
    the owning NM. *)

val set_owned_devices : t -> string list -> unit
(** Declares the NM's administrative domain. Once set, a state-changing
    request to any device outside the set bumps {!foreign_writes}, and
    conveys to foreign modules go through the relay hook. Unset (the
    default), the NM is in single-NM legacy mode and owns everything. *)

val foreign_writes : t -> int
(** State-changing requests sent to devices outside the owned set since
    creation. The federation invariant is that this stays 0: an NM must
    never write configuration into another domain's devices. *)

val run_script : t -> Script_gen.script -> unit
(** Ships a ready-made script (a delegated slice of a federated goal) and
    starts maintaining it like any script from {!achieve}. Does not run
    the network — safe to call from inside delivery callbacks; the
    caller's drive delivers the bundles. *)

val script_pending : t -> Script_gen.script -> bool
(** Whether any of the script's bundles is still awaiting confirmation. *)

val abort_script : t -> Script_gen.script -> unit
(** Backs a partially-applied script out of the devices that still answer
    (unreachable ones are owed the deletions and settled on recovery) and
    stops maintaining it. *)

(** {2 Tracing and metrics (see {!Obs})} *)

val set_obs : t -> Obs.Trace.t -> unit
(** Attaches a span collector. From here on every goal-scoped operation
    ({!achieve}, {!achieve_l2}, back-outs, {!reconfigure}) opens a span,
    every state-changing request sent under one becomes a child span, and
    the context rides on the wire via {!Wire.Traced} so agents and peer
    NMs parent their own spans into the same goal tree. Re-sends (flush,
    takeover replay) add events to the existing span, never new spans. *)

val obs : t -> Obs.Trace.t option

val set_registry : t -> Obs.Registry.t -> unit
(** Attaches the metrics registry; the NM feeds the
    [ha.failover_replay_ticks] histogram (confirm latency of requests a
    promoted standby replayed). *)

val set_trace_ctx : t -> Obs.Trace.ctx option -> unit
(** Overrides the ambient span requests are parented under — the
    federation layer sets this around delegated-slice execution so a
    peer's bundles join the coordinator's goal tree. *)

val trace_ctx : t -> Obs.Trace.ctx option

val rx_ctx : t -> Obs.Trace.ctx option
(** The context carried by the frame currently being dispatched (valid
    only inside a receive hook) — HA/federation handlers parent their
    spans on it so cross-NM work joins the sender's goal tree. *)

val obs_counters : t -> (string * int) list
(** The NM's counters in registry-source form ([sent], [received],
    [acks], [foreign_writes]). *)

(** {1 Observation} *)

val reset_stats : t -> unit
val stats_sent : t -> int

val stats_received : t -> int
(** Protocol messages only, per Table VI — explicit success acks are
    counted in {!stats_acks} instead. *)

val stats_acks : t -> int

val inflight_count : t -> int
(** State-changing requests sent but not yet confirmed by an agent. *)

val transport : t -> Mgmt.Reliable.t option

val log_capacity : int
(** Entries kept by each per-goal log ({!conveys}, {!completions}, the
    retired half of {!intents}); past it the oldest entry is dropped and
    counted in {!ring_dropped}. The same constant as
    {!Intent.log_capacity}: the journal keeps as many retired intents. *)

val conveys : t -> (Ids.t * Ids.t * Peer_msg.t) list
(** The conveyMessage relay log (the figure-3 trace), oldest first: the
    last {!log_capacity} relays. *)

val completions : t -> (Ids.t * string) list
(** Module completion reports, newest first: the last {!log_capacity}. *)

val ring_dropped : t -> (string * int) list
(** Entries dropped from each per-goal log ring ([conveys],
    [completions], [retired_intents]), and the retired intents compacted
    out of the journal ([journal_compacted], see {!Intent.compacted}). *)

val errors : t -> (string * string) list
val triggers : t -> (Ids.t * string * string) list

val set_auto_repair : t -> bool -> unit
(** When on, a received trigger re-issues the active scripts (§II-E). *)
