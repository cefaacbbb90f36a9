(** Messages exchanged between the NM and the management agents over the
    management channel, and their byte encoding (s-expressions over
    {!Mgmt.Frame} payloads). *)

(** NM knowledge shipped alongside a script bundle: address-domain
    resolutions and role hints — the paper's §III-C admission that the NM
    explicitly knows IP addresses and domains. Not part of the counted
    CONMan script. *)
type annex = {
  domains : (string * string) list; (** domain name -> prefix *)
  reporter : Ids.t option; (** module that reports path completion *)
}

val empty_annex : annex

type t =
  | Hello of { ports : (string * string * string) list }
      (** device -> NM: physical connectivity (port, peer device, peer port) *)
  | Show_potential_req of { req : int }
  | Show_actual_req of { req : int }
  | Show_actual_unless of { req : int; tag : string }
      (** showActual unless the device's state still has [tag]
          ({!state_tag}): the drift check's read of a device whose state it
          checked before. Answered by {!Show_actual_unchanged} when the tags
          match, by a full {!Show_actual_resp} otherwise. *)
  | Show_perf_req of { req : int }
      (** showPerf: scrape the performance aspect — per-pipe counters from
          every module on the device (read-only, like showActual) *)
  | Bundle of { req : int; cmds : Primitive.t list; annex : annex }
      (** NM -> device: a CONMan script slice *)
  | Nm_takeover of { nm : string; epoch : int }
      (** a standby NM announces it is primary under a new leadership epoch
          (§V); agents reject announcements that are not strictly newer *)
  | Fenced of { epoch : int; msg : t }
      (** leadership fence: an NM holding a non-zero epoch wraps every frame
          it sends so agents can reject a deposed primary; unwrapped frames
          are epoch 0 (single-NM legacy mode) *)
  | Traced of { ctx : Obs.Trace.ctx; msg : t }
      (** trace-context piggyback: which goal/span this frame works for, so
          the receiver parents its spans correctly and lower layers can
          attribute retries and sheds; untraced frames carry no context *)
  | Ha_heartbeat of { epoch : int; seq : int }
      (** primary -> standby liveness beacon for the failure detector *)
  | Ha_journal of { epoch : int; seq : int; entry : Intent.entry }
      (** primary -> standby: one intent-journal entry, stream position [seq] *)
  | Ha_journal_ack of { epoch : int; upto : int }
      (** standby -> primary: cumulative ack of the journal stream *)
  | Ha_inflight of { epoch : int; req : int; dst : string; msg : t }
      (** primary -> standby: a request entered the in-flight set *)
  | Ha_confirm of { epoch : int; req : int }
      (** primary -> standby: request [req] was confirmed (left in-flight) *)
  | Set_address of { req : int; target : Ids.t; addr : string; plen : int }
      (** NM-assigned address (§II-E's DHCP-like exception) *)
  | Self_test_req of { req : int; target : Ids.t; against : Ids.t option }
  | Show_potential_resp of { req : int; modules : (Ids.t * Abstraction.t) list }
  | Show_actual_resp of { req : int; state : (Ids.t * (string * string) list) list }
  | Show_actual_unchanged of { req : int }
      (** device -> NM: the state still has the tag {!Show_actual_unless}
          named *)
  | Show_perf_resp of {
      req : int;
      tag : string;
      perf : (Ids.t * (string * (string * int) list) list) list;
    }
      (** per module: pipe id -> monotonic counter snapshot; and the
          {!state_tag} of the device's showActual state, so one scrape
          tells the NM which devices' configuration may have changed *)
  | Bundle_ack of { req : int }
      (** device -> NM: the bundle was applied — success is explicit *)
  | Ack of { req : int }
      (** device -> NM: generic ack for requests with no richer reply *)
  | Bundle_err of { req : int; error : string }
  | Self_test_resp of { req : int; target : Ids.t; ok : bool; detail : string }
  | Completion of { src : Ids.t; what : string }
      (** e.g. the far-edge MPLS module reporting "lsp-established" *)
  | Trigger of { src : Ids.t; field : string; value : string }
      (** a low-level value changed: dependency maintenance (§II-E) *)
  | Convey of { src : Ids.t; dst : Ids.t; payload : Peer_msg.t }
      (** module -> NM -> module: conveyMessage relay *)
  | Fed_advert of {
      domain : string;
      nm : string;
      borders : Ids.t list;
      summary : (string * int) list;
      devices : string list;
    }
      (** NM -> NM: domain advertisement — border modules plus an abridged
          reachability summary (customer domain -> reachable-module count)
          and the owned device ids; never the raw internal topology *)
  | Fed_plan_req of { req : int; domain : string; entry_dev : string; target : Ids.t }
      (** coordinator -> peer: expand the peer's segment of a cross-domain
          goal, from border device [entry_dev] towards [target] *)
  | Fed_plan_resp of {
      req : int;
      devices : (string * (string * string * string) list * (Ids.t * Abstraction.t) list) list;
      module_domains : (Ids.t * string) list;
      prefixes : (string * string) list;
    }
      (** the scoped per-goal expansion: segment devices with their links
          and module abstractions, plus the peer's address knowledge *)
  | Fed_plan_err of { req : int; error : string }
  | Fed_commit of {
      domain : string;
      gid : int;
      slices : (string * Primitive.t list) list;
      reporter : Ids.t option;
    }
      (** coordinator -> peer: execute these per-device slices of goal
          [(domain, gid)]; ack only once every slice is confirmed *)
  | Fed_commit_ack of { gid : int }
  | Fed_commit_err of { gid : int; error : string }
  | Fed_abort of { domain : string; gid : int }
      (** distributed back-out: dismantle the goal's slices everywhere so
          no domain is left half-configured *)
  | Fed_abort_ack of { gid : int }
  | Fed_relay of { src : Ids.t; dst : Ids.t; payload : Peer_msg.t }
      (** cross-domain conveyMessage hop between the two owning NMs *)

val encode : t -> bytes

val decode : bytes -> t
(** Raises only {!Sexp.Parse_error} on malformed input — any exception a
    nested codec throws at a fuzzed payload is converted, so callers need
    a single handler. *)

val state_tag : (Ids.t * (string * string) list) list -> string
(** The MD5 digest (hex) of a showActual state's module ids and keys, but
    not its values: two states get the same tag exactly when their
    (module, keys) lists are equal. The NM and the agents both compute it,
    so neither keeps a counter that a change could forget to bump. *)

val priority_of : t -> int
(** Admission-control class: 0 = heartbeats/takeovers (never shed),
    1 = scripts/back-outs/replication/inter-NM federation,
    2 = probes/showState, 3 = telemetry showPerf (shed first). {!Fenced}
    and {!Traced} frames take the class of the message they carry. See
    {!Mgmt.Admission}. *)

val trace_of : t -> Obs.Trace.ctx option
(** The trace context a frame carries, looking through {!Fenced} and
    {!Traced} nesting; [None] for untraced frames. *)

val equal : t -> t -> bool
val pp : t Fmt.t
