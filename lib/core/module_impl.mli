(** The interface every CONMan protocol module implements, and the
    environment its device's management agent provides.

    A protocol module is a wrapper around an existing protocol
    implementation (§III: "modules can be implemented as wrappers around
    existing implementations"): it exposes the generic abstraction and
    translates the NM's primitives into low-level state, coordinating
    protocol-specific parameters with its peers via conveyMessage. *)

(** What the agent provides to each module. *)
type env = {
  device : Netsim.Device.t;
  my_dev : string;
  convey : src:Ids.t -> dst:Ids.t -> Peer_msg.t -> unit;
      (** conveyMessage: module-to-module, relayed by the NM *)
  notify_nm : Wire.t -> unit; (** unsolicited Completion/Trigger messages *)
  local_query : Ids.t -> string -> string option;
      (** intra-device listFieldsAndValues *)
  domain_prefix : string -> string option; (** NM annex knowledge (§III-C) *)
  domains : unit -> (string * string) list;
  is_reporter : Ids.t -> bool;
  progress : unit -> unit; (** ask the agent to re-poll all modules *)
  schedule : delay_ns:int64 -> (unit -> unit) -> unit;
}

type role = [ `Top | `Bottom ]
(** Our position on a pipe: [`Top] means the pipe hangs below us (our down
    pipe); [`Bottom] means it is our up pipe. *)

type t = {
  mref : Ids.t;
  abstraction : unit -> Abstraction.t; (** what showPotential returns *)
  create_pipe : Primitive.pipe_spec -> role -> unit;
  delete_pipe : string -> unit;
  create_switch : Primitive.switch_rule -> unit;
  delete_switch : Primitive.switch_rule -> unit;
  create_filter : drop_src:Ids.t -> drop_dst:Ids.t -> unit;
  delete_filter : drop_src:Ids.t -> drop_dst:Ids.t -> unit;
  create_perf : pipe_id:string -> rate_kbps:int -> unit;
      (** performance-enforcement state for a pipe (rate limiting) *)
  delete_perf : pipe_id:string -> unit;
  set_address : addr:string -> plen:int -> unit;
      (** NM-assigned address (the paper's DHCP-like exception) *)
  on_peer : src:Ids.t -> Peer_msg.t -> unit; (** conveyMessage delivery *)
  fields : string -> string option; (** listFieldsAndValues backing *)
  actual : unit -> (string * string) list; (** what showActual returns *)
  perf : unit -> (string * (string * int) list) list;
      (** what showPerf returns: pipe id -> monotonic counter snapshot,
          covering the abstraction's advertised [perf_reporting] names *)
  poll : unit -> unit; (** retry deferred work *)
  self_test : against:Ids.t option -> reply:(ok:bool -> detail:string -> unit) -> unit;
      (** data-plane/state self test (§II-D.2); [against] probes towards
          that module instead of the default checks *)
}

val no_op_module : Ids.t -> (unit -> Abstraction.t) -> t
(** A module that accepts everything and does nothing — the base record
    concrete modules override. *)

val initiates : Ids.t -> Ids.t -> bool
(** Deterministic initiator election between two peers (the lower
    (device, module) id starts negotiations/exchanges). *)

val run : Netsim.Device.t -> string list -> unit
(** [run device argv] runs one device-level command through the Linux CLI
    wrapper ({!Devconf.Linux_cli.exec}), the same interpreter the "today"
    scripts use. [argv] holds the command's words, in the order a person
    would type them (["mpls"; "ilm"; "add"; "label"; "gen"; "2001"; ...]):
    what a module wrapping the real tool would hand to [execve]. Nothing is
    printed to be split again. Raises {!Devconf.Linux_cli.Error} as [exec]
    does. *)

val run_cmd : Netsim.Device.t -> string -> unit
(** [run_cmd device line] is {!run} on [line] split at spaces. Only the IP
    module uses it: its route and rule lines are also its showActual record
    and its undo log, so they are printed either way. *)

val report : (string * string) list -> Netsim.Counters.t option -> (string * int) list
(** [report fields] reads one showPerf entry: for each (reported name,
    counter name) pair of [fields], the counter's value in the given set,
    or 0 when there is none (an interface that has not resolved yet). The
    counter names are interned once, by [report fields] itself, so build
    the reader once per module, not once per report. *)

val traffic : rx:string -> tx:string -> Netsim.Counters.t -> string
(** [traffic ~rx ~tx] reads a showActual entry's traffic figure,
    ["rx=<n> tx=<m>"], from the two named counters of a set, interned
    once as {!report}'s are. *)
