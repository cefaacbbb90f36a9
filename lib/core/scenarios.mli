(** Ready-made CONMan deployments of the paper's experimental set-ups:
    netsim testbed + management channel + agents + protocol modules + NM,
    already discovered (Hello + showPotential) and primed with the NM's
    address-domain knowledge. Each builder is a layout put up with
    {!deploy} and learnt with {!discover}. *)

val nm_station_id : string
(** Device id the (primary) NM subscribes under. *)

val standby_station_id : string
(** Device id of the warm-standby NM in HA deployments (see {!Ha}). *)

type channel_kind = [ `Oob | `Raw ]
(** Pre-configured out-of-band channel, or the 4D-style raw in-band
    flooding channel (§III-A). *)

(** {1 Deploying a layout} *)

(** One protocol module, as a device's agent registers it. Each names the
    module's short id. *)
type spec =
  | Eth of string * int  (** an ETH module on one port *)
  | Switch of string  (** a switching ETH module over every port *)
  | Ip of string * string list * string
      (** an IP module on these interfaces, serving this address domain *)
  | Gre of string
  | Esp of string
  | Ike of string
  | Mpls of string
  | Vlan of string

type node = {
  device : Netsim.Device.t;
  station : string;  (** the NM station its agent reports to *)
  modules : spec list;  (** in registration order *)
}
(** A managed device of a layout (a [node list], in agent creation order). *)

type deployment = {
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t;
  transport : Mgmt.Reliable.t;
  admission : Mgmt.Admission.t;
  agents : (Netsim.Device.t * Agent.t) list;  (** in layout order *)
  ip_handles : (string * Ip_module.handle) list;  (** module id -> handle *)
}

val deploy :
  ?fault_seed:int ->
  channel_kind ->
  Netsim.Net.t ->
  attach_to:Netsim.Device.t ->
  node list ->
  deployment
(** [deploy kind net ~attach_to layout] builds the management-channel
    stack (base, faults, reliable delivery, overload admission; the fault
    layer is a no-op until a knob on [faults] is turned, [fault_seed]
    defaults to 42), then each node's agent, in layout order, registering
    its modules in order. For [`Raw] a management-station device is
    created and cabled to [attach_to]; [`Oob] ignores [attach_to]. *)

val discover : Nm.t -> announce:Agent.t list -> Netsim.Net.t -> node list -> unit
(** One NM's bring-up: the agents in [announce] say Hello, then the NM
    harvests the showPotential of the layout's devices homed to its
    station, in layout order, and is told the address domain of each of
    their IP modules, newest registration first, with the customer prefix
    map. An NM that learns no IP module learns no prefixes either. *)

(** {1 Figure 4: the VPN testbed} *)

type vpn = {
  tb : Netsim.Testbeds.vpn;
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t; (** fault-injection handle for the channel *)
  transport : Mgmt.Reliable.t; (** reliable-delivery handle under [chan] *)
  admission : Mgmt.Admission.t; (** overload-admission handle atop [transport] *)
  nm : Nm.t;
  goal : Path_finder.goal; (** "connect S1 and S2 of customer C1" *)
  scope : string list;
  agents : (string * Agent.t) list; (** device name -> agent *)
  ip_handles : (string * Ip_module.handle) list; (** module id -> handle *)
}

val build_vpn :
  ?channel:channel_kind ->
  ?secure:bool ->
  ?tradeoffs:string list ->
  ?fault_seed:int ->
  ?journal:Intent.journal ->
  unit ->
  vpn
(** [secure:true] additionally registers the figure-1 IPsec pair on the
    edge routers: ESP data modules whose "esp-keys" dependency is satisfied
    by IKE control modules (§II-F). [fault_seed] seeds the fault-injection
    layer (see {!deploy}); [journal] seeds the NM's intent journal (an NM
    restarting from stable storage). Over [`Oob] the customer hosts also
    run agents, each with one IP module, that the NM never manages. *)

val vpn_goal : ?tradeoffs:string list -> unit -> Path_finder.goal

val vpn_reachable : vpn -> bool
(** Bidirectional ICMP reachability between the customer hosts. *)

val vpn_adopt : vpn -> Nm.t -> unit
(** Points a replacement NM (e.g. one created from a saved
    {!Intent.journal}) at the same deployment: re-announces every agent,
    harvests potentials and re-enters the operator's domain knowledge.
    Follow with {!Nm.recover} to re-converge the journalled intents. *)

(** {1 n-router chains (the Table-VI sweep)} *)

type chain = {
  ctb : Netsim.Testbeds.chain;
  cchan : Mgmt.Channel.t;
  cfaults : Mgmt.Faults.t;
  ctransport : Mgmt.Reliable.t;
  cadmission : Mgmt.Admission.t;
  cnm : Nm.t;
  cgoal : Path_finder.goal;
  cscope : string list;
}

val build_chain : ?addressed:bool -> ?fault_seed:int -> int -> chain
(** [addressed:false] leaves the ISP routers without addresses: the NM is
    expected to assign them via {!Nm.assign_address}. *)

val chain_layout : (int -> string) -> Netsim.Testbeds.chain -> node list
(** [chain_layout station tb] is the chain's layout, router [i] homed to
    [station i]: figure 4(b)'s A and C modules at the ends, B's between. *)

val chain_goal : Netsim.Testbeds.chain -> Path_finder.goal
(** The chain's end-to-end goal, the figure-4 one between its edges. *)

val chain_reachable : chain -> bool

(** {1 Diamond: two parallel cores (multi-route experiments)} *)

type diamond = {
  dtb : Netsim.Testbeds.diamond;
  dchan : Mgmt.Channel.t;
  dfaults : Mgmt.Faults.t;
  dtransport : Mgmt.Reliable.t;
  dadmission : Mgmt.Admission.t;
  dnm : Nm.t;
  dgoal : Path_finder.goal;
  dscope : string list;
  dagents : (string * Agent.t) list; (** device id -> agent *)
}

val build_diamond : ?fault_seed:int -> unit -> diamond
val diamond_reachable : diamond -> bool

val diamond_adopt : diamond -> Nm.t -> unit
(** Like {!vpn_adopt}, for the diamond deployment. *)

(** {1 Path classification helpers} *)

val pure_gre : Path_finder.path -> bool
val pure_mpls : Path_finder.path -> bool
val pure_ipip : Path_finder.path -> bool
val secure : Path_finder.path -> bool

(** {1 Figure 9: VLAN switch chains} *)

type vlan = {
  vtb : Netsim.Testbeds.vlan;
  vchan : Mgmt.Channel.t;
  vfaults : Mgmt.Faults.t;
  vtransport : Mgmt.Reliable.t;
  vadmission : Mgmt.Admission.t;
  vnm : Nm.t;
  vscope : string list;
  vagents : (string * Agent.t) list;
}

val build_vlan : ?channel:channel_kind -> unit -> vlan
val vlan_reachable : vlan -> bool

type vlan_chain = {
  vctb : Netsim.Testbeds.vlan_chain;
  vcchan : Mgmt.Channel.t;
  vcfaults : Mgmt.Faults.t;
  vctransport : Mgmt.Reliable.t;
  vcadmission : Mgmt.Admission.t;
  vcnm : Nm.t;
  vcscope : string list;
}

val build_vlan_chain : int -> vlan_chain
val vlan_chain_reachable : vlan_chain -> bool
