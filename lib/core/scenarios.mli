(** Ready-made CONMan deployments of the paper's experimental set-ups:
    netsim testbed + management channel + agents + protocol modules + NM,
    already discovered (Hello + showPotential) and primed with the NM's
    address-domain knowledge. *)

val nm_station_id : string
(** Device id the (primary) NM subscribes under. *)

val standby_station_id : string
(** Device id of the warm-standby NM in HA deployments (see {!Ha}). *)

type channel_kind = [ `Oob | `Raw ]
(** Pre-configured out-of-band channel, or the 4D-style raw in-band
    flooding channel (§III-A). *)

val make_channel :
  ?fault_seed:int ->
  ?reliability:Mgmt.Reliable.config ->
  ?admission:Mgmt.Admission.config ->
  channel_kind ->
  Netsim.Net.t ->
  devices:Netsim.Device.t list ->
  attach_to:Netsim.Device.t ->
  Mgmt.Channel.t * Mgmt.Faults.t * Mgmt.Reliable.t * Mgmt.Admission.t * Netsim.Device.t option
(** The full management-channel stack (base, faults, reliable delivery,
    overload admission) every builder here uses — exported so other
    deployment builders (e.g. the federated two-domain one) wire the same
    stack. For [`Raw] a management-station device is created and cabled to
    [attach_to]; [`Oob] ignores [devices]/[attach_to]. *)

val eth_neighbours : Netsim.Net.t -> Netsim.Device.t -> int -> (string * string) list
(** Physical neighbours of a device's port, as (device id, peer port name)
    — the shape {!Eth_module.make} wants for Hello reporting. *)

val mref : string -> string -> Netsim.Device.t -> Ids.t
(** [mref name short dev] is the module reference [name:short\@dev]. *)

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
  ?reliability:Mgmt.Reliable.config ->
  ?admission:Mgmt.Admission.config ->
  ?journal:Intent.journal ->
  unit ->
  vpn
(** [secure:true] additionally registers the figure-1 IPsec pair on the
    edge routers: ESP data modules whose "esp-keys" dependency is satisfied
    by IKE control modules (§II-F). [fault_seed] (default 42) seeds the
    fault-injection layer — a no-op until knobs on [faults] are turned;
    [reliability] overrides {!Mgmt.Reliable.default_config}; [admission]
    overrides {!Mgmt.Admission.default_config} (tightening the overload
    budget); [journal] seeds the NM's intent journal (an NM restarting from
    stable storage). All apply to the other builders below too. *)

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

val build_chain :
  ?channel:channel_kind ->
  ?addressed:bool ->
  ?tradeoffs:string list ->
  ?fault_seed:int ->
  ?reliability:Mgmt.Reliable.config ->
  ?admission:Mgmt.Admission.config ->
  ?journal:Intent.journal ->
  int ->
  chain
(** [addressed:false] leaves the ISP routers without addresses: the NM is
    expected to assign them via {!Nm.assign_address}. *)

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

val build_diamond :
  ?channel:channel_kind ->
  ?fault_seed:int ->
  ?reliability:Mgmt.Reliable.config ->
  ?admission:Mgmt.Admission.config ->
  ?journal:Intent.journal ->
  unit ->
  diamond
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

val build_vlan :
  ?channel:channel_kind -> ?fault_seed:int -> ?reliability:Mgmt.Reliable.config -> unit -> vlan
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

val build_vlan_chain :
  ?channel:channel_kind -> ?fault_seed:int -> ?reliability:Mgmt.Reliable.config -> int -> vlan_chain
val vlan_chain_reachable : vlan_chain -> bool
