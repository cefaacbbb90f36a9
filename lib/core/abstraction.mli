(** The Module Abstraction (§II-C, Table II): the generic self-description
    every protocol module exposes through showPotential. The NM reasons
    about the network exclusively in these terms — what a module could
    connect to, how it can switch and filter, the performance trade-offs it
    offers, what it depends on — never in protocol parameters. *)

type switch_kind = Up_down | Down_up | Down_down | Up_up | Up_phy | Phy_up | Phy_phy
(** The paper's basic switch configurations (§II-C.2). [Up_down]/[Up_phy]
    encapsulate (push the module's header), [Down_up]/[Phy_up] decapsulate,
    the rest process the header in place. *)

val switch_kind_to_string : switch_kind -> string

type switch_origin = Local | External
(** Whether the switch state is generated by the module itself (through
    peer coordination) or must be provided externally (Table II). *)

type tradeoff = { gives : string list; costs : string list }
(** A performance trade-off (§II-C.4), e.g. gives in-order-delivery, costs
    jitter and delay — without exposing the option implementing it. *)

type pipe_side = {
  connectable : string list; (** module names this side can connect to *)
  dependencies : string list; (** must be satisfied before pipe creation *)
}

type physical_pipe = {
  phys_id : string;
  peer_device : string; (** "" when unplugged *)
  peer_port : string;
  broadcast : bool;
}

type t = {
  name : string;
      (** protocol name: "IP", "GRE", "MPLS", "ETH", "VLAN", … The NM
          compares names only with each other (connectable, peerable and
          header matching), never with a protocol it knows. *)
  up : pipe_side option; (** [None]: cannot have up pipes *)
  down : pipe_side option;
  physical : physical_pipe list;
  peerable : string list; (** modules that can be peers (Table II) *)
  filterable : string list; (** component kinds filter rules may reference *)
  switch : switch_kind list;
  switch_origin : switch_origin;
  multicast : bool;
  perf_reporting : string list; (** counters reported per pipe *)
  perf_tradeoffs : tradeoff list;
  perf_enforcement : string list; (** e.g. "rate-limit" *)
  security : string list; (** e.g. "confidentiality", "integrity" *)
  provides : string list;
      (** control modules advertise the dependency names they satisfy
          (§II-F), e.g. IKE provides "esp-keys" *)
  fast_forwarding : bool;
      (** the forwarding-bandwidth hint the paper's chooser uses to prefer
          the MPLS path *)
  reports_completion : bool;
      (** the module reports a [Completion] to the NM once the path it
          sits on is established (MPLS and VLAN do); the script names the
          last such module on the path as its reporter. Carried by the
          codec, not printed in Tables III/IV. *)
}

val default : t
(** Everything empty/disabled; concrete modules override fields. *)

val can_switch : t -> switch_kind -> bool

val to_sexp : t -> Sexp.t
val of_sexp : Sexp.t -> t

val pp_table3 : t Fmt.t
(** Renders an abstraction the way the paper's Table III does. *)

val pp_table4_line : t Fmt.t
(** One-line rendering in the style of Table IV. *)
