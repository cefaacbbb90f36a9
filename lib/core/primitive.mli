(** The protocol-independent configuration primitives the NM invokes at
    devices (§II-D, Table I): create/delete of pipes, switch rules, filter
    rules and performance-enforcement state. A list of primitives is a
    "CONMan script" in the sense of figures 7(b), 8(b) and 9(b). *)

(** Traffic selectors appearing in switch rules — the one place customer
    address space symbolically leaks into CONMan scripts (the paper's two
    "specific state variables" per script). *)
type selector =
  | Any
  | Dst_domain of string (** e.g. "C1-S2": traffic towards that site *)
  | To_gateway of string (** e.g. "S1-gateway": hand off to the site gateway *)
  | Tagged (** the customer traffic class of the VLAN scenario *)

type switch_rule =
  | Bidi of string * string (** create (switch, m, P1, P2) *)
  | Directed of { from_pipe : string; to_pipe : string; sel : selector }
      (** create (switch, m, [P0, dst:C1-S2 => P1]) *)

type pipe_spec = {
  pipe_id : string; (** NM-assigned, unique along a path *)
  top : Ids.t; (** the module above *)
  bottom : Ids.t;
  peer_top : Ids.t option; (** peer of [top] for this pipe *)
  peer_bottom : Ids.t option;
  tradeoffs : string list; (** requested performance trade-offs *)
  deps : (string * Ids.t) list;
      (** pipe dependencies resolved by the NM to providing (control)
          modules, e.g. [("esp-keys", <IKE,A,m>)] (§II-F) *)
}

type t =
  | Create_pipe of pipe_spec
  | Create_switch of { owner : Ids.t; rule : switch_rule }
  | Create_filter of { owner : Ids.t; drop_src : Ids.t; drop_dst : Ids.t }
  | Create_perf of { owner : Ids.t; pipe_id : string; rate_kbps : int }
      (** performance-enforcement state (§II-D.1(c)) *)
  | Delete_pipe of { owner : Ids.t; pipe_id : string }
  | Delete_switch of { owner : Ids.t; rule : switch_rule }
  | Delete_filter of { owner : Ids.t; drop_src : Ids.t; drop_dst : Ids.t }
  | Delete_perf of { owner : Ids.t; pipe_id : string }

val pp : t Fmt.t
(** Figure-7(b) style rendering. *)

val rule_to_string : switch_rule -> string
(** A switch rule as figure 7(b) writes it, e.g. ["[P0, dst:C1-S2 => P1]"]:
    the form modules report it in, and the form {!pp} prints. *)

val target : t -> string
(** The device id a primitive must be delivered to. *)

val is_deletion : t -> bool
(** Whether the primitive only removes state. Deletions are idempotent at
    the agent: re-executing one against missing state is a no-op, which
    the agent exploits when a back-out bundle is replayed (see Agent). *)

val to_sexp : t -> Sexp.t
val of_sexp : Sexp.t -> t
val equal : t -> t -> bool

(** {1 Table V accounting} *)

val table5_counts : t list -> Devconf.Metrics.counts
