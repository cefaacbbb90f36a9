(** The NM's view of the network: physical connectivity learnt from Hello
    announcements, module abstractions harvested with showPotential, and
    the address-domain knowledge the NM holds itself (§III-C — the one
    protocol-specific thing the paper lets the NM keep).

    A topology owns its potential graph ({!graph}): one numbered index
    of every module, built by the first search after a change. The
    changes that alter what the index reads drop it: a device's module
    list ({!record_potential}), the domain list ({!set_domains}) and
    {!assign}. Links and reachability are not part of it, so Hellos and
    {!set_reachable} keep it; a device they add has no modules yet, so it
    changes nothing the index holds until its own {!record_potential}.
    The types are read-only outside this module, so no other path can
    change the data behind the index's back. *)

type device_info = private {
  di_id : string;
  mutable di_links : (string * string * string) list;
      (** (local port, peer device id, peer port) per Hello *)
  mutable di_modules : (Ids.t * Abstraction.t) list;
  mutable di_reachable : bool;
      (** false once the NM exhausts retries against the device; restored
          on a fresh Hello *)
}

type t = private {
  mutable devices : device_info list;
  mutable module_domains : (Ids.t * string) list;
  mutable domain_prefixes : (string * string) list;
  mutable graph : Potential_graph.t option;  (** read it through {!graph} *)
  mutable graph_builds : int;  (** how many times {!graph} built an index *)
}

val create : unit -> t

val graph : t -> Potential_graph.t
(** The potential graph of the current module lists and domain list,
    built now if a change dropped it (or none was built yet). *)

val assign : t -> from:t -> unit
(** Makes [t] a copy of [from]: its device records (copied, so later
    changes to either stay apart), its domain knowledge and its graph. *)

val device : t -> string -> device_info option
val record_hello : t -> src:string -> (string * string * string) list -> unit
val record_potential : t -> src:string -> (Ids.t * Abstraction.t) list -> unit

val is_reachable : t -> string -> bool
(** Devices the NM has never heard of count as reachable. *)

val set_reachable : t -> string -> bool -> unit

val unreachable : t -> string list
(** Ids of every device currently marked unreachable. *)

val set_domains :
  t -> module_domains:(Ids.t * string) list -> domain_prefixes:(string * string) list -> unit
(** Installs the NM's address knowledge: which domain each IP module
    belongs to, and each domain's prefix. *)

val find_module : t -> Ids.t -> Abstraction.t option
val find_module_exn : t -> Ids.t -> Abstraction.t
val modules_of_device : t -> string -> (Ids.t * Abstraction.t) list

val device_walk :
  t -> within:(string -> bool) -> src:string -> dst:string -> string list option
(** The fewest-hop device walk from [src] to [dst] over physical links
    (BFS), both ends included, stepping only onto devices [within]
    accepts. Neighbours are tried in id order. *)

val pp_table4 : t Fmt.t
(** Renders the network map the way the paper's Table IV does. *)
