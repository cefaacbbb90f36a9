(** The NM's view of the network: physical connectivity learnt from Hello
    announcements, module abstractions harvested with showPotential, and
    the address-domain knowledge the NM holds itself (§III-C — the one
    protocol-specific thing the paper lets the NM keep). *)

type device_info = {
  di_id : string;
  mutable di_links : (string * string * string) list;
      (** (local port, peer device id, peer port) per Hello *)
  mutable di_modules : (Ids.t * Abstraction.t) list;
  mutable di_reachable : bool;
      (** false once the NM exhausts retries against the device; restored
          on a fresh Hello *)
}

type t = {
  mutable devices : device_info list;
  mutable module_domains : (Ids.t * string) list;
  mutable domain_prefixes : (string * string) list;
}

val create : unit -> t
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

val domain_of : t -> Ids.t -> string option
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
