(** The potential-connectivity graph (§III-C.1, figure 5): which up-down
    pipes could exist between the modules of each device, and which
    physical pipes connect physical-facing modules across devices — derived
    purely from the abstractions returned by showPotential. A module is
    physical-facing when it advertises physical pipes, whatever its name.

    The edges are defined once, over a device's module list as given: a
    module could sit above another of its device when each side lists the
    other's name as connectable, and a physical-facing module's wired port
    reaches the peer device's module facing back ({!facing}). {!build}
    turns the whole graph into one numbered index, and {!above}, {!below},
    {!phys_neighbours} and {!pp_device} read that index.

    Who owns it: each {!Topology.t} holds one index ({!Topology.graph}),
    built on first use and dropped by the topology changes that alter what
    it reads (module lists, the domain list). An index never
    changes after {!build}; the path finder keeps every per-search flag in
    its own arrays. *)

(** One module of the index. Neighbours are entry numbers, in the graph's
    order: module-list order for [above] and [below], port order for
    [phys]. *)
type node = {
  id : Ids.t;
  abs : Abstraction.t;
  domain : string option;  (** the module's address domain, if known *)
  above : int array;  (** same-device modules that could sit above *)
  below : int array;  (** same-device modules it could sit above *)
  phys : int array;  (** the remote physical-facing module behind each wired port *)
  paid_preds : int array;
      (** entries whose step onto this one instantiates a pipe: an
          [above] or [below] neighbour the entry can switch towards
          ([phy=>up]/[down=>up] and [down=>down]/[up=>down]) *)
  free_preds : int array;
      (** entries with a physical hop onto this one ([up=>phy]/[phy=>phy]) *)
}

type t

val build :
  devices:(string * (Ids.t * Abstraction.t) list) list -> module_domains:(Ids.t * string) list -> t
(** Numbers every module once: device by device in the order given, each
    device's modules in list order. The first listing of a device, of a
    module and of a module's domain wins. *)

val size : t -> int
val node : t -> int -> node

val entry : t -> Ids.t -> int option
val entry_exn : t -> Ids.t -> int
(** Raises [Failure "topology: unknown module <..>"] for a module the
    index lacks. *)

val modules_of : t -> string -> (Ids.t * Abstraction.t) list
(** A device's module list, as the topology lists it; [[]] if unknown. *)

val device_entries : t -> string -> int array
(** The entry of each module a device lists, in list order. *)

val facing : (Ids.t * Abstraction.t) list -> string -> (Ids.t * string) option
(** [facing modules peer]: the physical-facing module of a device's module
    list towards device [peer] — the first that advertises a physical pipe
    to it — and that pipe's id. *)

val above : t -> Ids.t -> Ids.t list
(** Same-device modules that could sit above [m], in module-list order.
    Raises like {!entry_exn}. *)

val below : t -> Ids.t -> Ids.t list
(** Same-device modules [m] could sit above, in module-list order. Raises
    like {!entry_exn}. *)

val phys_neighbours : t -> Ids.t -> (string * Ids.t * string) list
(** [m]'s wired ports: (phys pipe id, the peer device's module facing
    back, its phys pipe id). Raises like {!entry_exn}. *)

val pp_device : Format.formatter -> t * string -> unit
(** Renders one device's sub-graph the way figure 5 draws device A's. *)
