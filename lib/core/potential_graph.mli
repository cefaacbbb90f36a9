(** The potential-connectivity graph (§III-C.1, figure 5): which up-down
    pipes could exist between the modules of each device, and which
    physical pipes connect ETH modules across devices — derived purely from
    the abstractions returned by showPotential.

    The list-based functions ([below_in], [above_in], [phys_in]) are the
    one definition of the graph: they read a device's module list as
    given, so a caller holding its own index of the topology (the path
    finder's per-search table) sees exactly the edges that {!below} and
    {!phys_neighbours} derive through {!Topology}. *)

val connectable : Abstraction.t -> Abstraction.t -> bool
(** [connectable top bottom]: could [top] have a down pipe to [bottom]? *)

val below_in : (Ids.t * Abstraction.t) list -> Ids.t -> Abstraction.t -> Ids.t list
(** [below_in modules m am]: the modules of [modules] (the module list of
    [m]'s device) that [m], whose abstraction is [am], could sit above; in
    list order. *)

val above_in : (Ids.t * Abstraction.t) list -> Ids.t -> Abstraction.t -> Ids.t list
(** [above_in modules m am]: the modules of [modules] that could sit
    above [m]; in list order. *)

val phys_in :
  modules_of:(string -> (Ids.t * Abstraction.t) list) ->
  Ids.t ->
  Abstraction.t ->
  (string * Ids.t * string) list
(** [phys_in ~modules_of m am]: [(local phys pipe id, remote ETH module,
    remote phys pipe id)] per wired port of [m], in port order. The remote
    module is the first ETH module of the peer device, as [modules_of]
    lists it, with a physical pipe back to [m]'s device. *)

val below : Topology.t -> Ids.t -> Ids.t list
(** Same-device modules [m] could sit above: {!below_in} over the
    topology's module list of [m]'s device. *)

val phys_neighbours : Topology.t -> Ids.t -> (string * Ids.t * string) list
(** {!phys_in} with the topology's module lists. *)

val pp_device : Format.formatter -> Topology.t * string -> unit
(** Renders one device's sub-graph the way figure 5 draws device A's. *)
