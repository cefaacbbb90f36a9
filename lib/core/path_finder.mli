(** The NM's path finder (§III-C.1).

    A depth-first traversal of the potential-connectivity graph that tracks
    encapsulation and decapsulation so only protocol-"sane" paths survive
    (figure 6(a)), and prunes paths that would peer IP modules from
    different address domains (figure 6(b)). On the figure-4 testbed it
    enumerates exactly the paper's nine paths.

    Every search ({!enumerate}, {!find}, {!find_hierarchical}, {!best},
    {!bounds}) first numbers the modules it may visit into one table:
    [g_from], then every module of the (usable) in-scope devices. Each
    entry holds the module's abstraction, its address domain, its pipe
    bound and its potential-graph neighbours ({!Potential_graph.above_in},
    {!Potential_graph.below_in}, {!Potential_graph.phys_in}) as entry
    numbers, built in one pass over the topology. A search state then costs
    O(1) array reads: an on-path flag per entry stands for the visited set.
    The table lives for one search; nothing is cached across goals. *)

(** What a module does to the traffic at its step of the path. *)
type action = Push | Pop | Inspect

type visit = {
  v_mod : Ids.t;
  v_kind : Abstraction.switch_kind; (** the switch rule this step needs *)
  v_action : action;
  v_chain : int; (** the header chain acted on; see {!base_eth}/{!base_ip} *)
}

type path = { visits : visit list }

(** A high-level connectivity goal: connect two customer-facing ETH modules
    for traffic between two customer sites (§III-C). *)
type goal = {
  g_from : Ids.t; (** customer-facing ETH module at the source site *)
  g_to : Ids.t;
  g_customer : string; (** customer address domain, e.g. "C1" *)
  g_src_domain : string; (** e.g. "C1-S1" *)
  g_dst_domain : string;
  g_src_site : string; (** e.g. "S1" *)
  g_dst_site : string;
  g_tradeoffs : string list; (** performance trade-offs for tunnel pipes *)
  g_scope : string list; (** device ids the NM manages *)
}

val base_eth : int
(** Chain id of the customer's Ethernet frame (popped at entry, restored at
    the exit module). *)

val base_ip : int
(** Chain id of the customer's IP packet (inspected by the edge IP
    modules, never terminated mid-path). *)

(** What one traversal did. *)
type search = {
  completed : path list;
      (** the sane paths it completed, in discovery order: every candidate
          for the enumerator, only the unpruned ones for {!best} *)
  expanded : int; (** search states (module visits) it expanded *)
}

val enumerate : ?prune_domains:bool -> Topology.t -> goal -> search
(** The exhaustive traversal behind {!find}, with its work count. *)

val find : ?prune_domains:bool -> Topology.t -> goal -> path list
(** All protocol-sane paths. [prune_domains:false] disables the
    figure-6(b) address-domain check (ablation). The reference for the
    paper's path counts and for {!best}. *)

val find_hierarchical : ?prune_domains:bool -> Topology.t -> goal -> path list
(** The paper's scalability suggestion (§III-C.3): find a device-level walk
    first (BFS over physical links), then the module-level paths restricted
    to it. *)

val signature : path -> string
(** The paper's rendering: ["a, g, l, h, b, c, i, d, e, j, n, k, f"]. *)

val pp : path Fmt.t

val pipe_count : path -> int
(** Up-down pipes the path would instantiate — the chooser's metric. *)

val choose : Topology.t -> path list -> path option
(** Minimise {!pipe_count}, tie-break on the number of modules along the
    path that advertise fast forwarding; among equals the
    first in the list wins — the rule that makes the NM pick the MPLS
    path, as in the paper. *)

val best :
  ?exclude:string list -> ?usable:(string -> bool) -> Topology.t -> goal -> path option * search
(** The NM's planner: the path {!choose} would pick from
    [find topo goal] after dropping the paths whose {!signature} is in
    [exclude] or that visit a device (endpoints included) for which
    [usable] is false — found by a branch-and-bound over the same
    traversal instead of by enumeration. Branches are pruned once their
    pipes plus the module-level lower bound of {!bounds} exceed the best
    path found so far, so only a few candidates are ever completed. The
    search's table holds only the modules of usable in-scope devices and
    serves both the bound and the traversal. The returned path's
    [v_chain] numbers may differ
    from the enumerator's (they are traversal-global), but its signature
    and generated script are identical. *)

val bounds : ?usable:(string -> bool) -> Topology.t -> goal -> Ids.t -> int option
(** The lower bound {!best} prunes with: for each module of a usable
    in-scope device, the fewest pipes any path from it to [g_to] could
    still instantiate — a 0/1 shortest path over the potential graph where
    a step to a module above or below costs the one pipe {!pipe_count}
    charges for it (if the module can switch that way) and a physical hop
    costs none; computed by a 0/1 BFS over the table's predecessor lists.
    [None] for a module outside the table or that cannot reach [g_to] that
    way; the search never steps onto such a module. *)
