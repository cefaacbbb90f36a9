(** Translation of a chosen path into the CONMan primitive script
    (§III-C.1, figures 7(b)/8(b)): pipe creations with peer assignments
    derived from the encapsulation chains, followed by one switch rule per
    mid-path module, grouped per device for bundle delivery. *)

type script = {
  prims : Primitive.t list; (** the full script in path order *)
  per_device : (string * Primitive.t list) list; (** grouped, order kept *)
  reporter : Ids.t option;
      (** module that reports completion to the NM: the last one on the
          path whose abstraction says it reports completion (the far-edge
          MPLS module of a label-switched path) *)
  path : Path_finder.path;
}

val generate : Topology.t -> Path_finder.goal -> Path_finder.path -> script

val deletion_script : script -> script
(** The inverse script: switch rules removed first (in reverse creation
    order), then the pipes. *)

val pp_device_script : Format.formatter -> Primitive.t list -> unit
(** Renders a per-device slice the way figure 7(b) prints it. *)

val table5_counts : script -> device:string -> Devconf.Metrics.counts
(** Generic/specific command and state-variable counts for one device's
    slice — the CONMan column of Table V. *)
