(** Module references.

    Every protocol module is globally identified by the tuple
    [<module name, module-id, device-id>] (CONMan §II): the module name is
    the protocol ("IP", "GRE", "MPLS", "ETH", "VLAN"), the module id is
    unique within its device (the paper's single letters: g, h, l, …), and
    the device id is globally unique and topology independent. *)

type t = { name : string; mid : string; dev : string }

val v : string -> string -> string -> t
(** [v name mid dev] builds a reference. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Rendered the paper's way: [<GRE,id-A,l>]. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Invalid_argument] on malformed input. *)

val pp : t Fmt.t

val short : t -> string
(** The module id alone — the label used in path signatures ("g"). *)

val qualified : t -> string
(** ["dev.mid"], unambiguous across devices. *)
