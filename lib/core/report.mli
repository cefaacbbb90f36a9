(** Reproduction reporting: regenerates each table and figure of the paper
    from live runs. Shared by the benchmark harness, the examples and the
    CLI; see EXPERIMENTS.md for the paper-vs-measured discussion. *)

val table3 : Format.formatter -> unit -> unit
val table4 : Format.formatter -> Scenarios.vpn -> unit
val fig2 : Format.formatter -> Scenarios.vpn -> unit
val fig3 : Format.formatter -> unit -> unit
val fig5 : Format.formatter -> Scenarios.vpn -> unit
val fig6 : Format.formatter -> Scenarios.vpn -> unit
val fig7 : Format.formatter -> unit -> unit
val fig8 : Format.formatter -> unit -> unit
val fig9 : Format.formatter -> unit -> unit

val paths9 : Format.formatter -> Scenarios.vpn -> Path_finder.path list
(** Prints and returns the path enumeration (the "9 paths" result). *)

(** {1 Table V} *)

type table5_row = {
  t5_label : string;
  t5_today : Devconf.Metrics.counts;
  t5_conman : Devconf.Metrics.counts;
}

val table5 : Format.formatter -> unit -> unit

(** {1 Table VI} *)

type table6_row = { t6_n : int; t6_scenario : string; t6_sent : int; t6_received : int }

val table6_row_gre : int -> table6_row
val table6 : ?ns:int list -> Format.formatter -> unit -> unit

(** {1 Extensions and ablations} *)

val security : Format.formatter -> unit -> unit
(** The ESP + IKE dependency story (figure 1). *)

val ablations : Format.formatter -> unit -> unit
(** Domain pruning on/off, script bundling on/off, full vs hierarchical
    path search on the diamond topology. *)
