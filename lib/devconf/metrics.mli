(** Aggregation of per-line classifications into the paper's Table V rows:
    distinct generic/specific commands and state variables per script. *)

type counts = {
  generic_cmds : string list;
  specific_cmds : string list;
  generic_vars : string list;
  specific_vars : string list;
}

val n_generic_cmds : counts -> int
val n_specific_cmds : counts -> int
val n_generic_vars : counts -> int
val n_specific_vars : counts -> int

val make : cmds:(string * Classify.klass) list -> vars:(string * Classify.klass) list -> counts
(** Deduplicates; a value counted as specific anywhere is not also counted
    as generic. *)

val analyze_linux : string -> counts
(** Table-V counts for a Linux-dialect script (figures 7(a)/8(a)). *)

val analyze_catos : string -> counts
(** Table-V counts for a CatOS-dialect script (figure 9(a)). *)
