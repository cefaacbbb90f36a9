(** A miniature shell, just big enough to run the paper's configuration
    scripts (figures 7(a) and 8(a)): comments, variable assignment by
    command substitution with grep/cut pipelines, and [$VAR] expansion
    (names may contain '-', as the paper's [KEY-S1-S2] does). *)

exception Error of string

type t

val create : (string list -> string) -> t
(** [create exec] builds a shell whose commands are run by [exec argv],
    returning their stdout. *)

val run : t -> string -> unit
(** Runs a whole (newline-separated) script. *)

val get_var : t -> string -> string option

val parse_assignment : string -> (string * string) option
(** [parse_assignment "N=`cmd | f`"] is [Some ("N", "cmd | f")] — exposed
    for the Table-V script classifier. *)

