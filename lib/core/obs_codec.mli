(** Sexp codec for {!Obs.Trace} contexts and spans. The context codec is
    what {!Wire.Traced} frames carry; the span codec serializes whole
    traces for export (CLI, chaos violation reports). Both [of_sexp]
    directions raise only {!Sexp.Parse_error} on malformed input. *)

val ctx_to_sexp : Obs.Trace.ctx -> Sexp.t
val ctx_of_sexp : Sexp.t -> Obs.Trace.ctx
val span_to_string : Obs.Trace.span -> string

val span_of_string : string -> Obs.Trace.span
(** Raises only {!Sexp.Parse_error}, converting anything a nested parse
    throws — same contract as {!Wire.decode}. *)
