(** Discrete-event scheduler; deterministic FIFO order at equal timestamps. *)

type t

exception Budget_exhausted

val create : unit -> t
val now : t -> int64

val pending : t -> int
(** Events scheduled and not yet run or cancelled. *)

val processed : t -> int
val schedule : t -> delay_ns:int64 -> (unit -> unit) -> unit

type timer
(** A scheduled event, for {!cancel}: an immediate value, so holding one
    allocates nothing. *)

val timer : t -> delay_ns:int64 -> (unit -> unit) -> timer
(** {!schedule}, returning the event's handle. At most 2{^22} events may
    be pending at once. *)

val no_timer : timer
(** A handle that names no event, to initialise a field with. *)

val cancel : t -> timer -> unit
(** Takes the event off the queue: it never runs and never moves the clock,
    and {!pending} no longer counts it. Cancelling an event that already
    ran or was cancelled does nothing. Allocates nothing. *)

val run : ?max_events:int -> t -> int
(** Runs events until the queue drains; returns the number processed.
    Raises {!Budget_exhausted} past [max_events] (guards against loops). *)

val run_until : ?max_events:int -> t -> deadline:int64 -> int
(** Runs events with timestamps [<= deadline], then advances the clock to
    [deadline], leaving later events pending. Lets a driver interleave
    scheduled faults (link flaps, probes) with the simulation instead of
    fast-forwarding through them. Returns the number processed; raises
    {!Budget_exhausted} past [max_events]. *)

val run_while : ?max_events:int -> t -> deadline:int64 -> (unit -> bool) -> int
(** Runs events with timestamps [<= deadline] while [busy ()] holds, tested
    before each event, and leaves the clock at the last event it ran: a
    bounded run that ends when the work it waits for is done and consumes
    no more virtual time than its events took. Returns the number
    processed; raises {!Budget_exhausted} past [max_events]. *)
