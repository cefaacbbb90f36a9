(** Per-goal causal tracing.

    A goal (an [Nm.achieve], a federated two-phase achieve, a back-out)
    opens a root span; every piece of work done on its behalf — a bundle
    sent to an agent, a script slice delegated to a peer NM, a failover
    replay — opens a child span carrying the same goal id. The context
    travels on the wire (see [Wire.Traced]) so spans created on another
    station still parent correctly, and events raised by layers that
    cannot see the goal (Reliable retries, Admission shedding) are routed
    to the owning span by decoding the context out of the payload.

    Collectors are bounded: past [limit] spans the oldest are dropped and
    counted, so chaos soaks with tracing on keep constant memory. *)

type ctx = { goal : int; span : int; parent : int }
(** What travels on the wire: which goal, which span is doing the work,
    and that span's parent. [parent = 0] marks a root. *)

type span = {
  s_goal : int;
  s_id : int;
  s_parent : int;  (** 0 for a root span *)
  s_name : string;
  s_station : string;  (** collector that owns the span *)
  s_start : int;  (** tick at which the span opened *)
  mutable s_end : int;  (** -1 while open *)
  mutable s_status : string;  (** "" while open; "ok" / "failed: ..." *)
  mutable s_events : (int * string) list;  (** (tick, what), oldest first *)
}

type t
(** A bounded per-station span collector. *)

val create : ?limit:int -> station:string -> unit -> t
val station : t -> string

val set_clock : t -> (unit -> int) -> unit
(** The tick source used to stamp span starts, ends and events. *)

val now : t -> int
(** The collector's current tick. *)

val reset_ids : unit -> unit
(** Reset the global span-id allocator — seeded chaos runs call this so
    the same schedule always yields the same span tree. *)

val start : ?parent:ctx -> t -> string -> ctx
(** [start t name] opens a span. Without [?parent] it is a root: its goal
    id is its own span id. With [?parent] it joins that context's goal. *)

val event : t -> ctx -> string -> unit
val finish : t -> ctx -> status:string -> unit
val find : t -> int -> span option
val spans : t -> span list
(** Oldest first. *)

val dropped : t -> int
val clear : t -> unit

(** {2 Cross-collector queries} — a federated goal's spans live in several
    collectors; these operate over the union. *)

val route_event : t list -> ctx -> string -> unit
(** Attach an event to the span named by [ctx] in whichever collector
    holds it; silently dropped if no collector does (span evicted). *)

val goal_spans : t list -> int -> span list
(** Every span of one goal across the collectors, sorted by id. *)

val orphans : t list -> int -> span list
(** Spans of the goal whose parent id is neither 0 nor present in the
    goal's span set — a connectivity violation. *)

val connected : t list -> int -> bool
(** True iff the goal has exactly one root and no orphans. *)

val goals : t list -> int list
(** Every goal id with at least one span, ascending. *)

val render : t list -> int -> string
(** The goal's span tree, one line per span/event, indented by depth. *)
