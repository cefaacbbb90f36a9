(** The chaos driver both soaks share. A {!deployment} says how to apply
    its own faults, what one tick is and when it is healthy; {!drive}
    owns the rest: the revert schedule, the chaos phase, forced
    quiescence and the quiescence tail. {!Engine} (diamond + HA pair) and
    {!Fed_engine} (two-domain federation) are its two deployments. *)

type verdict = { name : string; ok : bool; detail : string }
(** One checked invariant. *)

val pp_verdict : verdict Fmt.t
(** [name  ok|FAIL  detail], the name padded to 20 columns. *)

type until = int -> (unit -> unit) -> unit
(** [until ticks undo], called while applying a fault at chaos tick [t],
    runs [undo] at the start of tick [t + ticks], before that tick's
    events, or at forced quiescence if the chaos phase ends first. *)

type action = until:until -> int -> unit
(** Applies one resolved fault at the given chaos tick. *)

type deployment = {
  faults : Mgmt.Faults.t;  (** the management channel's fault layer *)
  apply : Schedule.fault -> action;
      (** Resolves a fault. {!drive} resolves every event before the first
          tick, so a deployment looks up each segment, device or domain
          the fault names here and raises [Invalid_argument] naming one it
          lacks. A fault meant for another deployment resolves to {!skip}. *)
  tick : int -> unit;  (** one tick, chaos or tail, numbered from 0 across both *)
  clear : unit -> unit;  (** at forced quiescence: clears what reverts do not *)
  healthy : unit -> bool;  (** checked after each tail tick *)
}

val drive : Schedule.t -> deployment -> int option
(** Resolves the schedule's events, then runs the chaos phase: per tick,
    fire due reverts, apply that tick's events in list order, then
    [tick]. Then forces quiescence: every pending revert fires, the
    channel faults clear, then [clear] runs. Then runs up to [tail] tail
    ticks and returns the first (1-based) after which [healthy] held, or
    [None]. *)

val skip : action
(** The action of a fault the deployment does not model. *)

val channel_fault : Mgmt.Faults.t -> Schedule.fault -> action
(** Management-channel drop, duplication or jitter for its duration.
    Raises [Invalid_argument] on any other fault. *)

val partition_stations : Mgmt.Faults.t -> string -> string -> ticks:int -> action
(** Drops every frame between two stations, both ways, for [ticks] ticks. *)
