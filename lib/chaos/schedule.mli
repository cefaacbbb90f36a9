(** Seeded composite fault schedules over the diamond testbed.

    A schedule is generated from a single splitmix64 seed (the
    {!Mgmt.Faults.Prng} family) and composes every fault injector in the
    stack: link cut/loss/corrupt/flap, management-channel
    drop/duplicate/jitter/partition, agent device crash+restart with
    volatile-state loss, and the NM-level HA faults: primary crash
    (failover), NM<->standby partition (split-brain pressure) and standby
    crash. All durations are capped so injected faults end before the
    quiescence tail, making convergence decidable. Schedules serialise to
    sexp for exact replay. *)

type fault =
  | Link_cut of { seg : string; ticks : int }
  | Link_loss of { seg : string; p : float; ticks : int }
  | Link_corrupt of { seg : string; p : float; ticks : int }
  | Link_flap of { seg : string; cycles : int; down_ms : int; up_ms : int }
  | Mgmt_drop of { p : float; ticks : int }
  | Mgmt_duplicate of { p : float; ticks : int }
  | Mgmt_jitter of { ms : int; ticks : int }
  | Mgmt_partition of { dev : string; ticks : int }
  | Agent_crash of { dev : string; ticks : int }
  | Nm_crash
      (** legacy single-NM journal-restart event; the engine maps it to
          [Nm_failover { ticks = 2 }] — kept for repro-file compat *)
  | Nm_failover of { ticks : int }
      (** the acting primary NM crashes; the standby must detect and
          promote *)
  | Ha_partition of { ticks : int }
      (** NM <-> standby partition while agents stay reachable — the
          split-brain scenario epoch fencing must contain *)
  | Standby_crash of { ticks : int }  (** the non-acting node crashes *)
  | Overload of { intensity : float; ticks : int }
      (** management-plane storm: a burst of low-priority telemetry
          requests ([intensity] scales the per-tick burst size) floods the
          channel for [ticks] ticks; the {!Mgmt.Admission} layer must shed
          it without delaying heartbeats or repair scripts *)
  | Peer_nm_crash of { domain : string; ticks : int }
      (** federation: one domain's NM station crashes for [ticks] ticks
          (process down, state intact). Applied by {!Fed_engine} only;
          {!generate} never emits it. *)
  | Inter_domain_partition of { ticks : int }
      (** federation: the NM stations lose each other while both keep
          reaching their own agents. Applied by {!Fed_engine} only. *)

type event = { at : int  (** monitor tick the fault strikes at *); fault : fault }

type t = {
  seed : int;
  ticks : int;  (** chaos phase length, in monitor ticks *)
  tail : int;  (** quiescence tail: clean ticks granted for re-convergence *)
  events : event list;  (** sorted by [at] *)
}

val core_segments : string list
(** The diamond's core segments ([A--B1] ...), the generator's link targets. *)

val has_ha_fault : t -> bool
(** Whether the schedule crashes or partitions an NM of the HA pair. *)

val has_overload : t -> bool

val with_overload : intensity:float -> t -> t
(** The schedule itself if it has an [Overload] event; otherwise the
    schedule with a 3-tick storm of [intensity] added at tick 1. *)

val generate : ?intensity:float -> seed:int -> ticks:int -> unit -> t
(** [generate ~seed ~ticks ()] derives a schedule deterministically from
    [seed]. [intensity] is events per tick (default 0.5). At most one each
    of [Nm_failover], [Ha_partition], [Standby_crash] and [Overload] per
    schedule; the tail is extended when an HA fault is present. *)

(** {1 Rendering and codec} *)

val pp : t Fmt.t
val to_string : t -> string

val of_string : string -> t
(** Raises {!Conman.Sexp.Parse_error} on malformed input. *)
