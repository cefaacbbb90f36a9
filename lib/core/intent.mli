(** Desired-state intents and their write-ahead journal.

    Every state-changing NM operation records an intent {e before}
    configuring anything, journalled as sexp entries so the desired state
    of the network survives an NM crash: a restarted NM replays the
    journal, rebuilds its intent set and re-converges ({!Nm.recover}). The
    {!Monitor} loop then keeps each live intent healthy. *)

(** What the operator asked for. *)
type spec =
  | Connect of Path_finder.goal  (** a layer-3 connectivity goal *)
  | Connect_l2 of { scope : string list; from_eth : Ids.t; to_eth : Ids.t }
  | Address of { target : Ids.t; addr : string; plen : int }
  | Rate of { owner : Ids.t; pipe_id : string; rate_kbps : int }

type status =
  | Pending  (** journalled, not yet (successfully) configured *)
  | Active  (** configured; last probe healthy *)
  | Degraded  (** unhealthy; the monitor is attempting repairs *)
  | Failed  (** repairs exhausted; escalated to the error report *)
  | Retired  (** torn down *)

type t = {
  id : int;
  spec : spec;
  mutable status : status;
  mutable script : Script_gen.script option;
      (** the configuration currently realising the intent *)
  mutable expected : (string * string list) list;
      (** per-device structural state keys snapshotted when last healthy —
          the baseline for the monitor's drift check *)
  mutable tags : (string * string) list;
      (** per device, the {!Wire.state_tag} of the last show_actual state
          the drift check found free of drift; its reads of that device
          are conditional on it *)
  mutable tried : string list;
      (** path signatures tried and failed since last healthy *)
  mutable journal_sig : string option;
      (** last path signature journalled via [Bind] — lets a recovered NM
          regenerate the dead incarnation's script and back its datapath
          state out before re-achieving (see {!Nm.reconfigure}) *)
  mutable repairs : int;  (** successful re-achievements *)
  mutable repair_attempts : int;  (** consecutive attempts since last healthy *)
  mutable probe_failures : int;
  mutable last_error : string option;
}

val make : id:int -> spec -> t
val clear_baseline : t -> unit
(** Forgets the drift check's baseline: [expected] and [tags]. *)

val note_error : t -> string -> unit
val spec_equal : spec -> spec -> bool
val kind : t -> string
val status_to_string : status -> string

(** {1 Sexp codec} *)

val spec_to_sexp : spec -> Sexp.t
val spec_of_sexp : Sexp.t -> spec

(** {1 Journal} *)

type entry =
  | Begin of int * spec  (** the intent exists (written before configuring) *)
  | Commit of int  (** its configuration applied successfully at least once *)
  | Retire of int  (** torn down *)
  | Bind of int * string
      (** bound to a script over the path with this signature — written on
          every (re)bind so recovery can reclaim stale datapath state *)

val entry_to_sexp : entry -> Sexp.t
val entry_of_sexp : Sexp.t -> entry

type journal
(** A write-ahead journal. Every appended entry gets an absolute sequence
    number (1, 2, …). The journal {e holds} every entry of the intents that
    are not retired, and the entries of the {!log_capacity} retired intents
    with the highest ids; the other retired intents are {e compacted}
    away. Compaction is amortised: once [2 * log_capacity] retired intents
    are held, one pass keeps only the highest [log_capacity]. It never
    renumbers, never changes what {!replay} or {!next_id} return (the
    newest intent is always held), and never drops an entry whose sequence
    number is above the journal's floor (see {!set_floor}). *)

val log_capacity : int
(** The retired intents a journal keeps (256) — the same bound as the NM's
    log rings ({!Nm.log_capacity}). *)

val journal : unit -> journal
(** An empty journal, with no floor: it compacts freely. *)

val append : journal -> entry -> unit
(** Appends an entry under sequence number [length j + 1]. *)

val on_append : journal -> (entry -> unit) -> unit
(** Durability hook, called with each entry as it is appended (e.g. to
    write it through to stable storage). *)

val set_floor : journal -> (unit -> int) -> unit
(** Compaction never drops an entry whose sequence number is above the
    value this returns when it runs. An HA primary sets it to what its
    standby has acknowledged ({!Ha.create}), so it keeps every entry the
    standby may still need; the standby's floor stays 0, so it keeps
    everything. *)

val length : journal -> int
(** Entries ever appended — the newest sequence number, in O(1). Counts
    the compacted entries too. *)

val entries : journal -> entry list
(** The held entries, in append order. *)

val since : journal -> int -> (int * entry) list
(** [since j n]: the held entries with sequence numbers above [n], with
    those numbers, in append order. Walks only that tail. *)

val catch_up : journal -> from:journal -> unit
(** Appends [from]'s held entries above [length j] under their own
    sequence numbers and takes on [from]'s length, so [j] numbers every
    later entry as [from] does — even when [from] has compacted. Assumes
    [j]'s entries are a prefix of [from]'s. *)

val compacted : journal -> int
(** Retired intents compaction has dropped. *)

val journal_to_string : journal -> string
(** The held entries, one sexp entry per line — the durable representation. *)

val journal_of_string : string -> journal
(** Inverse of {!journal_to_string}, numbering the entries from 1; raises
    {!Sexp.Parse_error} on malformed input. *)

val replay : journal -> t list
(** Rebuilds the live (non-retired) intents in id order: [Begin] creates a
    [Pending] intent, [Commit] promotes it to [Active], [Retire] drops it.
    Scripts and health are runtime state, left for {!Nm.recover} and the
    monitor to re-establish. *)

val next_id : journal -> int
(** 1 + the highest intent id journalled (1 for an empty journal). *)
