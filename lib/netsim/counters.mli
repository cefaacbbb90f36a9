(** Named monotonic counters — the per-pipe/per-device statistics behind
    the performance-reporting part of the module abstraction. *)

type t

type key
(** A counter name, interned: every counter set shares the same keys. *)

val key : string -> key
(** The key of a name; the same name always gives the same key. *)

val create : unit -> t

val incr : t -> key -> unit
val add : t -> key -> int -> unit

val value : t -> key -> int
(** 0 for counters never incremented. *)

val get : t -> string -> int
(** {!value} by name, hashing it: 0 for counters never incremented. *)

val to_list : t -> (string * int) list
(** The counters ever incremented, sorted by name. *)

val reset : t -> unit

val snapshot : t -> (string * int) list
(** Alias of {!to_list}: a point-in-time scrape. *)

val delta : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Scrape-to-scrape difference of two monotonic snapshots. Names absent
    from [before] count from zero; a name whose value went backwards (a
    reset counter) reports 0 instead of a negative delta. *)
