(** A seeded flap soak on the diamond: one goal kept alive by a
    {!Conman.Monitor} with telemetry over every device, while the core link
    the goal crosses is cut again and again under 10% management-frame
    loss.

    Each cut falls inside the coming tick, alternately on the A-side and
    the C-side link of the core the goal currently crosses, and lasts
    1.5-3.5 s; the next waits 1-3 s after the restore. So every cut forces
    a reroute and both cores are never down together. No cut is scheduled
    in the last 10 ticks, so every cut has ticks left to be repaired in.
    Deterministic: the same seed gives the same report. *)

type report = {
  cuts : int;
  repaired : (int64 * string) list;
      (** per cut, in cut order, of those a repair followed: the virtual
          ns from the cut to the first repair after it, and the path
          signature it repaired onto *)
  repairs : int;  (** the Monitor's successful reroutes *)
  failed_attempts : int;  (** repair attempts that did not restore connectivity *)
  repair_messages : int;
      (** NM messages (sent and received) in the ticks that logged a
          Monitor event *)
}

val run : seed:int -> ticks:int -> report
