(* Deterministic fault injection for the management channel.

   CONMan's premise (§III-A) is that management must keep working when the
   network it manages is broken. This layer wraps any [Channel.t] with a
   seeded fault model — per-link frame loss, duplication, delivery jitter,
   device crash/restart and management-plane partition — so the NM's
   discovery, script execution and failover paths can be exercised under
   the conditions the paper actually targets.

   All randomness comes from a private splitmix64 stream seeded at [wrap]
   time: with a fixed seed and a deterministic event queue, every run
   drops, duplicates and delays exactly the same frames. *)

open Netsim

(* The splitmix64 stream every fault injector draws from. Exposed so other
   seeded components (the chaos schedule generator) share one PRNG family
   and stay deterministic under a single root seed. *)
module Prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next_u64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform float in [0, 1) from the top 53 bits *)
  let uniform t =
    Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) /. 9007199254740992.0

  let below t n =
    if n <= 0 then invalid_arg "Faults.Prng.below";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 t) 1) (Int64.of_int n))
end

type counters = {
  mutable dropped : int; (* lost to the random loss model *)
  mutable duplicated : int;
  mutable delayed : int; (* sends deferred by reordering jitter *)
  mutable crash_drops : int; (* blocked because an endpoint is crashed *)
  mutable partition_drops : int; (* blocked by a management partition *)
}

type t = {
  eq : Event_queue.t;
  prng : Prng.t;
  mutable default_drop : float;
  link_drop : (string * string, float) Hashtbl.t; (* directed (src, dst) *)
  mutable dup_prob : float;
  mutable jitter_ns : int64;
  crashed : (string, unit) Hashtbl.t;
  partitioned : (string, unit) Hashtbl.t;
  counters : counters;
}

let next_u64 t = Prng.next_u64 t.prng
let uniform t = Prng.uniform t.prng

(* --- knobs ------------------------------------------------------------- *)

let set_drop t ?src ?dst p =
  match (src, dst) with
  | None, None -> t.default_drop <- p
  | Some s, Some d -> Hashtbl.replace t.link_drop (s, d) p
  | _ -> invalid_arg "Faults.set_drop: give both src and dst, or neither"

let set_duplicate t p = t.dup_prob <- p
let set_jitter t ns = t.jitter_ns <- ns
let crash t id = Hashtbl.replace t.crashed id ()
let restart t id = Hashtbl.remove t.crashed id
let is_crashed t id = Hashtbl.mem t.crashed id
let partition t id = Hashtbl.replace t.partitioned id ()
let heal t id = Hashtbl.remove t.partitioned id
let counters t = t.counters

(* Registry-source form of the counters (see Obs.Registry in lib/obs). *)
let obs_counters t =
  let c = t.counters in
  [
    ("dropped", c.dropped);
    ("duplicated", c.duplicated);
    ("delayed", c.delayed);
    ("crash_drops", c.crash_drops);
    ("partition_drops", c.partition_drops);
  ]

let reset_counters t =
  let c = t.counters in
  c.dropped <- 0;
  c.duplicated <- 0;
  c.delayed <- 0;
  c.crash_drops <- 0;
  c.partition_drops <- 0

let clear t =
  t.default_drop <- 0.;
  Hashtbl.reset t.link_drop;
  t.dup_prob <- 0.;
  t.jitter_ns <- 0L;
  Hashtbl.reset t.crashed;
  Hashtbl.reset t.partitioned

(* Fault tables are empty in a healthy deployment, so each check below
   skips its lookups (and the key it would hash) until a knob is set. *)
let drop_prob t src dst =
  if Hashtbl.length t.link_drop = 0 then t.default_drop
  else
    match Hashtbl.find_opt t.link_drop (src, dst) with
    | Some p -> p
    | None -> t.default_drop

let names tbl a b = Hashtbl.length tbl > 0 && (Hashtbl.mem tbl a || Hashtbl.mem tbl b)

(* The send-side check: a broadcast [dst] is not a station. *)
let blocks tbl ~src ~dst =
  Hashtbl.length tbl > 0
  && (Hashtbl.mem tbl src || (dst <> Frame.broadcast && Hashtbl.mem tbl dst))

(* --- the wrapper -------------------------------------------------------- *)

let wrap ?(seed = 0) ~eq inner =
  let t =
    {
      eq;
      prng = Prng.create seed;
      default_drop = 0.;
      link_drop = Hashtbl.create 8;
      dup_prob = 0.;
      jitter_ns = 0L;
      crashed = Hashtbl.create 4;
      partitioned = Hashtbl.create 4;
      counters =
        { dropped = 0; duplicated = 0; delayed = 0; crash_drops = 0; partition_drops = 0 };
    }
  in
  let send ~cls ~src ~dst payload =
    if blocks t.crashed ~src ~dst then t.counters.crash_drops <- t.counters.crash_drops + 1
    else if blocks t.partitioned ~src ~dst then
      t.counters.partition_drops <- t.counters.partition_drops + 1
    else
      let p = drop_prob t src dst in
      if p > 0. && uniform t < p then t.counters.dropped <- t.counters.dropped + 1
      else begin
        let forward () = Channel.send inner ~cls ~src ~dst payload in
        let ship () =
          if t.jitter_ns > 0L then begin
            t.counters.delayed <- t.counters.delayed + 1;
            let d = Int64.rem (Int64.shift_right_logical (next_u64 t) 1) t.jitter_ns in
            Event_queue.schedule t.eq ~delay_ns:d forward
          end
          else forward ()
        in
        ship ();
        if t.dup_prob > 0. && uniform t < t.dup_prob then begin
          t.counters.duplicated <- t.counters.duplicated + 1;
          ship ()
        end
      end
  in
  (* Crash and partition are also enforced at delivery time, so frames
     already in flight when the fault strikes are lost too. *)
  let subscribe id h =
    Channel.subscribe inner ~device_id:id (fun ~src payload ->
        if names t.crashed id src then t.counters.crash_drops <- t.counters.crash_drops + 1
        else if names t.partitioned id src then
          t.counters.partition_drops <- t.counters.partition_drops + 1
        else h ~src payload)
  in
  (Channel.make ~send ~subscribe ~stats:(Channel.stats inner), t)
