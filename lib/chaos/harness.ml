(* The chaos driver shared by the diamond/HA engine and the federation
   engine. A run has two phases. During the chaos phase each tick first
   fires the reverts that are due, then applies the schedule events due
   at that tick, then ticks the deployment. After the last chaos tick
   every outstanding fault is force-reverted and the quiescence tail
   begins: up to [tail] clean ticks for the deployment to report healthy.

   Events are resolved before the first tick, so a repro naming a
   segment, device or domain the deployment lacks is rejected before
   anything runs rather than crashing the run halfway. *)

type verdict = { name : string; ok : bool; detail : string }

let pp_verdict ppf v =
  Fmt.pf ppf "%-20s %s  %s" v.name (if v.ok then "ok  " else "FAIL") v.detail

type until = int -> (unit -> unit) -> unit
type action = until:until -> int -> unit

type deployment = {
  faults : Mgmt.Faults.t;
  apply : Schedule.fault -> action;
  tick : int -> unit;
  clear : unit -> unit;
  healthy : unit -> bool;
}

let skip ~until:_ _ = ()

let drive (sched : Schedule.t) d =
  let events =
    List.map (fun (e : Schedule.event) -> (e.Schedule.at, d.apply e.Schedule.fault))
      sched.Schedule.events
  in
  let reverts = ref [] in (* (due_tick, undo), newest first *)
  let fire_reverts tick =
    let due, later = List.partition (fun (at, _) -> at <= tick) !reverts in
    reverts := later;
    List.iter (fun (_, undo) -> undo ()) due
  in
  (* --- chaos phase --- *)
  for tick = 0 to sched.Schedule.ticks - 1 do
    fire_reverts tick;
    let until ticks undo = reverts := (tick + ticks, undo) :: !reverts in
    List.iter (fun (at, act) -> if at = tick then act ~until tick) events;
    d.tick tick
  done;
  (* --- force quiescence --- *)
  fire_reverts max_int;
  Mgmt.Faults.clear d.faults;
  d.clear ();
  (* --- quiescence tail --- *)
  let rec tail k =
    if k > sched.Schedule.tail then None
    else begin
      d.tick (sched.Schedule.ticks + k - 1);
      if d.healthy () then Some k else tail (k + 1)
    end
  in
  tail 1

let channel_fault faults (f : Schedule.fault) : action =
  match f with
  | Schedule.Mgmt_drop { p; ticks } ->
      fun ~until _ ->
        Mgmt.Faults.set_drop faults p;
        until ticks (fun () -> Mgmt.Faults.set_drop faults 0.0)
  | Schedule.Mgmt_duplicate { p; ticks } ->
      fun ~until _ ->
        Mgmt.Faults.set_duplicate faults p;
        until ticks (fun () -> Mgmt.Faults.set_duplicate faults 0.0)
  | Schedule.Mgmt_jitter { ms; ticks } ->
      fun ~until _ ->
        Mgmt.Faults.set_jitter faults (Int64.mul (Int64.of_int ms) 1_000_000L);
        until ticks (fun () -> Mgmt.Faults.set_jitter faults 0L)
  | _ -> invalid_arg "Harness.channel_fault: not a channel fault"

let partition_stations faults a b ~ticks ~until _ =
  Mgmt.Faults.set_drop faults ~src:a ~dst:b 1.0;
  Mgmt.Faults.set_drop faults ~src:b ~dst:a 1.0;
  until ticks (fun () ->
      Mgmt.Faults.set_drop faults ~src:a ~dst:b 0.0;
      Mgmt.Faults.set_drop faults ~src:b ~dst:a 0.0)
