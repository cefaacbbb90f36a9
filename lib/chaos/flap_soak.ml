(* A seeded flap soak on the diamond: the Monitor, with telemetry over
   every device, keeps one goal alive while the core link it crosses is
   cut again and again under a lossy management channel. The flaps are
   generated one at a time as virtual time advances, from the path the
   goal holds when the previous flap is over. *)

open Conman
module Prng = Mgmt.Faults.Prng

type report = {
  cuts : int;
  repaired : (int64 * string) list;
  repairs : int;
  failed_attempts : int;
  repair_messages : int;
}

let ms n = Int64.mul (Int64.of_int n) 1_000_000L

(* The Monitor's log lines for a repair and for a failed attempt. *)
let repaired_log = "repaired over alternate path ["
let not_restored_log = "repair attempt did not restore connectivity"

(* "repaired over alternate path [<signature>]" -> the signature *)
let repaired_onto what =
  if String.starts_with ~prefix:repaired_log what then
    let p = String.length repaired_log in
    Some (String.sub what p (String.length what - p - 1))
  else None

let run ~seed ~ticks =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm and net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  (match Nm.achieve nm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> failwith ("flap soak: achieve: " ^ e));
  let mon = Monitor.create ~telemetry:(Telemetry.create ~scope:d.Scenarios.dscope nm) nm in
  Mgmt.Faults.set_drop d.Scenarios.dfaults 0.1;
  let rng = Prng.create seed in
  let now () = Netsim.Event_queue.now (Netsim.Net.eq net) in
  let messages () = Nm.stats_sent nm + Nm.stats_received nm in
  let next_at = ref 0L and cuts = ref [] and repair_messages = ref 0 in
  for tick = 1 to ticks do
    (if tick <= ticks - 10 && now () >= !next_at then
       match Nm.intents nm with
       | [ { Intent.script = Some s; _ } ] ->
           let crosses_b1 =
             List.exists
               (fun (v : Path_finder.visit) -> v.Path_finder.v_mod.Ids.dev = "id-B1")
               s.Script_gen.path.Path_finder.visits
           in
           let core = if crosses_b1 then "B1" else "B2" in
           let name = if List.length !cuts mod 2 = 0 then "A--" ^ core else core ^ "--C" in
           let seg = Netsim.Net.find_segment_exn net name in
           let offset = ms (Prng.below rng 500) in
           let down = ms (1500 + Prng.below rng 2000) in
           let gap = ms (1000 + Prng.below rng 2000) in
           Netsim.Link.schedule_cut seg ~delay_ns:offset;
           Netsim.Link.schedule_restore seg ~delay_ns:(Int64.add offset down);
           cuts := Int64.add (now ()) offset :: !cuts;
           next_at := Int64.add (now ()) (Int64.add offset (Int64.add down gap))
       | _ -> ());
    let logged = List.length (Monitor.events mon) and before = messages () in
    Monitor.tick mon;
    if List.length (Monitor.events mon) > logged then
      repair_messages := !repair_messages + messages () - before
  done;
  let events = Monitor.events mon in
  let repairs =
    List.filter_map
      (fun (e : Monitor.event) ->
        Option.map (fun sg -> (e.Monitor.ev_time, sg)) (repaired_onto e.Monitor.ev_what))
      events
  in
  {
    cuts = List.length !cuts;
    repaired =
      List.filter_map
        (fun cut ->
          List.find_opt (fun (at, _) -> at >= cut) repairs
          |> Option.map (fun (at, sg) -> (Int64.sub at cut, sg)))
        (List.rev !cuts);
    repairs = Monitor.repairs mon;
    failed_attempts =
      List.length
        (List.filter
           (fun (e : Monitor.event) ->
             String.starts_with ~prefix:not_restored_log e.Monitor.ev_what)
           events);
    repair_messages = !repair_messages;
  }
