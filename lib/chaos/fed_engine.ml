(* Chaos over the federated two-domain deployment: a seeded schedule of
   management-channel faults plus the two federation-specific events —
   Peer_nm_crash (one domain's NM station goes down, state intact) and
   Inter_domain_partition (the NM stations lose each other while both
   keep reaching their own agents) — driven against the cross-domain
   chain goal, then checked against the federation invariants:

     1. convergence — the cross-domain goal is achieved and the customer
        edges are reachable within the quiescence tail;
     2. no half-configured stitched pipe — after every back-out and the
        final convergence, every device's structural configuration equals
        either the pristine or the fully-configured state of an
        equivalent fault-free single-NM run; nothing in between;
     3. write boundary — neither NM ever sent a state-changing request to
        a device in the other's domain;
     4. configuration parity — the converged federated configuration is
        exactly the single-NM one (same deterministic generator, so any
        divergence is a protocol bug, not noise).

   The run is a Harness deployment: one tick steps each NM that is up,
   then advances the network one bounded interval, and the deployment is
   healthy once the goal is achieved and the edges reach each other.
   Fully deterministic: same schedule, same report. *)

open Conman
module Fed = Federation.Fed
module Fs = Federation.Fed_scenarios

let chain_n = 4
let interval_ns = 500_000_000L

type verdict = Harness.verdict = { name : string; ok : bool; detail : string }

type report = {
  verdicts : verdict list;
  converged_tick : int option; (* tail tick at which the goal was achieved *)
  replans : int;
  backouts : int;
  relays : int;
  foreign_writes : int; (* across both NMs — must be 0 *)
  half_configured : int; (* devices neither pristine nor fully configured at the end *)
  commits_received : int;
  aborts_received : int;
  goal_trace : string; (* rendered span tree of the cross-domain goal *)
  orphan_spans : int; (* spans whose parent vanished — must be 0 *)
  trace_connected : bool;
  total_spans : int; (* spans in the goal's tree *)
  phase_samples : (string * int list) list;
  (* raw per-phase latency samples (fed.plan/commit/abort_ticks) so a
     soak can merge histograms across seeds before taking percentiles *)
  metrics_json : string; (* the run's full registry dump *)
}

let failures r = List.filter (fun v -> not v.ok) r.verdicts

(* --- schedule generation -------------------------------------------------- *)

(* Unlike the diamond generator, both federation events are FORCED into
   every schedule: the soak's purpose is to exercise the inter-NM
   protocol under NM loss and partition, not to sometimes do so. The
   background menu is channel-level only — the data plane stays healthy
   so any convergence failure is attributable to the protocol. *)
let generate ?(intensity = 0.5) ~seed ~ticks () =
  let prng = Mgmt.Faults.Prng.create seed in
  let pick xs = List.nth xs (Mgmt.Faults.Prng.below prng (List.length xs)) in
  let duration ~at = max 1 (min (2 + Mgmt.Faults.Prng.below prng 3) (ticks - at)) in
  let at_of span = Mgmt.Faults.Prng.below prng (max 1 span) in
  let crash_at = at_of (ticks - 1) in
  let crash =
    {
      Schedule.at = crash_at;
      fault =
        Schedule.Peer_nm_crash { domain = pick [ "west"; "east" ]; ticks = duration ~at:crash_at };
    }
  in
  let part_at = at_of (ticks - 1) in
  let part =
    {
      Schedule.at = part_at;
      fault = Schedule.Inter_domain_partition { ticks = duration ~at:part_at };
    }
  in
  let n_extra = max 0 (int_of_float (intensity *. float_of_int ticks) - 2) in
  let extra =
    List.init n_extra (fun _ ->
        let at = at_of (ticks - 1) in
        match pick [ `Drop; `Drop; `Dup; `Jitter ] with
        | `Drop ->
            let p = 0.1 +. (0.3 *. Mgmt.Faults.Prng.uniform prng) in
            { Schedule.at; fault = Schedule.Mgmt_drop { p; ticks = duration ~at } }
        | `Dup ->
            let p = 0.1 +. (0.4 *. Mgmt.Faults.Prng.uniform prng) in
            { Schedule.at; fault = Schedule.Mgmt_duplicate { p; ticks = duration ~at } }
        | `Jitter ->
            let ms = 20 + (20 * Mgmt.Faults.Prng.below prng 4) in
            { Schedule.at; fault = Schedule.Mgmt_jitter { ms; ticks = duration ~at } })
  in
  let events =
    crash :: part :: extra |> List.stable_sort (fun a b -> compare a.Schedule.at b.Schedule.at)
  in
  (* a wedged commit round only times out after Fed's commit_timeout, and
     the replan needs the full plan->commit->ack exchange: grant a long
     clean tail so convergence stays decidable *)
  { Schedule.seed; ticks; tail = max 24 ticks; events }

(* --- invariant helpers ----------------------------------------------------- *)

let structural_keys nm dev = Option.map Monitor.structural_keys (Nm.show_actual nm dev)

(* Fault-free single-NM run over the same testbed: the oracle for both
   the all-or-nothing check and configuration parity. *)
let baselines () =
  Nm.set_incarnations 0;
  let c = Scenarios.build_chain chain_n in
  let devs = c.Scenarios.cscope in
  let pristine = List.map (fun d -> (d, structural_keys c.Scenarios.cnm d)) devs in
  (match Nm.achieve c.Scenarios.cnm c.Scenarios.cgoal with
  | Ok _ -> ()
  | Error e -> failwith ("baseline achieve failed: " ^ e));
  Nm.run c.Scenarios.cnm;
  let configured = List.map (fun d -> (d, structural_keys c.Scenarios.cnm d)) devs in
  (pristine, configured)

(* --- the run ---------------------------------------------------------------- *)

let run (sched : Schedule.t) =
  let pristine, configured = baselines () in
  Nm.set_incarnations 0;
  (* span ids feed the rendered tree: pin the allocator so the same
     schedule always yields the same trace *)
  Obs.Trace.reset_ids ();
  let t = Fs.build_two_domain ~fault_seed:sched.Schedule.seed chain_n in
  let obs = Fs.instrument t in
  let faults = t.Fs.ffaults in
  let net = Nm.net (Fed.nm t.Fs.fwest) in
  let eq = Netsim.Net.eq net in
  let apply (f : Schedule.fault) : Harness.action =
    match f with
    | Schedule.Mgmt_drop _ | Schedule.Mgmt_duplicate _ | Schedule.Mgmt_jitter _ ->
        Harness.channel_fault faults f
    | Schedule.Peer_nm_crash { domain; ticks } ->
        let st =
          match domain with
          | "west" -> Fs.west_station
          | "east" -> Fs.east_station
          | _ -> invalid_arg ("the two-domain deployment has no domain " ^ domain)
        in
        fun ~until _ ->
          if not (Mgmt.Faults.is_crashed faults st) then begin
            Mgmt.Faults.crash faults st;
            until ticks (fun () -> Mgmt.Faults.restart faults st)
          end
    | Schedule.Inter_domain_partition { ticks } ->
        Harness.partition_stations faults Fs.west_station Fs.east_station ~ticks
    | _ ->
        (* diamond-only events have no meaning here; replaying a mixed
           repro file simply skips them *)
        Harness.skip
  in
  (* one engine tick: each NM that is up runs its protocol step, then the
     network advances one bounded interval. A crashed station's node is
     not ticked — the process is down; its state survives for restart. *)
  let tick tick =
    Observe.set_tick obs tick;
    if not (Mgmt.Faults.is_crashed faults Fs.west_station) then Fed.tick t.Fs.fwest ~tick;
    if not (Mgmt.Faults.is_crashed faults Fs.east_station) then Fed.tick t.Fs.feast ~tick;
    ignore (Netsim.Net.run_until net ~deadline:(Int64.add (Netsim.Event_queue.now eq) interval_ns))
  in
  let gid = Fed.submit t.Fs.fwest t.Fs.fgoal in
  let converged =
    Harness.drive sched
      {
        Harness.faults;
        apply;
        tick;
        clear = ignore;
        healthy = (fun () -> Fed.achieved t.Fs.fwest gid && Fs.two_domain_reachable t);
      }
  in
  (* --- verdicts ---- *)
  let owner_nm dev =
    if List.mem dev t.Fs.fwest_devices then Fed.nm t.Fs.fwest else Fed.nm t.Fs.feast
  in
  let finals = List.map (fun d -> (d, structural_keys (owner_nm d) d)) t.Fs.fscope in
  let half =
    List.filter
      (fun (d, keys) -> keys <> List.assoc d pristine && keys <> List.assoc d configured)
      finals
  in
  let mismatched =
    List.filter (fun (d, keys) -> keys <> List.assoc d configured) finals
  in
  let fw = Nm.foreign_writes (Fed.nm t.Fs.fwest) + Nm.foreign_writes (Fed.nm t.Fs.feast) in
  let v_convergence =
    match converged with
    | Some tk ->
        {
          name = "convergence";
          ok = true;
          detail = Printf.sprintf "cross-domain goal achieved %d tick(s) into the tail" tk;
        }
    | None ->
        {
          name = "convergence";
          ok = false;
          detail =
            Printf.sprintf "goal not achieved after %d tail ticks (reachable=%b replans=%d)"
              sched.Schedule.tail (Fs.two_domain_reachable t)
              (Fed.replans t.Fs.fwest);
        }
  in
  let v_half =
    match half with
    | [] ->
        { name = "no-half-configured"; ok = true; detail = "every device all-or-nothing" }
    | l ->
        {
          name = "no-half-configured";
          ok = false;
          detail = "partial configuration on " ^ String.concat ", " (List.map fst l);
        }
  in
  let v_boundary =
    {
      name = "write-boundary";
      ok = fw = 0;
      detail = Printf.sprintf "%d state-changing request(s) crossed a domain boundary" fw;
    }
  in
  let v_parity =
    match (converged, mismatched) with
    | None, _ -> { name = "show-actual-parity"; ok = false; detail = "not converged" }
    | Some _, [] ->
        { name = "show-actual-parity"; ok = true; detail = "matches the single-NM run" }
    | Some _, l ->
        {
          name = "show-actual-parity";
          ok = false;
          detail = "diverges from the single-NM run on " ^ String.concat ", " (List.map fst l);
        }
  in
  (* Trace connectivity: every span minted on the goal's behalf — by
     either NM, any agent, the transport's retry events — must hang off
     the single "fed-goal" root; an orphan means a context was lost
     crossing a layer. *)
  let cols = Observe.collectors obs in
  let goal_id =
    match Fed.goal_trace t.Fs.fwest gid with
    | Some ctx -> Some ctx.Obs.Trace.goal
    | None -> None
  in
  let goal_trace, orphan_spans, trace_connected =
    match goal_id with
    | None -> ("", 0, false)
    | Some g -> (Obs.Trace.render cols g, List.length (Obs.Trace.orphans cols g), Obs.Trace.connected cols g)
  in
  let v_trace =
    {
      name = "trace-connected";
      ok = trace_connected && orphan_spans = 0;
      detail =
        (if trace_connected then
           Printf.sprintf "%d span(s), one root, zero orphans"
             (match goal_id with Some g -> List.length (Obs.Trace.goal_spans cols g) | None -> 0)
         else Printf.sprintf "%d orphan span(s)" orphan_spans);
    }
  in
  {
    verdicts = [ v_convergence; v_half; v_boundary; v_parity; v_trace ];
    converged_tick = converged;
    replans = Fed.replans t.Fs.fwest;
    backouts = Fed.backouts t.Fs.fwest;
    relays = Fed.relays t.Fs.fwest + Fed.relays t.Fs.feast;
    foreign_writes = fw;
    half_configured = List.length half;
    commits_received = Fed.commits_received t.Fs.feast + Fed.commits_received t.Fs.fwest;
    aborts_received = Fed.aborts_received t.Fs.feast + Fed.aborts_received t.Fs.fwest;
    goal_trace;
    orphan_spans;
    trace_connected;
    total_spans =
      (match goal_id with Some g -> List.length (Obs.Trace.goal_spans cols g) | None -> 0);
    phase_samples =
      List.map
        (fun k -> (k, Obs.Registry.samples (Observe.registry obs) k))
        [ "fed.plan_ticks"; "fed.commit_ticks"; "fed.abort_ticks" ];
    metrics_json = Obs.Registry.to_json (Observe.registry obs);
  }
