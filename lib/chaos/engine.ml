(* The chaos engine: drives a Schedule.t over a live diamond deployment
   managed by an HA pair of NMs (primary + warm standby, see Ha) and
   checks global invariants.

   The run has two phases. During the chaos phase each monitor tick first
   fires due fault-reverts, then applies the schedule events due at that
   tick, then gives both HA nodes their heartbeat/failure-detector tick,
   then lets the acting leader's reconciliation loop take its tick (when
   no node is acting — the primary crashed and the standby has not yet
   promoted — virtual time still advances, so heartbeat gaps grow). After
   the last chaos tick every outstanding fault is force-reverted and the
   quiescence tail begins: up to [tail] clean ticks during which every
   live intent must re-converge under whoever leads.

   Invariants checked at quiescence:
     convergence          every live intent Active and the testbed carries
                          end-to-end traffic within the tail
     oscillation          bounded successful reroutes per intent (carried
                          across failovers)
     conservation         per-segment drop accounting balances, and the
                          counter-based localizer finds nothing wrong on
                          the converged path
     journal-equivalence  a fresh NM recovering from the acting leader's
                          journal on a fresh testbed reaches the same
                          structural show_actual fixpoint as a fresh NM
                          achieving the goal directly
     single-primary       no two nodes ever act as primary under the same
                          epoch (epoch fencing contains split-brain)
     no-lost-intents      every intent committed in either journal and
                          never retired is live at the final leader
     stale-state          tearing every surviving script down returns every
                          scoped device to its pre-achieve structural state
                          (no leaked pipes/labels/xconnects)

   Everything is deterministic: same schedule, same verdicts, same fault
   counters, same monitor event trace — which is what makes the shrinker
   (Shrink) and `--replay` trustworthy. *)

open Conman
open Netsim

type config = {
  monitor : Monitor.config;
  oscillation_bound : int option;
      (* max successful reroutes per intent; None derives a generous bound
         from the schedule size. Some 0 is the "weakened invariant" used to
         demonstrate the shrinker. *)
}

let default_config = { monitor = Monitor.default_config; oscillation_bound = None }

type verdict = { name : string; ok : bool; detail : string }

type ha_stats = {
  failovers : int; (* promotions across both nodes *)
  detection_ticks : int option;
      (* ticks from the first leader crash to the first promotion after it *)
  replayed : int; (* unconfirmed requests replayed on promotion *)
  split_brain_count : int; (* ticks with two acting primaries under one epoch *)
  lost_intents : int; (* committed-never-retired intents missing at the end *)
  final_epoch : int;
}

type overload_stats = {
  storm_frames : int; (* telemetry-storm frames injected by Overload events *)
  p0_shed : int; (* must stay 0: shed+expired in the heartbeat class *)
  p1_shed : int; (* must stay 0: shed+expired in the script class *)
  p2_shed : int;
  p3_shed : int;
  p3_expired : int;
  p3_queue_high_water : int;
  telemetry_final_period_ns : int64;
  telemetry_backoffs : int; (* scrape-period doublings under shed feedback *)
}

type report = {
  verdicts : verdict list;
  converged_tick : int option; (* tail tick at which everything was healthy *)
  total_repairs : int;
  nm_crashes : int;
  mgmt_counters : string;
  trace : string list; (* monitor event log, across NM incarnations *)
  ha : ha_stats;
  overload : overload_stats;
  goal_trace : string; (* rendered span tree of the initial achieve goal *)
  orphan_spans : int; (* across every traced goal — a lost context if nonzero *)
  phase_samples : (string * int list) list;
  (* raw latency samples (ha.failover_detect_ticks) for cross-run merging *)
  metrics_json : string; (* the run's full registry dump *)
}

let failures r = List.filter (fun v -> not v.ok) r.verdicts

let pp_verdict ppf v =
  Fmt.pf ppf "%-20s %s  %s" v.name (if v.ok then "ok  " else "FAIL") v.detail

let pp_report ppf r =
  List.iter (fun v -> Fmt.pf ppf "  %a@." pp_verdict v) r.verdicts;
  Fmt.pf ppf "  converged=%s repairs=%d nm-crashes=%d %s@."
    (match r.converged_tick with Some t -> Printf.sprintf "tail+%d" t | None -> "never")
    r.total_repairs r.nm_crashes r.mgmt_counters;
  Fmt.pf ppf "  ha[failovers=%d detect=%s replayed=%d split-brain=%d lost=%d epoch=%d]@."
    r.ha.failovers
    (match r.ha.detection_ticks with Some t -> string_of_int t ^ " tick(s)" | None -> "n/a")
    r.ha.replayed r.ha.split_brain_count r.ha.lost_intents r.ha.final_epoch;
  if r.overload.storm_frames > 0 then
    Fmt.pf ppf
      "  overload[storm=%d shed p0=%d p1=%d p2=%d p3=%d(+%d expired) hw=%d tel-period=%Ldms \
       backoffs=%d]@."
      r.overload.storm_frames r.overload.p0_shed r.overload.p1_shed r.overload.p2_shed
      r.overload.p3_shed r.overload.p3_expired r.overload.p3_queue_high_water
      (Int64.div r.overload.telemetry_final_period_ns 1_000_000L)
      r.overload.telemetry_backoffs;
  (* a violated invariant ships with the goal's causal trace *)
  if List.exists (fun v -> not v.ok) r.verdicts && r.goal_trace <> "" then
    Fmt.pf ppf "  goal trace:@.%s@." r.goal_trace

(* Same notion of structural state as the monitor's drift check: show_actual
   keys, qualified by module, minus transient pending[..] negotiation
   entries and all values (which carry traffic counters). *)
let structural_keys state =
  List.concat_map
    (fun ((m : Ids.t), kvs) ->
      List.filter_map
        (fun (k, _) ->
          if String.length k >= 8 && String.sub k 0 8 = "pending[" then None
          else Some (Ids.qualified m ^ "/" ^ k))
        kvs)
    state
  |> List.sort_uniq compare

let scope_keys nm scope =
  List.map
    (fun dev ->
      (dev, match Nm.show_actual nm dev with Some st -> structural_keys st | None -> []))
    scope

let render_counters faults =
  let c = Mgmt.Faults.counters faults in
  Printf.sprintf "mgmt[dropped=%d duplicated=%d delayed=%d crash=%d partition=%d]"
    c.Mgmt.Faults.dropped c.Mgmt.Faults.duplicated c.Mgmt.Faults.delayed
    c.Mgmt.Faults.crash_drops c.Mgmt.Faults.partition_drops

let ms_ns ms = Int64.mul (Int64.of_int ms) 1_000_000L

let run ?(config = default_config) (sched : Schedule.t) =
  (* Request ids embed a per-process NM boot counter, and their printed
     width leaks into frame sizes (and so into fault-stream alignment):
     pin the counter so a schedule replays identically in any process,
     regardless of how many NMs ran before. Safe because everything below
     lives on a freshly built testbed. *)
  Nm.set_incarnations 0;
  Obs.Trace.reset_ids ();
  let d = Scenarios.build_diamond ~fault_seed:sched.Schedule.seed () in
  let obs = Observe.create () in
  ignore
    (Observe.attach_nm obs ~agents:d.Scenarios.dagents ~transport:d.Scenarios.dtransport
       ~admission:d.Scenarios.dadmission ~faults:d.Scenarios.dfaults
       ~station:Scenarios.nm_station_id d.Scenarios.dnm);
  let net = d.Scenarios.dtb.Testbeds.dia_net in
  let eq = Net.eq net in
  let faults = d.Scenarios.dfaults in
  let adm = d.Scenarios.dadmission in
  let scope = d.Scenarios.dscope in
  let seg name = Net.find_segment_exn net name in
  let device id =
    match Net.device_by_id net id with
    | Some dev -> dev
    | None -> failwith ("chaos: unknown device " ^ id)
  in
  (* Segment PRNGs default to the global link-id counter, which advances
     across testbed builds in one process: reseed from the schedule seed so
     identical runs see identical loss patterns regardless of how many
     testbeds were built before. *)
  List.iteri
    (fun i name -> Link.set_seed (seg name) (Int64.of_int ((sched.Schedule.seed * 1_000_003) + i)))
    Schedule.core_segments;
  Mgmt.Faults.reset_counters faults;
  let baseline = scope_keys d.Scenarios.dnm scope in
  (match Nm.achieve d.Scenarios.dnm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> failwith ("chaos: initial achieve failed: " ^ e));
  (* The HA pair: the diamond's NM acts as primary, a second NM station on
     the same management channel stands by. Pairing bootstraps replication
     and fences the primary at epoch 1. *)
  let standby_nm =
    Nm.create ~transport:d.Scenarios.dtransport ~chan:d.Scenarios.dchan ~net
      ~my_id:Scenarios.standby_station_id ()
  in
  let ha_config =
    {
      Ha.default_config with
      Ha.heartbeat_period_ns = config.monitor.Monitor.interval_ns;
      replay_horizon_ns = Some config.monitor.Monitor.interval_ns;
    }
  in
  ignore (Observe.attach_nm obs ~prefix:"standby" ~station:Scenarios.standby_station_id standby_nm);
  let ha_p, ha_s = Ha.pair ~config:ha_config ~primary:d.Scenarios.dnm ~standby:standby_nm () in
  Observe.attach_ha ~prefix:"primary" obs ha_p;
  Observe.attach_ha ~prefix:"standby" obs ha_s;
  Observe.attach_net obs net;
  Observe.attach_rings obs;
  let nodes = [ ha_p; ha_s ] in
  (* [acting] is the node whose monitor drives reconciliation; it trails
     actual leadership by at most the moment the switch is noticed below *)
  let acting = ref ha_p in
  (* every leader's telemetry poller watches the admission layer's shed
     counter and backs its scrape period off under overload; [tel] tracks
     the current poller so the report can show the final (degraded) period *)
  let tel = ref (Telemetry.create ~scope (Ha.nm ha_p)) in
  let mk_monitor nm =
    let t = Telemetry.create ~scope nm in
    Telemetry.set_shed_probe t (fun () -> Mgmt.Admission.lost_total adm);
    tel := t;
    Monitor.create ~config:config.monitor ~telemetry:t nm
  in
  let mon = ref (mk_monitor (Ha.nm !acting)) in
  let trace = ref [] in
  let carried = Hashtbl.create 8 in (* intent id -> repairs under previous leaders *)
  let dead_monitor_repairs = ref 0 in
  let nm_crashes = ref 0 in
  let first_crash_tick = ref None in
  let split_brain = ref 0 in
  let epoch_leaders = Hashtbl.create 8 in (* epoch -> station id seen acting under it *)
  let epoch_conflicts = ref [] in
  (* retire the acting leader's monitor, preserving its accounting: repair
     counts move into [carried]/[dead_monitor_repairs] (and are zeroed on
     the records so a node returning to leadership is not double-counted)
     and its event log is appended to the cross-incarnation trace *)
  let bank_monitor () =
    List.iter
      (fun (i : Intent.t) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt carried i.Intent.id) in
        Hashtbl.replace carried i.Intent.id (prev + i.Intent.repairs);
        i.Intent.repairs <- 0)
      (Nm.intents (Ha.nm !acting));
    dead_monitor_repairs := !dead_monitor_repairs + Monitor.repairs !mon;
    trace := !trace @ List.map (Fmt.str "%a" Monitor.pp_event) (Monitor.events !mon)
  in
  let leader () =
    match List.filter (fun h -> Ha.is_alive h && Ha.role h = Ha.Primary) nodes with
    | [] -> None
    | [ h ] -> Some h
    | h :: rest ->
        Some (List.fold_left (fun best x -> if Ha.epoch x > Ha.epoch best then x else best) h rest)
  in
  let ensure_leader () =
    match leader () with
    | Some l when l != !acting ->
        bank_monitor ();
        acting := l;
        mon := mk_monitor (Ha.nm l);
        Some l
    | x -> x
  in
  (* per-tick leadership sample: the single-primary invariant is "no two
     alive nodes act under the same epoch", checked both instantaneously
     and cumulatively (an epoch may never be claimed by two stations) *)
  let observe_leadership () =
    if
      Ha.is_alive ha_p && Ha.is_alive ha_s
      && Ha.role ha_p = Ha.Primary
      && Ha.role ha_s = Ha.Primary
      && Ha.epoch ha_p = Ha.epoch ha_s
    then incr split_brain;
    List.iter
      (fun h ->
        if Ha.is_alive h && Ha.role h = Ha.Primary then
          let e = Ha.epoch h and id = Nm.my_id (Ha.nm h) in
          match Hashtbl.find_opt epoch_leaders e with
          | None -> Hashtbl.replace epoch_leaders e id
          | Some id0 when id0 <> id ->
              if not (List.mem e !epoch_conflicts) then epoch_conflicts := e :: !epoch_conflicts
          | Some _ -> ())
      nodes
  in
  (* Overload storm: while active, every tick floods the channel with
     low-priority showPerf requests from the acting leader's own station —
     the worst offender, since it shares its admission bucket with the
     monitor's legitimate probes. Agents fence-reject the unfenced
     requests cheaply; the point is the load on the channel stack. The
     burst always exceeds bucket capacity + backlog so the admission layer
     must shed at any intensity. *)
  let storm = ref None in
  let storm_frames = ref 0 in
  let storm_req = ref 900_000_000 in
  let inject_storm () =
    match !storm with
    | None -> ()
    | Some intensity -> (
        match leader () with
        | None -> ()
        | Some l ->
            let src = Nm.my_id (Ha.nm l) in
            let burst = 512 + int_of_float (intensity *. 1024.) in
            let n_scope = List.length scope in
            for i = 0 to burst - 1 do
              incr storm_req;
              incr storm_frames;
              Mgmt.Channel.send d.Scenarios.dchan ~cls:3 ~src
                ~dst:(List.nth scope (i mod n_scope))
                (Wire.encode (Wire.Show_perf_req { req = !storm_req }))
            done)
  in
  let reverts = ref [] in (* (due_tick, undo) *)
  let fire_reverts tick =
    let due, later = List.partition (fun (at, _) -> at <= tick) !reverts in
    reverts := later;
    List.iter (fun (_, undo) -> undo ()) due
  in
  let crash_node ~tick ~ticks h =
    let id = Nm.my_id (Ha.nm h) in
    Mgmt.Faults.crash faults id;
    Ha.set_alive h false;
    reverts :=
      ( tick + ticks,
        fun () ->
          Mgmt.Faults.restart faults id;
          Ha.set_alive h true )
      :: !reverts
  in
  let apply tick (e : Schedule.event) =
    let until ticks undo = reverts := (tick + ticks, undo) :: !reverts in
    match e.Schedule.fault with
    | Schedule.Link_cut { seg = s; ticks } ->
        let sg = seg s in
        Link.cut sg;
        until ticks (fun () -> Link.restore sg)
    | Schedule.Link_loss { seg = s; p; ticks } ->
        let sg = seg s in
        Link.set_loss sg p;
        until ticks (fun () -> Link.set_loss sg 0.0)
    | Schedule.Link_corrupt { seg = s; p; ticks } ->
        let sg = seg s in
        Link.set_corrupt sg p;
        until ticks (fun () -> Link.set_corrupt sg 0.0)
    | Schedule.Link_flap { seg = s; cycles; down_ms; up_ms } ->
        (* self-terminating: schedules its own cut/restore pairs *)
        Link.flap ~cycles (seg s) ~first_down_ns:10_000_000L ~down_ns:(ms_ns down_ms)
          ~up_ns:(ms_ns up_ms)
    | Schedule.Mgmt_drop { p; ticks } ->
        Mgmt.Faults.set_drop faults p;
        until ticks (fun () -> Mgmt.Faults.set_drop faults 0.0)
    | Schedule.Mgmt_duplicate { p; ticks } ->
        Mgmt.Faults.set_duplicate faults p;
        until ticks (fun () -> Mgmt.Faults.set_duplicate faults 0.0)
    | Schedule.Mgmt_jitter { ms; ticks } ->
        Mgmt.Faults.set_jitter faults (ms_ns ms);
        until ticks (fun () -> Mgmt.Faults.set_jitter faults 0L)
    | Schedule.Mgmt_partition { dev; ticks } ->
        Mgmt.Faults.partition faults dev;
        until ticks (fun () -> Mgmt.Faults.heal faults dev)
    | Schedule.Agent_crash { dev; ticks } ->
        Device.crash (device dev);
        Mgmt.Faults.crash faults dev;
        until ticks (fun () ->
            Device.restart (device dev);
            Mgmt.Faults.restart faults dev;
            (* the agent says Hello again; the NM flushes owed deletions
               and re-applies active script slices *)
            Agent.announce (List.assoc dev d.Scenarios.dagents) net;
            Nm.run (Ha.nm !acting))
    | Schedule.Nm_crash | Schedule.Nm_failover _ ->
        (* the acting leader crashes: heartbeats stop, the standby's
           failure detector must notice and promote. Nm_crash is the
           legacy single-NM event, mapped to a 2-tick failover. *)
        let ticks =
          match e.Schedule.fault with Schedule.Nm_failover { ticks } -> ticks | _ -> 2
        in
        incr nm_crashes;
        if !first_crash_tick = None then first_crash_tick := Some tick;
        let victim = match leader () with Some l -> l | None -> !acting in
        crash_node ~tick ~ticks victim
    | Schedule.Standby_crash { ticks } ->
        let victim =
          match leader () with Some l when l == ha_s -> ha_p | Some _ | None -> ha_s
        in
        crash_node ~tick ~ticks victim
    | Schedule.Ha_partition { ticks } ->
        (* isolate the NMs from each other while both keep reaching the
           agents: the standby will suspect the primary dead and promote,
           and only epoch fencing keeps the old primary from competing *)
        let a = Scenarios.nm_station_id and b = Scenarios.standby_station_id in
        Mgmt.Faults.set_drop faults ~src:a ~dst:b 1.0;
        Mgmt.Faults.set_drop faults ~src:b ~dst:a 1.0;
        until ticks (fun () ->
            Mgmt.Faults.set_drop faults ~src:a ~dst:b 0.0;
            Mgmt.Faults.set_drop faults ~src:b ~dst:a 0.0)
    | Schedule.Overload { intensity; ticks } ->
        storm := Some intensity;
        until ticks (fun () -> storm := None)
    | Schedule.Peer_nm_crash _ | Schedule.Inter_domain_partition _ ->
        (* federation-only events; Fed_engine applies them over the
           two-domain deployment *)
        ()
  in
  (* one engine tick: both HA nodes heartbeat/detect, then whoever leads
     reconciles. With no live leader the clock still advances a full
     interval so the standby's heartbeat gap keeps growing. *)
  let advance_interval () =
    ignore
      (Net.run_until net
         ~deadline:(Int64.add (Event_queue.now eq) config.monitor.Monitor.interval_ns))
  in
  let ha_tick tick =
    Observe.set_tick obs tick;
    Ha.tick ha_p ~tick;
    Ha.tick ha_s ~tick;
    observe_leadership ();
    match ensure_leader () with Some _ -> Monitor.tick !mon | None -> advance_interval ()
  in
  (* --- chaos phase ----------------------------------------------------- *)
  Mgmt.Admission.reset_counters adm;
  for tick = 0 to sched.Schedule.ticks - 1 do
    fire_reverts tick;
    List.iter (fun e -> if e.Schedule.at = tick then apply tick e) sched.Schedule.events;
    inject_storm ();
    ha_tick tick
  done;
  (* --- force quiescence ------------------------------------------------ *)
  fire_reverts max_int;
  Mgmt.Faults.clear faults;
  List.iter (fun n -> Link.clear_faults (seg n)) Schedule.core_segments;
  (* --- quiescence tail -------------------------------------------------- *)
  let live () =
    List.filter
      (fun (i : Intent.t) -> i.Intent.status <> Intent.Retired)
      (Nm.intents (Ha.nm !acting))
  in
  let healthy () =
    let l = live () in
    l <> []
    && List.for_all (fun (i : Intent.t) -> i.Intent.status = Intent.Active) l
    && Scenarios.diamond_reachable d
  in
  let converged = ref None in
  let tail_tick = ref 0 in
  while !converged = None && !tail_tick < sched.Schedule.tail do
    incr tail_tick;
    ha_tick (sched.Schedule.ticks + !tail_tick - 1);
    if healthy () then converged := Some !tail_tick
  done;
  (* --- verdicts --------------------------------------------------------- *)
  (* everything from here on interrogates the final acting leader *)
  let nm = Ha.nm !acting in
  let intent_repairs (i : Intent.t) =
    i.Intent.repairs + Option.value ~default:0 (Hashtbl.find_opt carried i.Intent.id)
  in
  let total_repairs = !dead_monitor_repairs + Monitor.repairs !mon in
  let v_convergence =
    match !converged with
    | Some t ->
        {
          name = "convergence";
          ok = true;
          detail = Printf.sprintf "all intents healthy %d tick(s) into the tail" t;
        }
    | None ->
        let states =
          live ()
          |> List.map (fun (i : Intent.t) ->
                 Printf.sprintf "intent-%d=%s" i.Intent.id
                   (Intent.status_to_string i.Intent.status))
          |> String.concat " "
        in
        {
          name = "convergence";
          ok = false;
          detail =
            Printf.sprintf "not converged after %d tail ticks (%s; reachable=%b)"
              sched.Schedule.tail states
              (Scenarios.diamond_reachable d);
        }
  in
  let v_oscillation =
    let bound =
      match config.oscillation_bound with
      | Some b -> b
      | None -> (2 * List.length sched.Schedule.events) + 4
    in
    let worst =
      List.fold_left (fun acc i -> max acc (intent_repairs i)) 0 (Nm.intents nm)
    in
    {
      name = "oscillation";
      ok = worst <= bound;
      detail = Printf.sprintf "max %d reroute(s) per intent (bound %d)" worst bound;
    }
  in
  let v_conservation =
    let acct_ok =
      List.for_all
        (fun n ->
          let sg = seg n in
          Link.dropped sg
          = Link.drop_count sg "cut" + Link.drop_count sg "mtu" + Link.drop_count sg "loss"
            + Link.drop_count sg "corrupt")
        Schedule.core_segments
    in
    let path =
      List.find_map
        (fun (i : Intent.t) ->
          match (i.Intent.status, i.Intent.script) with
          | Intent.Active, Some s when s.Script_gen.path.Path_finder.visits <> [] ->
              Some s.Script_gen.path
          | _ -> None)
        (Nm.intents nm)
    in
    match path with
    | Some p when !converged <> None ->
        (* a fresh store primed with healthy probe rounds must give the
           converged path a clean bill — leftover counter imbalances would
           mean the Diagnose model's conservation laws are violated *)
        let tel = Telemetry.create ~scope nm in
        for _ = 1 to 4 do
          ignore (Nm.probe_end_to_end nm p);
          Telemetry.scrape tel
        done;
        let diag = Telemetry.diagnose_path tel p in
        {
          name = "conservation";
          ok = acct_ok && diag = [];
          detail =
            (if diag = [] then
               Printf.sprintf "drop accounting balanced, localizer clean (%s)"
                 (if acct_ok then "ok" else "IMBALANCED")
             else
               Fmt.str "localizer still suspicious: %a" Diagnose.pp_diagnosis (List.hd diag));
        }
    | _ ->
        {
          name = "conservation";
          ok = acct_ok;
          detail = "drop accounting balanced (localizer skipped: no converged path)";
        }
  in
  (* capture before teardown: teardown appends Retire entries *)
  let journal_str = Intent.journal_to_string (Nm.journal nm) in
  let v_journal =
    let reference =
      let d2 = Scenarios.build_diamond () in
      match Nm.achieve d2.Scenarios.dnm d2.Scenarios.dgoal with
      | Ok _ -> Some (scope_keys d2.Scenarios.dnm d2.Scenarios.dscope)
      | Error _ -> None
    in
    let recovered =
      let d3 = Scenarios.build_diamond () in
      let nm3 =
        Nm.create ~transport:d3.Scenarios.dtransport
          ~journal:(Intent.journal_of_string journal_str)
          ~chan:d3.Scenarios.dchan ~net:d3.Scenarios.dtb.Testbeds.dia_net
          ~my_id:Scenarios.nm_station_id ()
      in
      Scenarios.diamond_adopt d3 nm3;
      Nm.recover nm3;
      scope_keys nm3 d3.Scenarios.dscope
    in
    match reference with
    | None -> { name = "journal-equivalence"; ok = false; detail = "reference achieve failed" }
    | Some ref_keys ->
        let diff =
          List.concat_map
            (fun (dev, ks) ->
              let rs = try List.assoc dev recovered with Not_found -> [] in
              List.filter (fun k -> not (List.mem k rs)) ks
              @ List.filter (fun k -> not (List.mem k ks)) rs)
            ref_keys
        in
        {
          name = "journal-equivalence";
          ok = diff = [];
          detail =
            (if diff = [] then "recovered NM reaches the reference fixpoint"
             else Printf.sprintf "%d structural key(s) differ (e.g. %s)" (List.length diff)
                 (List.hd diff));
        }
  in
  (* HA accounting and invariants, computed before the stale-state teardown
     mutates the intent set *)
  let failovers = Ha.promotions ha_p + Ha.promotions ha_s in
  let final_epoch = max (Ha.epoch ha_p) (Ha.epoch ha_s) in
  let detection_ticks =
    match !first_crash_tick with
    | None -> None
    | Some c -> (
        let promos =
          List.sort compare
            (List.filter (fun t -> t >= c) (Ha.promotion_ticks ha_p @ Ha.promotion_ticks ha_s))
        in
        match promos with t :: _ -> Some (t - c) | [] -> None)
  in
  (match detection_ticks with
  | Some d -> Obs.Registry.observe (Observe.registry obs) "ha.failover_detect_ticks" d
  | None -> ());
  let v_single_primary =
    let ok = !split_brain = 0 && !epoch_conflicts = [] in
    {
      name = "single-primary";
      ok;
      detail =
        (if ok then
           Printf.sprintf "epoch fencing held over %d failover(s) (final epoch %d)" failovers
             final_epoch
         else
           Printf.sprintf "%d split-brain tick(s), %d contested epoch(s)" !split_brain
             (List.length !epoch_conflicts));
    }
  in
  (* No committed intent may be lost across failovers: anything Commit-ed in
     EITHER node's journal (replication is asynchronous, so the deposed
     journal can hold a tail the survivor never saw) and never Retire-d
     must still be live at the final leader. *)
  let lost_intents =
    let committed_live j =
      List.fold_left
        (fun acc e ->
          match e with
          | Intent.Commit id -> if List.mem id acc then acc else id :: acc
          | Intent.Retire id -> List.filter (fun x -> x <> id) acc
          | Intent.Begin _ | Intent.Bind _ -> acc)
        []
        (Intent.entries j)
    in
    let wanted =
      List.sort_uniq compare
        (committed_live (Nm.journal (Ha.nm ha_p)) @ committed_live (Nm.journal (Ha.nm ha_s)))
    in
    let present =
      List.filter_map
        (fun (i : Intent.t) ->
          if i.Intent.status <> Intent.Retired then Some i.Intent.id else None)
        (Nm.intents nm)
    in
    List.filter (fun id -> not (List.mem id present)) wanted
  in
  let v_lost =
    {
      name = "no-lost-intents";
      ok = lost_intents = [];
      detail =
        (if lost_intents = [] then "every committed intent survived failover"
         else
           Printf.sprintf "%d committed intent(s) lost (%s)" (List.length lost_intents)
             (String.concat ", " (List.map string_of_int lost_intents)));
    }
  in
  (* Overload invariants. The admission layer may never have shed or
     expired a liveness (P0) or mutation (P1) frame — those classes bypass
     both bucket and queue, so a nonzero count means the layering broke.
     And when a storm was scheduled, the system must still have converged
     and must not have misread channel pressure as a dead primary. *)
  let adm_counters = Mgmt.Admission.counters adm in
  let shed_of i =
    adm_counters.(i).Mgmt.Admission.shed + adm_counters.(i).Mgmt.Admission.expired
  in
  let had_overload =
    List.exists
      (fun (e : Schedule.event) ->
        match e.Schedule.fault with Schedule.Overload _ -> true | _ -> false)
      sched.Schedule.events
  in
  let has_ha_fault =
    List.exists
      (fun (e : Schedule.event) ->
        match e.Schedule.fault with
        | Schedule.Nm_crash | Schedule.Nm_failover _ | Schedule.Ha_partition _
        | Schedule.Standby_crash _ ->
            true
        | _ -> false)
      sched.Schedule.events
  in
  let v_no_p0p1_shed =
    let ok = shed_of 0 = 0 && shed_of 1 = 0 in
    {
      name = "no-p0p1-shed";
      ok;
      detail =
        (if ok then
           Printf.sprintf "liveness/mutation frames untouched (p2 shed %d, p3 shed %d)"
             (shed_of 2) (shed_of 3)
         else Printf.sprintf "P0 shed %d, P1 shed %d frame(s)" (shed_of 0) (shed_of 1));
    }
  in
  let v_overload =
    if not had_overload then
      { name = "overload-degradation"; ok = true; detail = "no overload event scheduled" }
    else
      let spurious = (not has_ha_fault) && failovers > 0 in
      let ok = !converged <> None && not spurious in
      {
        name = "overload-degradation";
        ok;
        detail =
          (if ok then
             Printf.sprintf "converged under a %d-frame storm (%d telemetry frame(s) shed)"
               !storm_frames
               (shed_of 2 + shed_of 3)
           else if spurious then
             Printf.sprintf "%d spurious failover(s): heartbeats starved by the storm" failovers
           else "storm prevented re-convergence");
      }
  in
  let v_stale =
    List.iter
      (fun (i : Intent.t) ->
        match i.Intent.script with
        | Some s when i.Intent.status <> Intent.Retired -> Nm.teardown nm s
        | _ -> ())
      (Nm.intents nm);
    let after = scope_keys nm scope in
    let leaked =
      List.concat_map
        (fun (dev, ks) ->
          let base = try List.assoc dev baseline with Not_found -> [] in
          List.filter (fun k -> not (List.mem k base)) ks)
        after
    in
    let missing =
      List.concat_map
        (fun (dev, base) ->
          let ks = try List.assoc dev after with Not_found -> [] in
          List.filter (fun k -> not (List.mem k ks)) base)
        baseline
    in
    {
      name = "stale-state";
      ok = leaked = [] && missing = [];
      detail =
        (if leaked = [] && missing = [] then "teardown reclaimed all datapath state"
         else
           let sample ks =
             let shown = List.filteri (fun i _ -> i < 8) ks in
             String.concat ", " shown ^ if List.length ks > 8 then ", ..." else ""
           in
           Printf.sprintf "%d leaked, %d missing key(s)%s%s" (List.length leaked)
             (List.length missing)
             (if leaked = [] then "" else " leaked: " ^ sample leaked)
             (if missing = [] then "" else " missing: " ^ sample missing));
    }
  in
  let trace = !trace @ List.map (Fmt.str "%a" Monitor.pp_event) (Monitor.events !mon) in
  let cols = Observe.collectors obs in
  let goal_trace =
    (* the first traced goal is the initial achieve; later roots are
       monitor repairs and back-outs *)
    match Obs.Trace.goals cols with g :: _ -> Obs.Trace.render cols g | [] -> ""
  in
  let orphan_spans =
    List.fold_left (fun acc g -> acc + List.length (Obs.Trace.orphans cols g)) 0
      (Obs.Trace.goals cols)
  in
  {
    verdicts =
      [
        v_convergence; v_oscillation; v_conservation; v_journal; v_single_primary; v_lost;
        v_no_p0p1_shed; v_overload; v_stale;
      ];
    converged_tick = !converged;
    total_repairs;
    nm_crashes = !nm_crashes;
    mgmt_counters = render_counters faults;
    trace;
    ha =
      {
        failovers;
        detection_ticks;
        replayed = Ha.replayed ha_p + Ha.replayed ha_s;
        split_brain_count = !split_brain;
        lost_intents = List.length lost_intents;
        final_epoch;
      };
    overload =
      {
        storm_frames = !storm_frames;
        p0_shed = shed_of 0;
        p1_shed = shed_of 1;
        p2_shed = shed_of 2;
        p3_shed = adm_counters.(3).Mgmt.Admission.shed;
        p3_expired = adm_counters.(3).Mgmt.Admission.expired;
        p3_queue_high_water = adm_counters.(3).Mgmt.Admission.queue_high_water;
        telemetry_final_period_ns = Telemetry.period_ns !tel;
        telemetry_backoffs = Telemetry.backoffs !tel;
      };
    goal_trace;
    orphan_spans;
    phase_samples =
      [ ("ha.failover_detect_ticks",
         Obs.Registry.samples (Observe.registry obs) "ha.failover_detect_ticks") ];
    metrics_json = Obs.Registry.to_json (Observe.registry obs);
  }
