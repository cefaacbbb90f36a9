(* The command-line front end: reproduce individual tables/figures of the
   paper, run the demo scenarios, or drive the NM interactively over the
   simulated testbeds.

   Examples:
     conman repro table5
     conman repro table6 --routers 2,3,4,5,6,7,8
     conman demo gre --channel raw
     conman paths
     conman debug --fault cut-link *)

open Cmdliner
open Conman

let ppf = Fmt.stdout

(* --- repro ------------------------------------------------------------------- *)

let repro_what =
  let doc =
    "What to reproduce: table3, table4, table5, table6, fig2, fig3, fig5, fig6, fig7, fig8, \
     fig9, paths9, or 'all'."
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"WHAT" ~doc)

let routers_arg =
  let doc = "Comma-separated path lengths (router counts) for the table-6 sweep." in
  Arg.(value & opt (list int) [ 2; 3; 4; 5; 6 ] & info [ "routers" ] ~docv:"NS" ~doc)

let repro what ns =
  let vpn () = Scenarios.build_vpn () in
  (match what with
  | "table3" -> Report.table3 ppf ()
  | "table4" -> Report.table4 ppf (vpn ())
  | "table5" -> Report.table5 ppf ()
  | "table6" -> Report.table6 ~ns ppf ()
  | "fig2" -> Report.fig2 ppf (vpn ())
  | "fig3" -> Report.fig3 ppf ()
  | "fig5" -> Report.fig5 ppf (vpn ())
  | "fig6" -> Report.fig6 ppf (vpn ())
  | "fig7" -> Report.fig7 ppf ()
  | "fig8" -> Report.fig8 ppf ()
  | "fig9" -> Report.fig9 ppf ()
  | "paths9" -> ignore (Report.paths9 ppf (vpn ()))
  | "all" ->
      Report.table3 ppf ();
      let v = vpn () in
      Report.table4 ppf v;
      Report.fig5 ppf v;
      Report.fig2 ppf v;
      ignore (Report.paths9 ppf v);
      Report.fig6 ppf v;
      Report.fig3 ppf ();
      Report.fig7 ppf ();
      Report.fig8 ppf ();
      Report.fig9 ppf ();
      Report.table5 ppf ();
      Report.table6 ~ns ppf ()
  | other -> Fmt.epr "unknown reproduction target: %s@." other);
  ()

let repro_cmd =
  Cmd.v
    (Cmd.info "repro" ~doc:"Reproduce a table or figure of the paper")
    Term.(const repro $ repro_what $ routers_arg)

(* --- demo -------------------------------------------------------------------- *)

let channel_arg =
  let kind_conv = Arg.enum [ ("oob", `Oob); ("raw", `Raw) ] in
  let doc = "Management channel: 'oob' (pre-configured, out of band) or 'raw' (in-band flooding)." in
  Arg.(value & opt kind_conv `Oob & info [ "channel" ] ~docv:"KIND" ~doc)

let scenario_arg =
  let doc = "Scenario: gre, mpls, ipip, esp, vlan or auto (let the NM choose)." in
  Arg.(value & pos 0 string "auto" & info [] ~docv:"SCENARIO" ~doc)

let demo scenario channel =
  match scenario with
  | "vlan" -> (
      let v = Scenarios.build_vlan ~channel () in
      match
        Nm.achieve_l2 v.Scenarios.vnm ~scope:v.Scenarios.vscope
          ~from_eth:(Ids.v "ETH" "a" "id-SwA") ~to_eth:(Ids.v "ETH" "c" "id-SwC")
      with
      | Error e -> Fmt.epr "failed: %s@." e
      | Ok script ->
          Fmt.pr "CONMan script (switch A):@.";
          Script_gen.pp_device_script ppf (List.assoc "id-SwA" script.Script_gen.per_device);
          Fmt.pr "customers bridged: %b@." (Scenarios.vlan_reachable v))
  | scenario -> (
      let v = Scenarios.build_vpn ~channel ~secure:(scenario = "esp") () in
      let result =
        match scenario with
        | "auto" -> Nm.achieve v.Scenarios.nm v.Scenarios.goal
        | name ->
            let pick =
              match name with
              | "gre" -> Scenarios.pure_gre
              | "mpls" -> Scenarios.pure_mpls
              | "ipip" -> Scenarios.pure_ipip
              | "esp" -> Scenarios.secure
              | other -> Fmt.failwith "unknown scenario %s" other
            in
            let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
            let path = List.find pick paths in
            let script = Nm.configure_path v.Scenarios.nm v.Scenarios.goal path in
            Ok (paths, path, script)
      in
      match result with
      | Error e -> Fmt.epr "failed: %s@." e
      | Ok (_, path, script) ->
          Fmt.pr "configured path: %a@.@." Path_finder.pp path;
          List.iter
            (fun (dev, prims) ->
              Fmt.pr "--- %s ---@." dev;
              Script_gen.pp_device_script ppf prims)
            script.Script_gen.per_device;
          Fmt.pr "@.S1 <-> S2 reachable: %b@." (Scenarios.vpn_reachable v);
          Fmt.pr "NM messages: %d sent, %d received@." (Nm.stats_sent v.Scenarios.nm)
            (Nm.stats_received v.Scenarios.nm))

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Configure the figure-4 VPN (or figure-9 VLAN) testbed via CONMan")
    Term.(const demo $ scenario_arg $ channel_arg)

(* --- paths -------------------------------------------------------------------- *)

let paths_cmd =
  Cmd.v
    (Cmd.info "paths" ~doc:"Enumerate the module-level paths for the VPN goal")
    Term.(const (fun () -> ignore (Report.paths9 ppf (Scenarios.build_vpn ()))) $ const ())

(* --- debug -------------------------------------------------------------------- *)

let fault_arg =
  let doc = "Fault to inject before diagnosing: none, cut-link, key-mismatch." in
  Arg.(value & opt string "cut-link" & info [ "fault" ] ~docv:"FAULT" ~doc)

let debug fault =
  let v = Scenarios.build_vpn () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let gre = List.find Scenarios.pure_gre paths in
  let _ = Nm.configure_path v.Scenarios.nm v.Scenarios.goal gre in
  Fmt.pr "configured %a; reachable: %b@." Path_finder.pp gre (Scenarios.vpn_reachable v);
  (match fault with
  | "cut-link" ->
      Netsim.Link.cut
        (Option.get (Netsim.Net.find_segment v.Scenarios.tb.Netsim.Testbeds.vpn_net "A--B"));
      Fmt.pr "injected fault: cut the A--B wire@."
  | "key-mismatch" ->
      (match
         (Netsim.Device.find_iface_exn v.Scenarios.tb.Netsim.Testbeds.rc "gre-P10-P9")
           .Netsim.Device.if_kind
       with
      | Netsim.Device.Tun t -> t.Netsim.Device.t_ikey <- Some 4242l
      | _ -> ());
      Fmt.pr "injected fault: changed the tunnel ikey at router C out-of-band@."
  | _ -> Fmt.pr "no fault injected@.");
  Fmt.pr "reachable now: %b@.diagnosis:@." (Scenarios.vpn_reachable v);
  List.iter
    (fun (m, ok, detail) ->
      Fmt.pr "  %-20s %s %s@." (Ids.to_string m) (if ok then "ok  " else "FAIL") detail)
    (Nm.diagnose v.Scenarios.nm gre)

let debug_cmd =
  Cmd.v
    (Cmd.info "debug" ~doc:"Inject a fault and let the NM localise it")
    Term.(const debug $ fault_arg)

(* --- selfheal ------------------------------------------------------------------ *)

let ticks_arg =
  let doc = "Reconciliation ticks to run (500 ms of virtual time each)." in
  Arg.(value & opt int 12 & info [ "ticks" ] ~docv:"N" ~doc)

let flap_cycles_arg =
  let doc = "Down/up cycles for the injected core-link flap." in
  Arg.(value & opt int 2 & info [ "cycles" ] ~docv:"N" ~doc)

let selfheal ticks cycles =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  let obs = Observe.create () in
  ignore
    (Observe.attach_nm obs ~agents:d.Scenarios.dagents ~transport:d.Scenarios.dtransport
       ~admission:d.Scenarios.dadmission ~faults:d.Scenarios.dfaults
       ~station:Scenarios.nm_station_id nm);
  let chosen =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, path, _) ->
        List.find_map
          (fun (v : Path_finder.visit) ->
            let dev = v.Path_finder.v_mod.Ids.dev in
            if dev = "id-B1" || dev = "id-B2" then Some dev else None)
          path.Path_finder.visits
        |> Option.get
    | Error e -> Fmt.failwith "achieve: %s" e
  in
  Fmt.pr "configured through core %s; reachable: %b@." chosen (Scenarios.diamond_reachable d);
  let seg_name = if chosen = "id-B1" then "A--B1" else "A--B2" in
  let seg = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net seg_name in
  Netsim.Link.flap ~cycles seg ~first_down_ns:1_200_000_000L ~down_ns:800_000_000L
    ~up_ns:1_200_000_000L;
  Fmt.pr "scheduled %d flap cycle(s) on %s; running the reconciliation loop...@.@." cycles
    seg_name;
  let mon = Monitor.create nm in
  Monitor.run mon ~ticks;
  List.iter (fun e -> Fmt.pr "%a@." Monitor.pp_event e) (Monitor.events mon);
  Fmt.pr "@.%a@." Monitor.pp_health mon;
  Fmt.pr "link %s: flaps=%d drops: cut=%d loss=%d corrupt=%d mtu=%d@." seg_name
    (Netsim.Link.flaps seg)
    (Netsim.Link.drop_count seg "cut")
    (Netsim.Link.drop_count seg "loss")
    (Netsim.Link.drop_count seg "corrupt")
    (Netsim.Link.drop_count seg "mtu");
  Fmt.pr "ring-buffer drops:@.";
  Fmt.pr "  %-28s %d (of limit %d)@." "monitor_events" (Monitor.dropped_events mon)
    (Monitor.event_limit mon);
  List.iter (fun (ring, n) -> Fmt.pr "  %-28s %d@." ring n) (Observe.ring_dropped obs);
  Fmt.pr "end-to-end reachable: %b@." (Scenarios.diamond_reachable d)

let selfheal_cmd =
  Cmd.v
    (Cmd.info "selfheal"
       ~doc:"Flap a core link of the diamond testbed and watch the reconciliation loop repair it")
    Term.(const selfheal $ ticks_arg $ flap_cycles_arg)

(* --- diagnose ------------------------------------------------------------------ *)

let diag_fault_arg =
  let doc =
    "Fault to inject before the telemetry rounds: cut-link (cut the A--B wire), mpls-xc (erase \
     router B's incoming-label cross-connects), loss (seeded 50% loss on A--B), partition \
     (management-plane partition of router B), or none."
  in
  Arg.(value & opt string "cut-link" & info [ "fault" ] ~docv:"FAULT" ~doc)

let diag_rounds_arg =
  let doc = "Scrape rounds to run after the fault (each pumps one end-to-end exchange)." in
  Arg.(value & opt int 4 & info [ "rounds" ] ~docv:"N" ~doc)

let diagnose fault rounds =
  let v = Scenarios.build_vpn () in
  let obs = Observe.create () in
  ignore
    (Observe.attach_nm obs ~agents:v.Scenarios.agents ~transport:v.Scenarios.transport
       ~admission:v.Scenarios.admission ~faults:v.Scenarios.faults
       ~station:Scenarios.nm_station_id v.Scenarios.nm);
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let pick = if fault = "mpls-xc" then Scenarios.pure_mpls else Scenarios.pure_gre in
  let path = List.find pick paths in
  let _ = Nm.configure_path v.Scenarios.nm v.Scenarios.goal path in
  Fmt.pr "configured %a; reachable: %b@." Path_finder.pp path (Scenarios.vpn_reachable v);
  let tel = Telemetry.create ~scope:v.Scenarios.scope v.Scenarios.nm in
  (* several exchanges per round so partial loss is statistically visible
     in one delta (a single lost frame looks like a cut) *)
  let pump () =
    for _ = 1 to 4 do
      ignore (Scenarios.vpn_reachable v)
    done
  in
  (* two healthy rounds: the first sets the counter baselines, the second
     records a known-good delta *)
  for _ = 1 to 2 do
    pump ();
    Telemetry.scrape tel
  done;
  let seg () = Netsim.Net.find_segment_exn v.Scenarios.tb.Netsim.Testbeds.vpn_net "A--B" in
  (match fault with
  | "cut-link" ->
      Netsim.Link.cut (seg ());
      Fmt.pr "injected fault: cut the A--B wire@."
  | "mpls-xc" ->
      let rb = v.Scenarios.tb.Netsim.Testbeds.rb in
      Hashtbl.iter
        (fun _ (ilm : Netsim.Device.ilm) -> ilm.Netsim.Device.ilm_xc <- None)
        rb.Netsim.Device.mpls.Netsim.Device.ilm_table;
      Fmt.pr "injected fault: erased router B's ILM cross-connects out-of-band@."
  | "loss" ->
      Netsim.Link.set_seed (seg ()) 7L;
      Netsim.Link.set_loss (seg ()) 0.5;
      Fmt.pr "injected fault: 50%% seeded loss on the A--B wire@."
  | "partition" ->
      Mgmt.Faults.partition v.Scenarios.faults "id-B";
      Fmt.pr "injected fault: management-plane partition of router B@."
  | _ -> Fmt.pr "no fault injected@.");
  for _ = 1 to max 1 rounds do
    pump ();
    Telemetry.scrape tel
  done;
  Fmt.pr "reachable now: %b@." (Scenarios.vpn_reachable v);
  Fmt.pr "@.anomalies after %d round(s):@." (Telemetry.rounds tel);
  (match Telemetry.anomalies tel with
  | [] -> Fmt.pr "  (none)@."
  | anoms -> List.iter (fun a -> Fmt.pr "  %a@." Diagnose.pp_anomaly a) anoms);
  Fmt.pr "@.ranked diagnosis:@.";
  (match Telemetry.diagnose_path tel path with
  | [] -> Fmt.pr "  (nothing to report)@."
  | ds -> List.iter (fun d -> Fmt.pr "  @[<v>%a@]@." Diagnose.pp_diagnosis d) ds);
  let c = Mgmt.Faults.counters v.Scenarios.faults in
  Fmt.pr "@.management-channel fault counters:@.";
  Fmt.pr "  dropped=%d duplicated=%d delayed=%d crash-drops=%d partition-drops=%d@."
    c.Mgmt.Faults.dropped c.Mgmt.Faults.duplicated c.Mgmt.Faults.delayed
    c.Mgmt.Faults.crash_drops c.Mgmt.Faults.partition_drops;
  (* bounded rings drop silently under pressure; a diagnosis that ignores
     how much evidence was lost can be confidently wrong *)
  Fmt.pr "@.ring-buffer drops (evidence silently discarded):@.";
  List.iter (fun (ring, n) -> Fmt.pr "  %-28s %d@." ring n) (Observe.ring_dropped obs)

let diagnose_cmd =
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Inject a fault, scrape showPerf telemetry and localise the root cause from counters")
    Term.(const diagnose $ diag_fault_arg $ diag_rounds_arg)

(* --- chaos --------------------------------------------------------------------- *)

let chaos_seed_arg = Common_args.seed ~doc:"Seed for the composite fault schedule." ()

let chaos_seeds_arg =
  Common_args.seeds_opt ~doc:"Run a whole seed set (comma-separated); overrides --seed." ()

let chaos_ticks_arg =
  Common_args.ticks ~doc:"Chaos-phase length in monitor ticks (default 12, or 6 with --quick)." ()

let chaos_intensity_arg =
  Common_args.intensity ~default:0.5 ~doc:"Fault events per tick of schedule." ()

let chaos_quick_arg = Common_args.quick ()

let chaos_replay_arg =
  Common_args.replay ~doc:"Replay a schedule from a sexp repro file instead of generating one." ()

let chaos_weaken_arg =
  let doc =
    "Deliberately weaken an invariant to demonstrate the shrinker: 'oscillation' sets the \
     per-intent reroute bound to zero, so any repair counts as a violation."
  in
  Arg.(value & opt (some (enum [ ("oscillation", `Oscillation) ])) None
       & info [ "weaken" ] ~docv:"INVARIANT" ~doc)

let chaos_out_arg =
  Common_args.out
    ~doc:"Where to write the minimized repro on failure (default chaos_repro_seed<N>.sexp)." ()

let chaos_trace_arg =
  let doc = "Print the monitor's event trace after each run (debugging a repro)." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let chaos seed seeds ticks intensity quick replay weaken out show_trace =
  let ticks = match ticks with Some t -> t | None -> if quick then 6 else 12 in
  let config =
    match weaken with
    | Some `Oscillation ->
        { Chaos.Engine.default_config with Chaos.Engine.oscillation_bound = Some 0 }
    | None -> Chaos.Engine.default_config
  in
  let run_one sched =
    let r = Chaos.Engine.run ~config sched in
    Fmt.pr "seed %d · %d event(s) over %d ticks (+%d tail):@." sched.Chaos.Schedule.seed
      (List.length sched.Chaos.Schedule.events)
      sched.Chaos.Schedule.ticks sched.Chaos.Schedule.tail;
    Fmt.pr "%a" Chaos.Engine.pp_report r;
    if show_trace then List.iter (fun l -> Fmt.pr "    %s@." l) r.Chaos.Engine.trace;
    match Chaos.Engine.failures r with
    | [] -> true
    | fails ->
        let names = List.map (fun v -> v.Chaos.Engine.name) fails in
        Fmt.pr "  shrinking the failure...@.";
        let failing s =
          let r' = Chaos.Engine.run ~config s in
          let names' = List.map (fun v -> v.Chaos.Engine.name) (Chaos.Engine.failures r') in
          List.exists (fun n -> List.mem n names') names
        in
        let { Chaos.Shrink.minimized; runs } = Chaos.Shrink.minimize ~failing sched in
        let path =
          match out with
          | Some p -> p
          | None -> Printf.sprintf "chaos_repro_seed%d.sexp" sched.Chaos.Schedule.seed
        in
        Common_args.write_file path (Chaos.Schedule.to_string minimized);
        Fmt.pr "  minimized to %d event(s) in %d runs:@."
          (List.length minimized.Chaos.Schedule.events)
          runs;
        Fmt.pr "%a" Chaos.Schedule.pp minimized;
        Fmt.pr "  repro written to %s (re-run with: conman chaos --replay %s%s)@." path path
          (match weaken with Some `Oscillation -> " --weaken oscillation" | None -> "");
        false
  in
  let ok =
    match replay with
    | Some file -> run_one (Chaos.Schedule.of_string (Common_args.read_file file))
    | None ->
        let seed_list = match seeds with Some ss -> ss | None -> [ seed ] in
        List.fold_left
          (fun acc s ->
            let sched = Chaos.Schedule.generate ~intensity ~seed:s ~ticks () in
            run_one sched && acc)
          true seed_list
  in
  if ok then Fmt.pr "all invariants held@." else exit 1

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded composite fault schedule (link cuts/loss/flaps, management-channel \
          faults, agent and NM crashes) against the diamond testbed and check the global \
          invariants; on violation, shrink to a minimized sexp repro")
    Term.(
      const chaos $ chaos_seed_arg $ chaos_seeds_arg $ chaos_ticks_arg $ chaos_intensity_arg
      $ chaos_quick_arg $ chaos_replay_arg $ chaos_weaken_arg $ chaos_out_arg
      $ chaos_trace_arg)

(* --- ha ------------------------------------------------------------------------ *)

let ha_seed_arg =
  Common_args.seed_opt
    ~doc:
      "Also run a seeded composite fault schedule (the chaos generator) on top of the \
       handcrafted failover scenarios."
    ()

let ha_quick_arg = Common_args.quick ~doc:"Quick mode: shorter chaos phases (CI smoke)." ()

let ha seed quick =
  let ticks = if quick then 6 else 10 in
  let ev at fault = { Chaos.Schedule.at; fault } in
  let sched ?(ticks = ticks) events =
    { Chaos.Schedule.seed = 0; ticks; tail = 12; events }
  in
  let scenarios =
    [
      ( "primary-crash",
        sched [ ev 2 (Chaos.Schedule.Nm_failover { ticks = if quick then 4 else 6 }) ] );
      ( "split-brain-partition",
        sched [ ev 2 (Chaos.Schedule.Ha_partition { ticks = if quick then 3 else 4 }) ] );
      ( "standby-crash",
        sched [ ev 2 (Chaos.Schedule.Standby_crash { ticks = 3 }) ] );
      ( "double-failover",
        sched ~ticks:12
          [
            ev 2 (Chaos.Schedule.Nm_failover { ticks = 3 });
            ev 8 (Chaos.Schedule.Nm_failover { ticks = 3 });
          ] );
    ]
    @
    match seed with
    | Some s ->
        [ (Printf.sprintf "seeded-%d" s, Chaos.Schedule.generate ~seed:s ~ticks ()) ]
    | None -> []
  in
  Fmt.pr "HA failover scenarios (%s):@." (if quick then "quick" else "full");
  Fmt.pr "  %-22s %-6s %s@." "scenario" "result"
    "failovers detect replayed split-brain lost epoch";
  let run_one (name, s) =
    let r = Chaos.Engine.run s in
    let h = r.Chaos.Engine.ha in
    let fails = Chaos.Engine.failures r in
    Fmt.pr "  %-22s %-6s %9d %6s %8d %11d %4d %5d@." name
      (if fails = [] then "ok" else "FAIL")
      h.Chaos.Engine.failovers
      (match h.Chaos.Engine.detection_ticks with
      | Some t -> string_of_int t ^ "t"
      | None -> "-")
      h.Chaos.Engine.replayed h.Chaos.Engine.split_brain_count h.Chaos.Engine.lost_intents
      h.Chaos.Engine.final_epoch;
    List.iter (fun v -> Fmt.pr "      %a@." Chaos.Engine.pp_verdict v) fails;
    fails = []
  in
  let ok = List.fold_left (fun acc sc -> run_one sc && acc) true scenarios in
  if ok then Fmt.pr "verdict: all HA invariants held@."
  else begin
    Fmt.pr "verdict: HA invariant violated@.";
    exit 1
  end

let ha_cmd =
  Cmd.v
    (Cmd.info "ha"
       ~doc:
         "Exercise NM high availability: primary crash, NM<->standby partition, standby crash \
          and double failover against the diamond testbed, checking failure detection, \
          epoch-fenced leadership (no split brain) and intent preservation across takeover")
    Term.(const ha $ ha_seed_arg $ ha_quick_arg)

(* --- overload ------------------------------------------------------------------ *)

let ov_seeds_arg =
  Common_args.seeds ~default:[ 1; 2; 3; 4; 5 ] ~doc:"Seed set for the storm soak (comma-separated)." ()

let ov_ticks_arg =
  Common_args.ticks
    ~doc:"Chaos-phase length in monitor ticks (default 10, or 6 with --quick)." ()

let ov_intensity_arg =
  Common_args.intensity ~default:0.6
    ~doc:"Storm intensity in [0,1] for the Overload event forced into every schedule." ()

let ov_quick_arg = Common_args.quick ()

let overload seeds ticks intensity quick =
  let ticks = match ticks with Some t -> t | None -> if quick then 6 else 10 in
  let force s =
    let stormy =
      List.exists
        (fun (e : Chaos.Schedule.event) ->
          match e.Chaos.Schedule.fault with Chaos.Schedule.Overload _ -> true | _ -> false)
        s.Chaos.Schedule.events
    in
    if stormy then s
    else
      let ev =
        { Chaos.Schedule.at = 1; fault = Chaos.Schedule.Overload { intensity; ticks = 3 } }
      in
      {
        s with
        Chaos.Schedule.events =
          List.stable_sort
            (fun (a : Chaos.Schedule.event) b -> compare a.Chaos.Schedule.at b.Chaos.Schedule.at)
            (ev :: s.Chaos.Schedule.events);
      }
  in
  Fmt.pr "overload soak (%d seeds, %d ticks, storm intensity %.2f):@." (List.length seeds)
    ticks intensity;
  Fmt.pr "  %-6s %-6s %s@." "seed" "result" "storm  p0-shed p1-shed p3-shed  converged";
  let run_one seed =
    let r = Chaos.Engine.run (force (Chaos.Schedule.generate ~seed ~ticks ())) in
    let o = r.Chaos.Engine.overload in
    let fails = Chaos.Engine.failures r in
    Fmt.pr "  %-6d %-6s %5d %8d %7d %7d  %s@." seed
      (if fails = [] then "ok" else "FAIL")
      o.Chaos.Engine.storm_frames o.Chaos.Engine.p0_shed o.Chaos.Engine.p1_shed
      (o.Chaos.Engine.p3_shed + o.Chaos.Engine.p3_expired)
      (match r.Chaos.Engine.converged_tick with
      | Some t -> Printf.sprintf "tail+%d" t
      | None -> "NO");
    List.iter (fun v -> Fmt.pr "      %a@." Chaos.Engine.pp_verdict v) fails;
    fails = []
  in
  let ok = List.fold_left (fun acc s -> run_one s && acc) true seeds in
  if ok then Fmt.pr "verdict: graceful degradation held@."
  else begin
    Fmt.pr "verdict: overload invariant violated@.";
    exit 1
  end

let overload_cmd =
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Force a telemetry storm (Overload event) into seeded fault schedules and check \
          graceful degradation: heartbeats and repair scripts are never shed, telemetry is \
          shed and backs off, no spurious failovers, and every schedule still converges")
    Term.(const overload $ ov_seeds_arg $ ov_ticks_arg $ ov_intensity_arg $ ov_quick_arg)

(* --- federation ---------------------------------------------------------------- *)

let fed_seeds_arg =
  Common_args.seeds
    ~default:(List.init 20 (fun i -> i + 1))
    ~doc:"Seed set for the two-domain soak (comma-separated)." ()

let fed_ticks_arg =
  Common_args.ticks ~doc:"Chaos-phase length in ticks (default 10, or 6 with --quick)." ()

let fed_intensity_arg =
  Common_args.intensity ~default:0.5
    ~doc:"Background channel-fault events per tick (the NM crash and partition are always forced)."
    ()

let fed_quick_arg = Common_args.quick ()

let fed_replay_arg =
  Common_args.replay ~doc:"Replay a schedule from a sexp repro file instead of generating one." ()

let fed_out_arg =
  Common_args.out
    ~doc:"Where to write the minimized repro on failure (default fed_repro_seed<N>.sexp)." ()

let federation seeds ticks intensity quick replay out =
  let ticks = match ticks with Some t -> t | None -> if quick then 6 else 10 in
  let seeds = if quick then List.filteri (fun i _ -> i < 5) seeds else seeds in
  let run_one sched =
    let r = Chaos.Fed_engine.run sched in
    let fails = Chaos.Fed_engine.failures r in
    Fmt.pr "  %-6d %-6s %8d %8d %6d %7d %7d  %s@." sched.Chaos.Schedule.seed
      (if fails = [] then "ok" else "FAIL")
      r.Chaos.Fed_engine.replans r.Chaos.Fed_engine.backouts r.Chaos.Fed_engine.relays
      r.Chaos.Fed_engine.half_configured r.Chaos.Fed_engine.foreign_writes
      (match r.Chaos.Fed_engine.converged_tick with
      | Some t -> Printf.sprintf "tail+%d" t
      | None -> "NO");
    List.iter (fun v -> Fmt.pr "      %a@." Chaos.Fed_engine.pp_verdict v) fails;
    match fails with
    | [] -> true
    | fails ->
        let names = List.map (fun (v : Chaos.Fed_engine.verdict) -> v.Chaos.Fed_engine.name) fails in
        Fmt.pr "  shrinking the failure...@.";
        let failing s =
          let names' =
            List.map
              (fun (v : Chaos.Fed_engine.verdict) -> v.Chaos.Fed_engine.name)
              (Chaos.Fed_engine.failures (Chaos.Fed_engine.run s))
          in
          List.exists (fun n -> List.mem n names') names
        in
        let { Chaos.Shrink.minimized; runs } = Chaos.Shrink.minimize ~failing sched in
        let path =
          match out with
          | Some p -> p
          | None -> Printf.sprintf "fed_repro_seed%d.sexp" sched.Chaos.Schedule.seed
        in
        Common_args.write_file path (Chaos.Schedule.to_string minimized);
        Fmt.pr "  minimized to %d event(s) in %d runs:@."
          (List.length minimized.Chaos.Schedule.events)
          runs;
        Fmt.pr "%a" Chaos.Schedule.pp minimized;
        Fmt.pr "  repro written to %s (re-run with: conman federation --replay %s)@." path path;
        false
  in
  let ok =
    match replay with
    | Some file ->
        Fmt.pr "  %-6s %-6s %s@." "seed" "result" "replans backouts relays half-cfg foreign  converged";
        run_one (Chaos.Schedule.of_string (Common_args.read_file file))
    | None ->
        Fmt.pr "federated two-domain soak (%d seeds, %d ticks, NM crash + partition forced):@."
          (List.length seeds) ticks;
        Fmt.pr "  %-6s %-6s %s@." "seed" "result" "replans backouts relays half-cfg foreign  converged";
        List.fold_left
          (fun acc s -> run_one (Chaos.Fed_engine.generate ~intensity ~seed:s ~ticks ()) && acc)
          true seeds
  in
  if ok then Fmt.pr "verdict: all federation invariants held@."
  else begin
    Fmt.pr "verdict: federation invariant violated@.";
    exit 1
  end

let federation_cmd =
  Cmd.v
    (Cmd.info "federation"
       ~doc:
         "Run the federated two-domain chaos soak: each seeded schedule forces a peer-NM crash \
          and an inter-domain partition while a cross-domain goal is being achieved, and checks \
          that the goal converges, no stitched pipe is left half-configured after a back-out, \
          neither NM writes outside its domain, and the final configuration matches a single-NM \
          run; on violation, shrink to a minimized sexp repro")
    Term.(
      const federation $ fed_seeds_arg $ fed_ticks_arg $ fed_intensity_arg $ fed_quick_arg
      $ fed_replay_arg $ fed_out_arg)

(* --- trace --------------------------------------------------------------------- *)

module Fs = Federation.Fed_scenarios

let trace_seed_arg =
  Common_args.seed ~doc:"Seed for the chaos schedule driven under the traced goal." ()

let trace_ticks_arg =
  Common_args.ticks ~doc:"Chaos-phase length in ticks (default 10)." ()

let trace_clean_arg =
  let doc = "Trace a fault-free convergence instead of a chaos run." in
  Arg.(value & flag & info [ "clean" ] ~doc)

let trace_goal_arg =
  let doc =
    "Goal id (trace root span id) to render. Defaults to the cross-domain goal; 'all' renders \
     every traced goal."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"GOAL" ~doc)

(* Renders the end-to-end causal trace of the cross-domain federated goal:
   both NMs' collectors are stitched, so the tree spans the coordinator's
   plan/commit phases, the peer's delegated execution and every agent's
   script run — under chaos, also the retries, sheds and replays. *)
let trace goal seed ticks clean =
  let ticks = Option.value ~default:10 ticks in
  let render_goals cols default_goal =
    let goals =
      match goal with
      | None -> (match default_goal with Some g -> [ g ] | None -> Obs.Trace.goals cols)
      | Some "all" -> Obs.Trace.goals cols
      | Some g -> (
          match int_of_string_opt g with
          | Some g -> [ g ]
          | None -> Fmt.failwith "trace: GOAL must be a goal id or 'all' (got %s)" g)
    in
    List.iter
      (fun g ->
        Fmt.pr "goal %d (%d span(s), %s):@.%s@." g
          (List.length (Obs.Trace.goal_spans cols g))
          (if Obs.Trace.connected cols g then "connected" else "ORPHANED")
          (Obs.Trace.render cols g))
      goals;
    List.for_all (fun g -> Obs.Trace.connected cols g) goals
  in
  let ok =
    if clean then begin
      Nm.set_incarnations 0;
      Obs.Trace.reset_ids ();
      let t = Fs.build_two_domain 4 in
      let obs = Fs.instrument t in
      let gid = Federation.Fed.submit t.Fs.fwest t.Fs.fgoal in
      let converged = Fs.converge ~obs t gid in
      Fmt.pr "fault-free two-domain run: converged=%b@.@." converged;
      let root = Federation.Fed.goal_trace t.Fs.fwest gid in
      converged
      && render_goals (Observe.collectors obs)
           (Option.map (fun c -> c.Obs.Trace.goal) root)
    end
    else begin
      let sched = Chaos.Fed_engine.generate ~seed ~ticks () in
      let r = Chaos.Fed_engine.run sched in
      Fmt.pr
        "two-domain chaos run (seed %d, %d ticks): converged=%b orphans=%d connected=%b@.@."
        seed ticks
        (r.Chaos.Fed_engine.converged_tick <> None)
        r.Chaos.Fed_engine.orphan_spans r.Chaos.Fed_engine.trace_connected;
      Fmt.pr "%s@." r.Chaos.Fed_engine.goal_trace;
      Chaos.Fed_engine.failures r = []
    end
  in
  if not ok then exit 1

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Achieve the cross-domain federated goal (under a seeded chaos schedule, or --clean) \
          and render its end-to-end causal span tree across both NMs, their agents and the \
          transport — one connected tree, or a nonzero exit")
    Term.(const trace $ trace_goal_arg $ trace_seed_arg $ trace_ticks_arg $ trace_clean_arg)

(* --- metrics ------------------------------------------------------------------- *)

let metrics_clean_arg =
  let doc = "Dump metrics from a fault-free convergence instead of a chaos run." in
  Arg.(value & flag & info [ "clean" ] ~doc)

let metrics_seed_arg = Common_args.seed ~doc:"Seed for the chaos schedule." ()
let metrics_ticks_arg = Common_args.ticks ~doc:"Chaos-phase length in ticks (default 10)." ()

(* Dumps the unified registry — every subsystem's counters under uniform
   subsystem.name keys plus the per-phase latency histograms — as
   jq-friendly JSON on stdout. *)
let metrics seed ticks clean =
  let ticks = Option.value ~default:10 ticks in
  if clean then begin
    Nm.set_incarnations 0;
    Obs.Trace.reset_ids ();
    let t = Fs.build_two_domain 4 in
    let obs = Fs.instrument t in
    let gid = Federation.Fed.submit t.Fs.fwest t.Fs.fgoal in
    ignore (Fs.converge ~obs t gid);
    print_string (Obs.Registry.to_json (Observe.registry obs))
  end
  else
    let r = Chaos.Fed_engine.run (Chaos.Fed_engine.generate ~seed ~ticks ()) in
    print_string r.Chaos.Fed_engine.metrics_json

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the two-domain federated deployment (chaos or --clean) and dump the unified \
          metrics registry — all subsystem counters and goal-phase latency histograms — as \
          jq-friendly JSON")
    Term.(const metrics $ metrics_seed_arg $ metrics_ticks_arg $ metrics_clean_arg)

(* --- main --------------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "conman" ~version:"1.0.0"
      ~doc:"CONMan: Complexity Oblivious Network Management (SIGCOMM 2007), reproduced in OCaml"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            repro_cmd; demo_cmd; paths_cmd; debug_cmd; selfheal_cmd; diagnose_cmd; chaos_cmd;
            ha_cmd; overload_cmd; federation_cmd; trace_cmd; metrics_cmd;
          ]))
