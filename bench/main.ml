(* The benchmark harness: regenerates every table and figure of the paper
   (printed to stdout) and then times the machinery behind each of them with
   Bechamel. Run with `dune exec bench/main.exe`. *)

open Bechamel
open Conman

(* --- reproduction of the paper's tables and figures -------------------------- *)

let reproductions () =
  let ppf = Fmt.stdout in
  Report.table3 ppf ();
  let v = Scenarios.build_vpn () in
  Report.table4 ppf v;
  Report.fig5 ppf v;
  Report.fig2 ppf v;
  let _ = Report.paths9 ppf v in
  Report.fig6 ppf v;
  Report.fig3 ppf ();
  Report.fig7 ppf ();
  Report.fig8 ppf ();
  Report.fig9 ppf ();
  Report.table5 ppf ();
  Report.table6 ppf ();
  Report.security ppf ();
  Report.ablations ppf ();
  Fmt.pf ppf "@."

(* --- micro-benchmarks ---------------------------------------------------------- *)

(* Each table/figure of the paper gets a benchmark of the machinery that
   regenerates it; a few substrate benchmarks cover the data plane the
   evaluation rests on. *)

let bench_table3 =
  Test.make ~name:"table3: GRE abstraction encode"
    (Staged.stage (fun () -> Sexp.to_string (Abstraction.to_sexp (Gre_module.abstraction ()))))

let bench_table4 =
  Test.make ~name:"table4: discovery + showPotential"
    (Staged.stage (fun () -> ignore (Scenarios.build_vpn ())))

(* Reused inputs for the per-run benchmarks (setup excluded from timing). *)
let v_shared = Scenarios.build_vpn ()

let bench_fig5 =
  Test.make ~name:"fig5: potential graph (device A)"
    (Staged.stage (fun () ->
         List.iter
           (fun (m, _) -> ignore (Potential_graph.below (Nm.topology v_shared.Scenarios.nm) m))
           (Topology.modules_of_device (Nm.topology v_shared.Scenarios.nm) "id-A")))

let bench_paths9 =
  Test.make ~name:"paths9/fig6: path enumeration (9 paths)"
    (Staged.stage (fun () ->
         ignore (Nm.find_paths v_shared.Scenarios.nm v_shared.Scenarios.goal)))

(* The NM's planner on the n=11 Table-VI chain (2049 sane candidates).
   Lazy so --quick, which runs no micro-benchmarks, never builds it;
   [run_benchmarks] forces it before timing. *)
let chain11_shared = lazy (Scenarios.build_chain 11)

let bench_plan_best =
  Test.make ~name:"plan: best-first (chain n=11)"
    (Staged.stage (fun () ->
         let c = Lazy.force chain11_shared in
         ignore (Path_finder.best (Nm.topology c.Scenarios.cnm) c.Scenarios.cgoal)))

let gre_path =
  List.find Scenarios.pure_gre (Nm.find_paths v_shared.Scenarios.nm v_shared.Scenarios.goal)

let mpls_path =
  List.find Scenarios.pure_mpls (Nm.find_paths v_shared.Scenarios.nm v_shared.Scenarios.goal)

let bench_fig2 =
  Test.make ~name:"fig2: GRE path script generation"
    (Staged.stage (fun () ->
         ignore
           (Script_gen.generate (Nm.topology v_shared.Scenarios.nm) v_shared.Scenarios.goal
              gre_path)))

let bench_fig3 =
  Test.make ~name:"fig3: GRE establishment (full coordination)"
    (Staged.stage (fun () ->
         let v = Scenarios.build_vpn () in
         let p = List.find Scenarios.pure_gre (Nm.find_paths v.Scenarios.nm v.Scenarios.goal) in
         ignore (Nm.configure_path v.Scenarios.nm v.Scenarios.goal p)))

let bench_fig7_today =
  Test.make ~name:"fig7a: today's GRE scripts (execution)"
    (Staged.stage (fun () ->
         let tb = Netsim.Testbeds.vpn () in
         ignore (Devconf.Linux_cli.run_script tb.Netsim.Testbeds.ra Devconf.Paper_scripts.gre_a);
         ignore (Devconf.Linux_cli.run_script tb.Netsim.Testbeds.rb Devconf.Paper_scripts.gre_b);
         ignore (Devconf.Linux_cli.run_script tb.Netsim.Testbeds.rc Devconf.Paper_scripts.gre_c)))

let bench_fig7_conman =
  Test.make ~name:"fig7b: CONMan GRE configuration (end-to-end)"
    (Staged.stage (fun () ->
         let v = Scenarios.build_vpn () in
         let p = List.find Scenarios.pure_gre (Nm.find_paths v.Scenarios.nm v.Scenarios.goal) in
         ignore (Nm.configure_path v.Scenarios.nm v.Scenarios.goal p)))

let bench_fig8_conman =
  Test.make ~name:"fig8b: CONMan MPLS configuration (end-to-end)"
    (Staged.stage (fun () ->
         let v = Scenarios.build_vpn () in
         let p = List.find Scenarios.pure_mpls (Nm.find_paths v.Scenarios.nm v.Scenarios.goal) in
         ignore (Nm.configure_path v.Scenarios.nm v.Scenarios.goal p)))

let bench_fig9_conman =
  Test.make ~name:"fig9b: CONMan VLAN tunnel (end-to-end)"
    (Staged.stage (fun () ->
         let v = Scenarios.build_vlan () in
         ignore
           (Nm.achieve_l2 v.Scenarios.vnm ~scope:v.Scenarios.vscope
              ~from_eth:(Ids.v "ETH" "a" "id-SwA") ~to_eth:(Ids.v "ETH" "c" "id-SwC"))))

let bench_table5 =
  Test.make ~name:"table5: script metrics (GRE today)"
    (Staged.stage (fun () -> ignore (Devconf.Metrics.analyze_linux Devconf.Paper_scripts.gre_a)))

let bench_table5_conman =
  Test.make ~name:"table5: script metrics (GRE CONMan)"
    (Staged.stage (fun () ->
         let script =
           Script_gen.generate (Nm.topology v_shared.Scenarios.nm) v_shared.Scenarios.goal gre_path
         in
         ignore (Script_gen.table5_counts script ~device:"id-A")))

let bench_table6 =
  Test.make ~name:"table6: GRE config + message accounting (n=3)"
    (Staged.stage (fun () -> ignore (Report.table6_row_gre 3)))

(* substrate benchmarks *)

let configured_vpn =
  let v = Scenarios.build_vpn () in
  let _ = Nm.configure_path v.Scenarios.nm v.Scenarios.goal mpls_path in
  ignore (Scenarios.vpn_reachable v);
  v

let bench_dataplane_ping =
  Test.make ~name:"substrate: ping across configured MPLS VPN"
    (Staged.stage (fun () ->
         ignore
           (Netsim.Ping.reachable configured_vpn.Scenarios.tb.Netsim.Testbeds.vpn_net
              ~from:configured_vpn.Scenarios.tb.Netsim.Testbeds.host1
              ~src:(Packet.Ipv4_addr.of_string "10.0.1.2")
              ~dst:(Packet.Ipv4_addr.of_string "10.0.2.2")
              ())))

let bench_wire_codec =
  let msg =
    Wire.Convey
      {
        src = Ids.v "GRE" "l" "id-A";
        dst = Ids.v "GRE" "n" "id-C";
        payload =
          Peer_msg.Gre_params { pipe = "P1"; ikey = 1001l; okey = 2001l; use_seq = true; use_csum = true };
      }
  in
  let encoded = Wire.encode msg in
  Test.make ~name:"substrate: wire decode (convey)"
    (Staged.stage (fun () -> ignore (Wire.decode encoded)))

let bench_ipv4_codec =
  let pkt =
    Packet.Ipv4.encode
      (Packet.Ipv4.make ~proto:Packet.Ip_proto.Udp
         ~src:(Packet.Ipv4_addr.of_string "10.0.0.1")
         ~dst:(Packet.Ipv4_addr.of_string "10.0.0.2")
         ())
      (Bytes.create 512)
  in
  Test.make ~name:"substrate: IPv4 decode (512B payload)"
    (Staged.stage (fun () -> ignore (Packet.Ipv4.decode pkt)))

let diamond_shared = Scenarios.build_diamond ()

let bench_full_search =
  Test.make ~name:"ablation: full path search (diamond)"
    (Staged.stage (fun () ->
         ignore
           (Path_finder.find (Nm.topology diamond_shared.Scenarios.dnm)
              diamond_shared.Scenarios.dgoal)))

let bench_hierarchical_search =
  Test.make ~name:"ablation: hierarchical path search (diamond)"
    (Staged.stage (fun () ->
         ignore
           (Path_finder.find_hierarchical (Nm.topology diamond_shared.Scenarios.dnm)
              diamond_shared.Scenarios.dgoal)))

let bench_secure_vpn =
  Test.make ~name:"extension: IPsec VPN (ESP + IKE over data plane)"
    (Staged.stage (fun () ->
         let v = Scenarios.build_vpn ~secure:true () in
         let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
         let p = List.find Scenarios.secure paths in
         ignore (Nm.configure_path v.Scenarios.nm v.Scenarios.goal p)))

let bench_lossy_configure =
  Test.make ~name:"robustness: GRE configuration at 30% mgmt loss"
    (Staged.stage (fun () ->
         let v = Scenarios.build_vpn () in
         Mgmt.Faults.set_drop v.Scenarios.faults 0.3;
         let p = List.find Scenarios.pure_gre (Nm.find_paths v.Scenarios.nm v.Scenarios.goal) in
         ignore (Nm.configure_path v.Scenarios.nm v.Scenarios.goal p)))

let bench_raw_channel =
  Test.make ~name:"substrate: raw-channel flooded showActual"
    (Staged.stage (fun () ->
         let v = Scenarios.build_vpn ~channel:`Raw () in
         ignore (Nm.show_actual v.Scenarios.nm "id-C")))

let all_tests =
  Test.make_grouped ~name:"conman"
    [
      bench_table3;
      bench_table4;
      bench_fig5;
      bench_paths9;
      bench_plan_best;
      bench_fig2;
      bench_fig3;
      bench_fig7_today;
      bench_fig7_conman;
      bench_fig8_conman;
      bench_fig9_conman;
      bench_table5;
      bench_table5_conman;
      bench_table6;
      bench_dataplane_ping;
      bench_wire_codec;
      bench_ipv4_codec;
      bench_raw_channel;
      bench_lossy_configure;
      bench_secure_vpn;
      bench_full_search;
      bench_hierarchical_search;
    ]

let run_benchmarks () =
  print_endline "\n===== micro-benchmarks (bechamel, ns/run) =====";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false () in
  ignore (Lazy.force chain11_shared);
  let raw = Benchmark.all cfg [ instance ] all_tests in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some [ x ] -> x | _ -> Float.nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, est) -> Printf.printf "%-60s %14.0f ns/run\n" name est) rows

(* --- machine-readable data points (BENCH_*.json) ----------------------------------- *)

(* Writes one BENCH file and echoes it to stdout under a banner. *)
let write_bench file ~title json =
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  print_endline (Printf.sprintf "\n===== %s (%s) =====" title file);
  print_string json

(* Escapes a string for a JSON string literal (the values written here
   hold no control characters). *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- planner data points (BENCH_plan.json) --------------------------------------- *)

(* The NM plans with the best-first search; the exhaustive enumerator is
   the reference. Per testbed: the enumerator's candidates and expanded
   search states, the planner's expanded states, completed candidates and
   minor-heap words allocated, and whether both land on the same plan
   (signature and script body). [size_curve] runs the planner alone on
   chains too long to enumerate. Counts only, so the file is
   deterministic. *)
let plan_datapoints () =
  let planned topo goal =
    let w0 = Gc.minor_words () in
    let chosen, search = Path_finder.best topo goal in
    (chosen, search, Gc.minor_words () -. w0)
  in
  let row name topo goal =
    let full = Path_finder.enumerate topo goal in
    let chosen, search, best_words = planned topo goal in
    let body p =
      let s = Script_gen.generate topo goal p in
      (s.Script_gen.prims, s.Script_gen.per_device, s.Script_gen.reporter)
    in
    let same_choice =
      match (Path_finder.choose topo full.Path_finder.completed, chosen) with
      | Some e, Some g -> Path_finder.signature e = Path_finder.signature g && body e = body g
      | None, None -> true
      | Some _, None | None, Some _ -> false
    in
    Printf.sprintf
      "    { \"testbed\": \"%s\", \"enum_candidates\": %d, \"enum_expanded\": %d, \
       \"best_expanded\": %d, \"best_completed\": %d, \"same_choice\": %b, \
       \"best_minor_words\": %.0f }"
      name
      (List.length full.Path_finder.completed)
      full.Path_finder.expanded search.Path_finder.expanded
      (List.length search.Path_finder.completed)
      same_choice best_words
  in
  let d = Scenarios.build_diamond () in
  let rows =
    row "diamond" (Nm.topology d.Scenarios.dnm) d.Scenarios.dgoal
    :: List.map
         (fun n ->
           let c = Scenarios.build_chain n in
           row (Printf.sprintf "chain_n%d" n) (Nm.topology c.Scenarios.cnm) c.Scenarios.cgoal)
         [ 8; 11; 14 ]
  in
  let curve =
    List.map
      (fun n ->
        let c = Scenarios.build_chain n in
        let _, search, words = planned (Nm.topology c.Scenarios.cnm) c.Scenarios.cgoal in
        Printf.sprintf
          "    { \"testbed\": \"chain_n%d\", \"best_expanded\": %d, \"best_completed\": %d, \
           \"best_minor_words\": %.0f }"
          n search.Path_finder.expanded
          (List.length search.Path_finder.completed)
          words)
      [ 32; 64; 128; 160 ]
  in
  let json =
    Printf.sprintf "{\n  \"plans\": [\n%s\n  ],\n  \"size_curve\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" rows) (String.concat ",\n" curve)
  in
  write_bench "BENCH_plan.json" ~title:"planner data points" json

(* --- self-healing data points (BENCH_selfheal.json) ---------------------------- *)

(* One scripted incident on the diamond testbed: the chosen core uplink is
   cut at a known virtual time and the reconciliation loop repairs around
   it. The numbers that matter for the perf trajectory — repair latency in
   virtual time, frames lost while converging, management messages spent
   reconfiguring — are emitted machine-readable. *)
let selfheal_datapoints () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  let chosen =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, path, _) ->
        List.find
          (fun (v : Path_finder.visit) ->
            let dev = v.Path_finder.v_mod.Ids.dev in
            dev = "id-B1" || dev = "id-B2")
          path.Path_finder.visits
        |> fun v -> v.Path_finder.v_mod.Ids.dev
    | Error e -> failwith ("selfheal bench: achieve: " ^ e)
  in
  let seg_name = if chosen = "id-B1" then "A--B1" else "A--B2" in
  let seg = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net seg_name in
  let cut_at = 1_000_000_000L in
  Netsim.Link.flap ~cycles:1 seg ~first_down_ns:cut_at ~down_ns:3_000_000_000L
    ~up_ns:1_000_000_000L;
  let sent_before = Nm.stats_sent nm in
  let mon = Monitor.create nm in
  Monitor.run mon ~ticks:10;
  let repaired_at =
    List.find_map
      (fun (e : Monitor.event) ->
        if contains e.Monitor.ev_what "repaired" then Some e.Monitor.ev_time else None)
      (Monitor.events mon)
  in
  let latency = Option.map (fun t -> Int64.sub t cut_at) repaired_at in
  let json =
    Printf.sprintf
      "{\n\
      \  \"scenario\": \"diamond core-link cut under reconciliation loop\",\n\
      \  \"repair_latency_ns\": %s,\n\
      \  \"frames_lost\": %d,\n\
      \  \"reconfig_messages\": %d,\n\
      \  \"repairs\": %d,\n\
      \  \"resyncs\": %d,\n\
      \  \"escalations\": %d,\n\
      \  \"link_flaps\": %d,\n\
      \  \"reachable_after\": %b\n\
       }\n"
      (match latency with Some l -> Int64.to_string l | None -> "null")
      (Netsim.Link.drop_count seg "cut")
      (Nm.stats_sent nm - sent_before)
      (Monitor.repairs mon) (Monitor.resyncs mon) (Monitor.escalations mon)
      (Netsim.Link.flaps seg)
      (Scenarios.diamond_reachable d)
  in
  write_bench "BENCH_selfheal.json" ~title:"self-healing data points" json

(* --- fault-localization data points (BENCH_diagnose.json) ----------------------- *)

(* Three scripted faults on the VPN testbed, each localized purely from
   scraped showPerf counters (the NM never peeks at simulator state), plus
   a diamond incident where a telemetry-equipped Monitor must pick its
   first repair rung from the diagnosis. Reported per fault: the expected
   and diagnosed root cause, and the detection latency in virtual time
   (fault injection to first correct top-ranked diagnosis). *)
let diagnose_datapoints () =
  let matches expected (v : Diagnose.verdict) =
    match (expected, v) with
    | "cut_link", Diagnose.Cut_link _ -> true
    | "misconfigured_module", Diagnose.Misconfigured_module _ -> true
    | "lossy_segment", Diagnose.Lossy_segment _ -> true
    | "unreachable_agent", Diagnose.Unreachable_agent _ -> true
    | _ -> false
  in
  let scenario ~name ~expected ~pick ~inject =
    let v = Scenarios.build_vpn () in
    let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
    let path = List.find pick paths in
    let _ = Nm.configure_path v.Scenarios.nm v.Scenarios.goal path in
    let tel = Telemetry.create ~scope:v.Scenarios.scope v.Scenarios.nm in
    (* several exchanges per scrape so partial loss shows as a partial
       delta rather than an all-or-nothing one *)
    let pump () =
      for _ = 1 to 4 do
        ignore (Scenarios.vpn_reachable v)
      done
    in
    for _ = 1 to 2 do
      pump ();
      Telemetry.scrape tel
    done;
    let now () =
      Netsim.Event_queue.now (Netsim.Net.eq v.Scenarios.tb.Netsim.Testbeds.vpn_net)
    in
    inject v;
    let fault_at = now () in
    let max_rounds = 8 in
    let rec detect round =
      if round > max_rounds then (None, max_rounds)
      else begin
        pump ();
        Telemetry.scrape tel;
        match Telemetry.diagnose_path tel path with
        | d :: _ when matches expected d.Diagnose.verdict ->
            (Some (Int64.sub (now ()) fault_at), round)
        | _ -> detect (round + 1)
      end
    in
    let latency, rounds = detect 1 in
    let top =
      match Telemetry.diagnose_path tel path with
      | d :: _ -> Fmt.str "%a" Diagnose.pp_verdict d.Diagnose.verdict
      | [] -> "none"
    in
    (name, expected, top, latency, rounds)
  in
  let vpn_seg v =
    Netsim.Net.find_segment_exn v.Scenarios.tb.Netsim.Testbeds.vpn_net "A--B"
  in
  let results =
    [
      scenario ~name:"core link cut" ~expected:"cut_link" ~pick:Scenarios.pure_gre
        ~inject:(fun v -> Netsim.Link.cut (vpn_seg v));
      scenario ~name:"MPLS xconnect erased on transit router" ~expected:"misconfigured_module"
        ~pick:Scenarios.pure_mpls ~inject:(fun v ->
          Hashtbl.iter
            (fun _ (ilm : Netsim.Device.ilm) -> ilm.Netsim.Device.ilm_xc <- None)
            v.Scenarios.tb.Netsim.Testbeds.rb.Netsim.Device.mpls.Netsim.Device.ilm_table);
      scenario ~name:"seeded 50% loss on core segment" ~expected:"lossy_segment"
        ~pick:Scenarios.pure_gre ~inject:(fun v ->
          Netsim.Link.set_seed (vpn_seg v) 7L;
          Netsim.Link.set_loss (vpn_seg v) 0.5);
    ]
  in
  let correct = List.length (List.filter (fun (_, _, _, l, _) -> l <> None) results) in
  let accuracy = float_of_int correct /. float_of_int (List.length results) in
  (* the diamond incident: the telemetry-equipped Monitor must diagnose the
     cut and reroute first, not burn a rung on resync *)
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  let chosen =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, path, _) ->
        List.find
          (fun (v : Path_finder.visit) ->
            let dev = v.Path_finder.v_mod.Ids.dev in
            dev = "id-B1" || dev = "id-B2")
          path.Path_finder.visits
        |> fun v -> v.Path_finder.v_mod.Ids.dev
    | Error e -> failwith ("diagnose bench: achieve: " ^ e)
  in
  let seg_name = if chosen = "id-B1" then "A--B1" else "A--B2" in
  let seg = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net seg_name in
  Netsim.Link.flap ~cycles:1 seg ~first_down_ns:1_000_000_000L ~down_ns:3_000_000_000L
    ~up_ns:1_000_000_000L;
  let tel = Telemetry.create ~scope:d.Scenarios.dscope nm in
  let mon = Monitor.create ~telemetry:tel nm in
  Monitor.run mon ~ticks:10;
  let first_action =
    match
      List.find_opt (fun (e : Monitor.event) -> contains e.Monitor.ev_what "diagnosed")
        (Monitor.events mon)
    with
    | Some e when contains e.Monitor.ev_what "rerouting" -> "reroute"
    | Some _ -> "resync"
    | None -> "none"
  in
  let scenario_json (name, expected, top, latency, rounds) =
    Printf.sprintf
      "    {\n\
      \      \"name\": \"%s\",\n\
      \      \"expected\": \"%s\",\n\
      \      \"diagnosed\": \"%s\",\n\
      \      \"correct\": %b,\n\
      \      \"detection_latency_ns\": %s,\n\
      \      \"scrape_rounds_to_detect\": %d\n\
      \    }"
      name expected top (latency <> None)
      (match latency with Some l -> Int64.to_string l | None -> "null")
      rounds
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"scenarios\": [\n\
       %s\n\
      \  ],\n\
      \  \"localization_accuracy\": %.2f,\n\
      \  \"monitor_first_action\": \"%s\",\n\
      \  \"monitor_repairs\": %d,\n\
      \  \"monitor_resyncs\": %d,\n\
      \  \"monitor_reachable_after\": %b\n\
       }\n"
      (String.concat ",\n" (List.map scenario_json results))
      accuracy first_action (Monitor.repairs mon) (Monitor.resyncs mon)
      (Scenarios.diamond_reachable d)
  in
  write_bench "BENCH_diagnose.json" ~title:"fault-localization data points" json

(* --- chaos data points (BENCH_chaos.json) --------------------------------------- *)

(* A 20-seed quick soak of the chaos engine (every invariant must hold on
   every seed — the headline number is [violations] = 0), plus a shrinker
   demo: with the oscillation bound deliberately weakened to zero, a
   generated schedule "fails", and the shrinker must reduce it to a tiny
   repro whose serialised form still reproduces the violation. *)
let chaos_datapoints () =
  let soak_ticks = 6 in
  let seeds = List.init 20 (fun i -> i + 1) in
  let per_seed =
    List.map
      (fun seed ->
        let sched = Chaos.Schedule.generate ~seed ~ticks:soak_ticks () in
        let r = Chaos.Engine.run sched in
        let fails = List.map (fun v -> v.Chaos.Engine.name) (Chaos.Engine.failures r) in
        (seed, List.length sched.Chaos.Schedule.events, r, fails))
      seeds
  in
  let violations = List.length (List.filter (fun (_, _, _, fails) -> fails <> []) per_seed) in
  (* the shrinker demo: weaken one invariant, shrink the resulting failure *)
  let weak = { Chaos.Engine.default_config with Chaos.Engine.oscillation_bound = Some 0 } in
  let failing s = Chaos.Engine.failures (Chaos.Engine.run ~config:weak s) <> [] in
  (* the demo needs a schedule that provokes at least one reroute: scan
     past the soak seeds for the first one the weakened invariant rejects *)
  let rec find_demo seed =
    let d = Chaos.Schedule.generate ~seed ~ticks:soak_ticks () in
    if failing d || seed >= 60 then (seed, d) else find_demo (seed + 1)
  in
  let demo_seed, demo = find_demo 21 in
  let demo_failed = failing demo in
  let { Chaos.Shrink.minimized; runs } = Chaos.Shrink.minimize ~failing demo in
  let replay_reproduces =
    failing (Chaos.Schedule.of_string (Chaos.Schedule.to_string minimized))
  in
  let seed_json (seed, events, (r : Chaos.Engine.report), fails) =
    Printf.sprintf
      "    { \"seed\": %d, \"events\": %d, \"ok\": %b, \"repairs\": %d, \"nm_crashes\": %d, \
       \"converged\": %b, \"failed_invariants\": [%s] }"
      seed events (fails = []) r.Chaos.Engine.total_repairs r.Chaos.Engine.nm_crashes
      (r.Chaos.Engine.converged_tick <> None)
      (String.concat ", " (List.map (fun n -> "\"" ^ escape n ^ "\"") fails))
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"soak\": {\n\
      \    \"seeds\": %d,\n\
      \    \"ticks\": %d\n\
      \  },\n\
      \  \"violations\": %d,\n\
      \  \"per_seed\": [\n\
       %s\n\
      \  ],\n\
      \  \"weakened\": {\n\
      \    \"invariant\": \"oscillation (bound forced to 0)\",\n\
      \    \"seed\": %d,\n\
      \    \"initial_failed\": %b,\n\
      \    \"initial_events\": %d,\n\
      \    \"minimized_events\": %d,\n\
      \    \"shrink_runs\": %d,\n\
      \    \"replay_reproduces\": %b,\n\
      \    \"minimized_repro\": \"%s\"\n\
      \  }\n\
       }\n"
      (List.length seeds) soak_ticks violations
      (String.concat ",\n" (List.map seed_json per_seed))
      demo_seed demo_failed
      (List.length demo.Chaos.Schedule.events)
      (List.length minimized.Chaos.Schedule.events)
      runs replay_reproduces
      (escape (Chaos.Schedule.to_string minimized))
  in
  write_bench "BENCH_chaos.json" ~title:"chaos soak data points" json

(* --- HA failover data points (BENCH_ha.json) ------------------------------------ *)

(* Two handcrafted incidents against the HA pair, run through the chaos
   engine so every invariant is checked: a primary crash (the standby must
   detect the silence and promote, replaying whatever the primary died
   without seeing confirmed) and an NM<->standby partition (the standby
   promotes on suspicion while the old primary is alive — epoch fencing
   must keep the brains apart). The headline gates: [split_brain_count]
   and [lost_intents] must be 0, and the crash scenario must report a
   finite detection latency in ticks. *)
let ha_datapoints () =
  let scenarios =
    [
      ( "primary crash -> automatic failover",
        {
          Chaos.Schedule.seed = 0;
          ticks = 8;
          tail = 12;
          events = [ { Chaos.Schedule.at = 2; fault = Chaos.Schedule.Nm_failover { ticks = 6 } } ];
        } );
      ( "NM <-> standby partition (split-brain pressure)",
        {
          Chaos.Schedule.seed = 0;
          ticks = 8;
          tail = 12;
          events = [ { Chaos.Schedule.at = 2; fault = Chaos.Schedule.Ha_partition { ticks = 4 } } ];
        } );
    ]
  in
  let results =
    List.map
      (fun (name, sched) ->
        let r = Chaos.Engine.run sched in
        let fails = List.map (fun v -> v.Chaos.Engine.name) (Chaos.Engine.failures r) in
        (name, r, fails))
      scenarios
  in
  let crash_detection =
    match results with (_, r, _) :: _ -> r.Chaos.Engine.ha.Chaos.Engine.detection_ticks | [] -> None
  in
  let total f = List.fold_left (fun acc (_, r, _) -> acc + f r.Chaos.Engine.ha) 0 results in
  let scenario_json (name, (r : Chaos.Engine.report), fails) =
    let h = r.Chaos.Engine.ha in
    Printf.sprintf
      "    {\n\
      \      \"name\": \"%s\",\n\
      \      \"ok\": %b,\n\
      \      \"failovers\": %d,\n\
      \      \"detection_ticks\": %s,\n\
      \      \"replayed\": %d,\n\
      \      \"split_brain_count\": %d,\n\
      \      \"lost_intents\": %d,\n\
      \      \"final_epoch\": %d,\n\
      \      \"converged\": %b\n\
      \    }"
      name (fails = []) h.Chaos.Engine.failovers
      (match h.Chaos.Engine.detection_ticks with Some t -> string_of_int t | None -> "null")
      h.Chaos.Engine.replayed h.Chaos.Engine.split_brain_count h.Chaos.Engine.lost_intents
      h.Chaos.Engine.final_epoch
      (r.Chaos.Engine.converged_tick <> None)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"scenarios\": [\n\
       %s\n\
      \  ],\n\
      \  \"failover_detection_ticks\": %s,\n\
      \  \"requests_replayed\": %d,\n\
      \  \"split_brain_count\": %d,\n\
      \  \"lost_intents\": %d,\n\
      \  \"invariant_violations\": %d\n\
       }\n"
      (String.concat ",\n" (List.map scenario_json results))
      (match crash_detection with Some t -> string_of_int t | None -> "null")
      (total (fun h -> h.Chaos.Engine.replayed))
      (total (fun h -> h.Chaos.Engine.split_brain_count))
      (total (fun h -> h.Chaos.Engine.lost_intents))
      (List.length (List.filter (fun (_, _, fails) -> fails <> []) results))
  in
  write_bench "BENCH_ha.json" ~title:"HA failover data points" json

(* --- overload data points (BENCH_overload.json) --------------------------------- *)

(* Three experiments behind the overload-protection claims:

   1. A 20-seed soak where every schedule is guaranteed a telemetry storm
      (an Overload event is injected when the generator did not draw one).
      Gates: zero P0/P1 frames shed anywhere, zero spurious failovers
      (promotions in schedules with no HA fault — a starved failure
      detector faking a dead primary), every run converged, and a nonzero
      P3 shed count proving the storms actually bit.
   2. Failure detection under load: the handcrafted primary-crash incident
      with and without a saturating storm around it — the detection
      latency in ticks must not degrade.
   3. A widened testbed (8-router chain) under a sustained direct storm,
      measuring shed volume at scale and the telemetry poller's
      shed-feedback backoff (base -> final scrape period). *)
let overload_datapoints () =
  let soak_ticks = 6 in
  let seeds = List.init 20 (fun i -> i + 1) in
  let per_seed =
    List.map
      (fun seed ->
        let sched =
          Chaos.Schedule.with_overload ~intensity:0.6
            (Chaos.Schedule.generate ~seed ~ticks:soak_ticks ())
        in
        let r = Chaos.Engine.run sched in
        let fails = List.map (fun v -> v.Chaos.Engine.name) (Chaos.Engine.failures r) in
        (seed, sched, r, fails))
      seeds
  in
  let violations = List.length (List.filter (fun (_, _, _, fails) -> fails <> []) per_seed) in
  let converged =
    List.length (List.filter (fun (_, _, r, _) -> r.Chaos.Engine.converged_tick <> None) per_seed)
  in
  let spurious_failovers =
    List.fold_left
      (fun acc (_, sched, r, _) ->
        if (not (Chaos.Schedule.has_ha_fault sched)) && r.Chaos.Engine.ha.Chaos.Engine.failovers > 0
        then acc + 1
        else acc)
      0 per_seed
  in
  let sum f = List.fold_left (fun acc (_, _, r, _) -> acc + f r.Chaos.Engine.overload) 0 per_seed in
  (* detection latency with and without the storm *)
  let detect events =
    let r = Chaos.Engine.run { Chaos.Schedule.seed = 0; ticks = 8; tail = 12; events } in
    r.Chaos.Engine.ha.Chaos.Engine.detection_ticks
  in
  let crash = { Chaos.Schedule.at = 2; fault = Chaos.Schedule.Nm_failover { ticks = 6 } } in
  let baseline_detect = detect [ crash ] in
  let storm_detect =
    detect
      [
        { Chaos.Schedule.at = 0; fault = Chaos.Schedule.Overload { intensity = 0.8; ticks = 7 } };
        crash;
      ]
  in
  let delta =
    match (baseline_detect, storm_detect) with Some a, Some b -> Some (b - a) | _ -> None
  in
  (* the widened testbed: sustained storm on an 8-router chain *)
  let n_wide = 8 in
  let c = Scenarios.build_chain n_wide in
  let wide_net = c.Scenarios.ctb.Netsim.Testbeds.chain_net in
  let adm = c.Scenarios.cadmission in
  let tel = Telemetry.create ~scope:c.Scenarios.cscope c.Scenarios.cnm in
  Telemetry.set_shed_probe tel (fun () -> Mgmt.Admission.lost_total adm);
  let base_period = Telemetry.period_ns tel in
  Mgmt.Admission.reset_counters adm;
  let wide_storm = ref 0 in
  for t = 0 to 7 do
    for i = 1 to 800 do
      incr wide_storm;
      Mgmt.Channel.send c.Scenarios.cchan ~cls:3 ~src:Scenarios.nm_station_id
        ~dst:(List.nth c.Scenarios.cscope (i mod List.length c.Scenarios.cscope))
        (Wire.encode (Wire.Show_perf_req { req = 910_000_000 + (t * 1000) + i }))
    done;
    ignore
      (Netsim.Net.run_until wide_net
         ~deadline:
           (Int64.add (Netsim.Event_queue.now (Netsim.Net.eq wide_net)) 250_000_000L));
    Telemetry.maybe_scrape tel
  done;
  let wc = Mgmt.Admission.counters adm in
  let seed_json (seed, _, (r : Chaos.Engine.report), fails) =
    let o = r.Chaos.Engine.overload in
    Printf.sprintf
      "    { \"seed\": %d, \"ok\": %b, \"storm_frames\": %d, \"p0_shed\": %d, \"p1_shed\": %d, \
       \"p3_shed\": %d, \"converged\": %b }"
      seed (fails = []) o.Chaos.Engine.storm_frames o.Chaos.Engine.p0_shed
      o.Chaos.Engine.p1_shed
      (o.Chaos.Engine.p3_shed + o.Chaos.Engine.p3_expired)
      (r.Chaos.Engine.converged_tick <> None)
  in
  let opt_int = function Some t -> string_of_int t | None -> "null" in
  let json =
    Printf.sprintf
      "{\n\
      \  \"soak\": {\n\
      \    \"seeds\": %d,\n\
      \    \"ticks\": %d\n\
      \  },\n\
      \  \"violations\": %d,\n\
      \  \"converged\": %d,\n\
      \  \"spurious_failovers\": %d,\n\
      \  \"storm_frames\": %d,\n\
      \  \"p0_shed\": %d,\n\
      \  \"p1_shed\": %d,\n\
      \  \"p2_shed\": %d,\n\
      \  \"p3_shed\": %d,\n\
      \  \"p3_expired\": %d,\n\
      \  \"per_seed\": [\n\
       %s\n\
      \  ],\n\
      \  \"failover_under_storm\": {\n\
      \    \"baseline_detection_ticks\": %s,\n\
      \    \"storm_detection_ticks\": %s,\n\
      \    \"delta_ticks\": %s\n\
      \  },\n\
      \  \"wide_testbed\": {\n\
      \    \"devices\": %d,\n\
      \    \"storm_frames\": %d,\n\
      \    \"p3_shed\": %d,\n\
      \    \"p3_expired\": %d,\n\
      \    \"p3_queue_high_water\": %d,\n\
      \    \"telemetry_base_period_ns\": %Ld,\n\
      \    \"telemetry_final_period_ns\": %Ld,\n\
      \    \"telemetry_backoffs\": %d\n\
      \  }\n\
       }\n"
      (List.length seeds) soak_ticks violations converged spurious_failovers
      (sum (fun o -> o.Chaos.Engine.storm_frames))
      (sum (fun o -> o.Chaos.Engine.p0_shed))
      (sum (fun o -> o.Chaos.Engine.p1_shed))
      (sum (fun o -> o.Chaos.Engine.p2_shed))
      (sum (fun o -> o.Chaos.Engine.p3_shed))
      (sum (fun o -> o.Chaos.Engine.p3_expired))
      (String.concat ",\n" (List.map seed_json per_seed))
      (opt_int baseline_detect) (opt_int storm_detect) (opt_int delta) n_wide !wide_storm
      (wc.(3).Mgmt.Admission.shed + wc.(3).Mgmt.Admission.expired)
      wc.(3).Mgmt.Admission.expired
      wc.(3).Mgmt.Admission.queue_high_water base_period (Telemetry.period_ns tel)
      (Telemetry.backoffs tel)
  in
  write_bench "BENCH_overload.json" ~title:"overload data points" json

let quick = Array.exists (fun a -> a = "--quick" || a = "quick") Sys.argv

(* --- federation data points (BENCH_federation.json) ----------------------------- *)

(* The acceptance soak for federated multi-NM management: 20 seeded
   two-domain schedules, each with a forced [Peer_nm_crash] and a forced
   [Inter_domain_partition] on top of background channel faults. The
   headline gates: every seed converges, no stitched pipe is ever left
   half-configured, and neither NM writes a single byte of configuration
   outside its own domain. Quick mode shortens the schedules but keeps
   all 20 seeds, since the CI gates require full convergence counts. *)
let federation_datapoints () =
  let soak_ticks = if quick then 6 else 10 in
  let seeds = List.init 20 (fun i -> i + 1) in
  let per_seed =
    List.map
      (fun seed ->
        let sched = Chaos.Fed_engine.generate ~seed ~ticks:soak_ticks () in
        let r = Chaos.Fed_engine.run sched in
        let fails = List.map (fun v -> v.Chaos.Fed_engine.name) (Chaos.Fed_engine.failures r) in
        (seed, List.length sched.Chaos.Schedule.events, r, fails))
      seeds
  in
  let sum f = List.fold_left (fun acc (_, _, r, _) -> acc + f r) 0 per_seed in
  let converged =
    List.length
      (List.filter (fun (_, _, r, _) -> r.Chaos.Fed_engine.converged_tick <> None) per_seed)
  in
  let violations = List.length (List.filter (fun (_, _, _, fails) -> fails <> []) per_seed) in
  let seed_json (seed, events, (r : Chaos.Fed_engine.report), fails) =
    Printf.sprintf
      "    { \"seed\": %d, \"events\": %d, \"ok\": %b, \"converged\": %b, \"replans\": %d, \
       \"backouts\": %d, \"relays\": %d, \"half_configured\": %d, \"foreign_writes\": %d, \
       \"failed_invariants\": [%s] }"
      seed events (fails = [])
      (r.Chaos.Fed_engine.converged_tick <> None)
      r.Chaos.Fed_engine.replans r.Chaos.Fed_engine.backouts r.Chaos.Fed_engine.relays
      r.Chaos.Fed_engine.half_configured r.Chaos.Fed_engine.foreign_writes
      (String.concat ", " (List.map (fun n -> "\"" ^ escape n ^ "\"") fails))
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"soak\": {\n\
      \    \"seeds\": %d,\n\
      \    \"ticks\": %d,\n\
      \    \"forced_events\": [\"peer-nm-crash\", \"inter-domain-partition\"]\n\
      \  },\n\
      \  \"converged\": %d,\n\
      \  \"violations\": %d,\n\
      \  \"half_configured_total\": %d,\n\
      \  \"foreign_writes_total\": %d,\n\
      \  \"backouts_total\": %d,\n\
      \  \"relays_total\": %d,\n\
      \  \"per_seed\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      (List.length seeds) soak_ticks converged violations
      (sum (fun r -> r.Chaos.Fed_engine.half_configured))
      (sum (fun r -> r.Chaos.Fed_engine.foreign_writes))
      (sum (fun r -> r.Chaos.Fed_engine.backouts))
      (sum (fun r -> r.Chaos.Fed_engine.relays))
      (String.concat ",\n" (List.map seed_json per_seed))
  in
  write_bench "BENCH_federation.json" ~title:"federation soak data points" json

(* --- trace data points (BENCH_trace.json) --------------------------------------- *)

(* The observability acceptance soak. Every federated chaos seed must
   yield ONE connected span tree for its cross-domain goal — a single
   root, zero orphan spans anywhere in either NM's collector — and the
   per-phase latency samples (plan, commit, abort; plus the diamond
   engine's HA failover-detection latency) are merged across seeds into
   percentile summaries. CI gates on [orphan_spans_total] == 0,
   [disconnected_runs] == 0 and the presence of the phase-latency
   percentile fields. *)
let trace_datapoints () =
  let fed_ticks = if quick then 6 else 10 in
  let fed_seeds = List.init 20 (fun i -> i + 1) in
  let fed_runs =
    List.map
      (fun seed -> (seed, Chaos.Fed_engine.run (Chaos.Fed_engine.generate ~seed ~ticks:fed_ticks ())))
      fed_seeds
  in
  let dia_ticks = if quick then 6 else 10 in
  let dia_seeds = List.init 10 (fun i -> i + 1) in
  let dia_runs =
    List.map
      (fun seed -> (seed, Chaos.Engine.run (Chaos.Schedule.generate ~seed ~ticks:dia_ticks ())))
      dia_seeds
  in
  let orphan_spans_total =
    List.fold_left (fun acc (_, r) -> acc + r.Chaos.Fed_engine.orphan_spans) 0 fed_runs
    + List.fold_left (fun acc (_, r) -> acc + r.Chaos.Engine.orphan_spans) 0 dia_runs
  in
  let disconnected_runs =
    List.length (List.filter (fun (_, r) -> not r.Chaos.Fed_engine.trace_connected) fed_runs)
  in
  let total_spans = List.fold_left (fun acc (_, r) -> acc + r.Chaos.Fed_engine.total_spans) 0 fed_runs in
  (* merge raw samples across runs, then take percentiles once *)
  let merged = Hashtbl.create 8 in
  let add samples =
    List.iter
      (fun (k, vs) ->
        let prev = match Hashtbl.find_opt merged k with Some l -> l | None -> [] in
        Hashtbl.replace merged k (prev @ vs))
      samples
  in
  List.iter (fun (_, r) -> add r.Chaos.Fed_engine.phase_samples) fed_runs;
  List.iter (fun (_, r) -> add r.Chaos.Engine.phase_samples) dia_runs;
  let phase_json key =
    let vs = match Hashtbl.find_opt merged key with Some l -> l | None -> [] in
    match vs with
    | [] -> Printf.sprintf "    \"%s\": { \"count\": 0 }" key
    | vs ->
        let arr = Array.of_list (List.sort compare vs) in
        let n = Array.length arr in
        let pct p = arr.(min (n - 1) (int_of_float (float_of_int n *. p))) in
        Printf.sprintf
          "    \"%s\": { \"count\": %d, \"min\": %d, \"max\": %d, \"mean\": %.2f, \"p50\": %d, \
           \"p90\": %d, \"p99\": %d }"
          key n arr.(0)
          arr.(n - 1)
          (float_of_int (List.fold_left ( + ) 0 vs) /. float_of_int n)
          (pct 0.50) (pct 0.90) (pct 0.99)
  in
  let seed_json (seed, (r : Chaos.Fed_engine.report)) =
    Printf.sprintf
      "    { \"seed\": %d, \"spans\": %d, \"orphan_spans\": %d, \"connected\": %b, \
       \"converged\": %b }"
      seed r.Chaos.Fed_engine.total_spans r.Chaos.Fed_engine.orphan_spans
      r.Chaos.Fed_engine.trace_connected
      (r.Chaos.Fed_engine.converged_tick <> None)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"soak\": {\n\
      \    \"federated_seeds\": %d,\n\
      \    \"federated_ticks\": %d,\n\
      \    \"diamond_seeds\": %d,\n\
      \    \"diamond_ticks\": %d\n\
      \  },\n\
      \  \"orphan_spans\": %d,\n\
      \  \"disconnected_runs\": %d,\n\
      \  \"total_spans\": %d,\n\
      \  \"phase_latency_ticks\": {\n\
       %s\n\
      \  },\n\
      \  \"per_seed\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      (List.length fed_seeds) fed_ticks (List.length dia_seeds) dia_ticks orphan_spans_total
      disconnected_runs total_spans
      (String.concat ",\n"
         (List.map phase_json
            [ "fed.plan_ticks"; "fed.commit_ticks"; "fed.abort_ticks"; "ha.failover_detect_ticks" ]))
      (String.concat ",\n" (List.map seed_json fed_runs))
  in
  write_bench "BENCH_trace.json" ~title:"trace soak data points" json

(* --- per-goal cost over an NM's history (BENCH_history.json) ----------------------- *)

(* One VPN NM serves 1000 goals (achieve, ping, teardown). A long-lived NM
   must pay the same for its last goal as for an early one, and teardown
   must leave each device as it found it. Counts only, never wall clock:
   mean minor words allocated per goal over goals 51-100 and 951-1000, the
   policy routing tables on each edge router after the first and the last
   teardown, the intents the NM still lists, and its journal: the entries
   it holds and the entries ever appended. CI gates on late <= 1.01 x
   early, on unchanged table counts and on a bounded journal. *)
let history_datapoints () =
  let goals = 1000 in
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  let edges = [ v.Scenarios.tb.Netsim.Testbeds.ra; v.Scenarios.tb.Netsim.Testbeds.rc ] in
  let policy_tables () =
    List.map (fun d -> (d.Netsim.Device.dev_id, List.length d.Netsim.Device.tables - 1)) edges
  in
  let words = Array.make goals 0. in
  let after_first = ref [] in
  for k = 0 to goals - 1 do
    let w0 = Gc.minor_words () in
    (match Nm.achieve nm v.Scenarios.goal with
    | Ok (_, _, script) ->
        if not (Scenarios.vpn_reachable v) then failwith "history bench: ping failed";
        Nm.teardown nm script
    | Error e -> failwith ("history bench: achieve: " ^ e));
    words.(k) <- Gc.minor_words () -. w0;
    if k = 0 then after_first := policy_tables ()
  done;
  let mean first last =
    let sum = ref 0. in
    for k = first - 1 to last - 1 do
      sum := !sum +. words.(k)
    done;
    !sum /. float_of_int (last - first + 1)
  in
  let tables_json l =
    String.concat ", " (List.map (fun (dev, n) -> Printf.sprintf "\"%s\": %d" dev n) l)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"goals\": %d,\n\
      \  \"minor_words_per_goal_51_100\": %.1f,\n\
      \  \"minor_words_per_goal_951_1000\": %.1f,\n\
      \  \"policy_tables_after_first\": { %s },\n\
      \  \"policy_tables_after_last\": { %s },\n\
      \  \"intents\": %d,\n\
      \  \"journal_entries\": %d,\n\
      \  \"journal_length\": %d\n\
       }\n"
      goals (mean 51 100) (mean 951 1000) (tables_json !after_first)
      (tables_json (policy_tables ()))
      (List.length (Nm.intents nm))
      (List.length (Intent.entries (Nm.journal nm)))
      (Intent.length (Nm.journal nm))
  in
  write_bench "BENCH_history.json" ~title:"per-goal cost over history" json

let () =
  if quick then begin
    selfheal_datapoints ();
    diagnose_datapoints ();
    chaos_datapoints ();
    ha_datapoints ();
    overload_datapoints ();
    federation_datapoints ();
    trace_datapoints ();
    plan_datapoints ();
    history_datapoints ()
  end
  else begin
    reproductions ();
    run_benchmarks ();
    selfheal_datapoints ();
    diagnose_datapoints ();
    chaos_datapoints ();
    ha_datapoints ();
    overload_datapoints ();
    federation_datapoints ();
    trace_datapoints ();
    plan_datapoints ();
    history_datapoints ()
  end
