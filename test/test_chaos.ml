(* Chaos engine tests: schedule generation determinism, the sexp repro
   codec, the shared driver (Harness) over a stub deployment, invariant
   checking on quiet and faulty schedules for both deployments, replay
   validation, the shrinker, and the satellite fixes
   (Faults.reset_counters, the monitor's bounded event ring). *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- schedule generation ------------------------------------------------ *)

let test_schedule_determinism () =
  let a = Chaos.Schedule.generate ~seed:7 ~ticks:10 () in
  let b = Chaos.Schedule.generate ~seed:7 ~ticks:10 () in
  check tstr "same seed, byte-identical schedule" (Chaos.Schedule.to_string a)
    (Chaos.Schedule.to_string b);
  let c = Chaos.Schedule.generate ~seed:8 ~ticks:10 () in
  check tbool "different seed, different schedule" true
    (Chaos.Schedule.to_string a <> Chaos.Schedule.to_string c)

let test_schedule_codec_roundtrip () =
  let sched =
    {
      Chaos.Schedule.seed = 3;
      ticks = 9;
      tail = 6;
      events =
        [
          { Chaos.Schedule.at = 0; fault = Chaos.Schedule.Link_cut { seg = "A--B1"; ticks = 2 } };
          { at = 1; fault = Chaos.Schedule.Link_loss { seg = "B1--C"; p = 0.25; ticks = 1 } };
          { at = 1; fault = Chaos.Schedule.Link_corrupt { seg = "B2--C"; p = 0.125; ticks = 3 } };
          {
            at = 2;
            fault =
              Chaos.Schedule.Link_flap { seg = "A--B2"; cycles = 2; down_ms = 200; up_ms = 100 };
          };
          { at = 3; fault = Chaos.Schedule.Mgmt_drop { p = 0.5; ticks = 2 } };
          { at = 3; fault = Chaos.Schedule.Mgmt_duplicate { p = 0.25; ticks = 1 } };
          { at = 4; fault = Chaos.Schedule.Mgmt_jitter { ms = 40; ticks = 2 } };
          { at = 5; fault = Chaos.Schedule.Mgmt_partition { dev = "id-B1"; ticks = 1 } };
          { at = 6; fault = Chaos.Schedule.Agent_crash { dev = "id-B2"; ticks = 2 } };
          { at = 7; fault = Chaos.Schedule.Nm_crash };
        ];
    }
  in
  let round = Chaos.Schedule.of_string (Chaos.Schedule.to_string sched) in
  check tbool "roundtrip preserves the schedule" true (round = sched);
  check tstr "and re-encodes identically" (Chaos.Schedule.to_string sched)
    (Chaos.Schedule.to_string round)

(* --- the driver ---------------------------------------------------------- *)

(* A stub deployment over a bare fault layer that logs what the driver
   does. [Agent_crash] crashes a station and registers its restart through
   [until]; [Mgmt_partition] crashes one with no revert, so only the
   channel clear lifts it. *)
let stub_deployment ~healthy_after =
  let eq = Netsim.Event_queue.create () in
  let _, faults = Mgmt.Faults.wrap ~eq (Mgmt.Channel.Oob.create eq) in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun l -> log := l :: !log) fmt in
  let ticks = ref 0 in
  let apply (f : Chaos.Schedule.fault) : Chaos.Harness.action =
    match f with
    | Chaos.Schedule.Agent_crash { dev; ticks } ->
        fun ~until tick ->
          say "apply %s@%d" dev tick;
          Mgmt.Faults.crash faults dev;
          until ticks (fun () ->
              say "undo %s (stuck crashed=%b)" dev (Mgmt.Faults.is_crashed faults "stuck");
              Mgmt.Faults.restart faults dev)
    | Chaos.Schedule.Mgmt_partition { dev; _ } -> fun ~until:_ _ -> Mgmt.Faults.crash faults dev
    | Chaos.Schedule.Link_cut { seg; _ } -> invalid_arg ("no segment " ^ seg)
    | _ -> Chaos.Harness.skip
  in
  let d =
    {
      Chaos.Harness.faults;
      apply;
      tick =
        (fun t ->
          incr ticks;
          say "tick %d" t);
      clear = (fun () -> say "clear (stuck crashed=%b)" (Mgmt.Faults.is_crashed faults "stuck"));
      healthy = (fun () -> !ticks >= healthy_after);
    }
  in
  (d, (fun () -> List.rev !log), ticks)

let crash at dev ticks = { Chaos.Schedule.at; fault = Chaos.Schedule.Agent_crash { dev; ticks } }

let test_driver_revert_order () =
  let d, log, _ = stub_deployment ~healthy_after:6 in
  let sched =
    {
      Chaos.Schedule.seed = 0;
      ticks = 4;
      tail = 3;
      events =
        [
          crash 0 "a" 2;
          crash 2 "b" 1;
          crash 3 "c" 5;
          { at = 3; fault = Chaos.Schedule.Mgmt_partition { dev = "stuck"; ticks = 1 } };
          crash 3 "e" 9;
        ];
    }
  in
  let converged = Chaos.Harness.drive sched d in
  check (Alcotest.list tstr) "reverts at tick t+k before its events, then forced, then clears"
    [
      "apply a@0"; "tick 0"; "tick 1";
      "undo a (stuck crashed=false)"; "apply b@2"; "tick 2";
      "undo b (stuck crashed=false)"; "apply c@3"; "apply e@3"; "tick 3";
      (* forced quiescence: pending reverts newest first, the channel
         clear, then the deployment's own clear *)
      "undo e (stuck crashed=true)"; "undo c (stuck crashed=true)";
      "clear (stuck crashed=false)";
      "tick 4"; "tick 5";
    ]
    (log ());
  check (Alcotest.option tint) "the first healthy tail tick" (Some 2) converged

let test_driver_tail_exhausted () =
  let d, log, ticks = stub_deployment ~healthy_after:max_int in
  let sched = { Chaos.Schedule.seed = 0; ticks = 2; tail = 3; events = [] } in
  check (Alcotest.option tint) "never healthy" None (Chaos.Harness.drive sched d);
  check tint "exactly [tail] tail ticks after the chaos phase" 5 !ticks;
  check (Alcotest.list tstr) "tail ticks continue the numbering"
    [ "tick 0"; "tick 1"; "clear (stuck crashed=false)"; "tick 2"; "tick 3"; "tick 4" ]
    (log ())

let test_driver_resolves_before_first_tick () =
  let d, log, ticks = stub_deployment ~healthy_after:0 in
  let sched =
    {
      Chaos.Schedule.seed = 0;
      ticks = 6;
      tail = 2;
      events =
        [ crash 0 "a" 1; { at = 4; fault = Chaos.Schedule.Link_cut { seg = "A--Z9"; ticks = 1 } } ];
    }
  in
  (match Chaos.Harness.drive sched d with
  | _ -> Alcotest.fail "an unresolvable event must be rejected"
  | exception Invalid_argument msg ->
      check tstr "the rejection names the segment" "no segment A--Z9" msg);
  check tint "no tick ran" 0 !ticks;
  check (Alcotest.list tstr) "no fault was applied" [] (log ())

(* --- the engine --------------------------------------------------------- *)

let test_quiet_schedule_all_invariants_hold () =
  let sched = { Chaos.Schedule.seed = 1; ticks = 3; tail = 8; events = [] } in
  let r = Chaos.Engine.run sched in
  (match Chaos.Engine.failures r with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "quiet run violated %s: %s" f.Chaos.Engine.name f.Chaos.Engine.detail);
  check tbool "converged immediately" true (r.Chaos.Engine.converged_tick <> None);
  check tint "no repairs were needed" 0 r.Chaos.Engine.total_repairs

let test_run_determinism () =
  let sched = Chaos.Schedule.generate ~seed:11 ~ticks:8 () in
  let a = Chaos.Engine.run sched in
  let b = Chaos.Engine.run sched in
  check tstr "fault counters identical across fresh runs" a.Chaos.Engine.mgmt_counters
    b.Chaos.Engine.mgmt_counters;
  check tbool "monitor event traces identical" true
    (a.Chaos.Engine.trace = b.Chaos.Engine.trace);
  check tbool "verdicts identical" true (a.Chaos.Engine.verdicts = b.Chaos.Engine.verdicts)

let test_composite_schedule_converges () =
  let sched = Chaos.Schedule.generate ~seed:5 ~ticks:8 () in
  let r = Chaos.Engine.run sched in
  match Chaos.Engine.failures r with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "seed 5 violated %s: %s" f.Chaos.Engine.name f.Chaos.Engine.detail

(* --- the federation deployment ------------------------------------------- *)

let test_fed_quiet_schedule () =
  let r = Chaos.Fed_engine.run { Chaos.Schedule.seed = 1; ticks = 6; tail = 24; events = [] } in
  check tint "five invariants checked" 5 (List.length r.Chaos.Fed_engine.verdicts);
  (match Chaos.Fed_engine.failures r with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "quiet run violated %s: %s" f.Chaos.Harness.name f.Chaos.Harness.detail);
  check tbool "converged" true (r.Chaos.Fed_engine.converged_tick <> None)

let test_fed_run_determinism () =
  let sched = Chaos.Fed_engine.generate ~seed:3 ~ticks:6 () in
  let a = Chaos.Fed_engine.run sched in
  let b = Chaos.Fed_engine.run sched in
  check tbool "verdicts identical" true (a.Chaos.Fed_engine.verdicts = b.Chaos.Fed_engine.verdicts);
  check tstr "goal traces identical" a.Chaos.Fed_engine.goal_trace b.Chaos.Fed_engine.goal_trace;
  check tstr "metrics identical" a.Chaos.Fed_engine.metrics_json b.Chaos.Fed_engine.metrics_json

let diamond_only =
  [
    { Chaos.Schedule.at = 1; fault = Chaos.Schedule.Link_cut { seg = "A--B1"; ticks = 2 } };
    { at = 2; fault = Chaos.Schedule.Agent_crash { dev = "id-B1"; ticks = 2 } };
    { at = 3; fault = Chaos.Schedule.Mgmt_partition { dev = "id-A"; ticks = 1 } };
  ]

let with_events (s : Chaos.Schedule.t) extra =
  {
    s with
    Chaos.Schedule.events =
      List.stable_sort
        (fun (a : Chaos.Schedule.event) b -> compare a.Chaos.Schedule.at b.Chaos.Schedule.at)
        (s.Chaos.Schedule.events @ extra);
  }

let test_fed_skips_diamond_events () =
  let sched = Chaos.Fed_engine.generate ~seed:3 ~ticks:6 () in
  check tbool "the report is unchanged" true
    (Chaos.Fed_engine.run sched = Chaos.Fed_engine.run (with_events sched diamond_only))

(* --- replay validation ---------------------------------------------------- *)

(* A repro file naming what the deployment lacks is rejected with
   Invalid_argument naming it, before the run starts. *)
let rejects ~name run text =
  match run (Chaos.Schedule.of_string text) with
  | _ -> Alcotest.failf "accepted %s" text
  | exception Invalid_argument msg ->
      let n = String.length name in
      let rec has i = i + n <= String.length msg && (String.sub msg i n = name || has (i + 1)) in
      if not (has 0) then Alcotest.failf "rejection %S does not name %s" msg name

let repro event = Printf.sprintf "(chaos (seed 1) (ticks 4) (tail 6) (events (1 %s)))" event

let test_replay_rejects_unknown_names () =
  let diamond s = Chaos.Engine.run s in
  rejects ~name:"A--Z9" diamond (repro "(cut A--Z9 1)");
  rejects ~name:"A--Z9" diamond (repro "(loss A--Z9 0.5 1)");
  rejects ~name:"A--Z9" diamond (repro "(flap A--Z9 1 100 100)");
  rejects ~name:"id-Q" diamond (repro "(agent-crash id-Q 1)");
  rejects ~name:"id-Q" diamond (repro "(mgmt-partition id-Q 1)");
  rejects ~name:"north" Chaos.Fed_engine.run (repro "(peer-nm-crash north 1)")

let test_replay_mixed_schedule () =
  let mixed =
    Chaos.Schedule.of_string
      "(chaos (seed 2) (ticks 6) (tail 24) (events (1 (cut A--B1 2)) (1 (peer-nm-crash west 2)) \
       (2 (agent-crash id-B2 1)) (2 (inter-domain-partition 2)) (3 (mgmt-drop 0.2 1))))"
  in
  let names = List.map (fun (v : Chaos.Harness.verdict) -> v.Chaos.Harness.name) in
  check (Alcotest.list tstr) "the diamond holds every invariant" []
    (names (Chaos.Engine.failures (Chaos.Engine.run mixed)));
  check (Alcotest.list tstr) "the federation holds every invariant" []
    (names (Chaos.Fed_engine.failures (Chaos.Fed_engine.run mixed)))

(* --- the shrinker ------------------------------------------------------- *)

(* With the oscillation bound weakened to zero, any schedule that forces a
   single successful reroute is a "violation"; the shrinker must reduce a
   noisy schedule to (essentially) the one cut that matters. *)
let test_shrinker_minimizes_planted_fault () =
  let weak =
    { Chaos.Engine.default_config with Chaos.Engine.oscillation_bound = Some 0 }
  in
  let noisy =
    {
      Chaos.Schedule.seed = 21;
      ticks = 6;
      tail = 8;
      events =
        [
          { Chaos.Schedule.at = 1; fault = Chaos.Schedule.Link_cut { seg = "A--B1"; ticks = 6 } };
          { at = 3; fault = Chaos.Schedule.Mgmt_jitter { ms = 20; ticks = 1 } };
          { at = 3; fault = Chaos.Schedule.Mgmt_duplicate { p = 0.2; ticks = 1 } };
          { at = 4; fault = Chaos.Schedule.Mgmt_drop { p = 0.1; ticks = 1 } };
          { at = 5; fault = Chaos.Schedule.Link_loss { seg = "B1--C"; p = 0.2; ticks = 1 } };
        ];
    }
  in
  let failing s = Chaos.Engine.failures (Chaos.Engine.run ~config:weak s) <> [] in
  check tbool "the noisy schedule violates the weakened invariant" true (failing noisy);
  let { Chaos.Shrink.minimized; runs } = Chaos.Shrink.minimize ~failing noisy in
  check tbool "shrinking made progress" true
    (List.length minimized.Chaos.Schedule.events < List.length noisy.Chaos.Schedule.events);
  check tbool "minimized repro has at most 2 events" true
    (List.length minimized.Chaos.Schedule.events <= 2);
  check tbool "the oracle ran more than once" true (runs > 1);
  (* the minimized repro replays deterministically from its serialised form *)
  let replayed = Chaos.Schedule.of_string (Chaos.Schedule.to_string minimized) in
  check tbool "replay still reproduces the violation" true (failing replayed);
  let r1 = Chaos.Engine.run ~config:weak replayed in
  let r2 = Chaos.Engine.run ~config:weak replayed in
  check tbool "replay is deterministic" true
    (r1.Chaos.Engine.verdicts = r2.Chaos.Engine.verdicts
    && r1.Chaos.Engine.trace = r2.Chaos.Engine.trace)

(* --- satellite: Faults.reset_counters ----------------------------------- *)

let test_faults_reset_counters () =
  let v = Scenarios.build_vpn () in
  Mgmt.Faults.set_drop v.Scenarios.faults 0.5;
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ | Error _ -> ());
  let c = Mgmt.Faults.counters v.Scenarios.faults in
  check tbool "the lossy channel dropped something" true (c.Mgmt.Faults.dropped > 0);
  Mgmt.Faults.clear v.Scenarios.faults;
  check tbool "clear preserves counters" true (c.Mgmt.Faults.dropped > 0);
  Mgmt.Faults.reset_counters v.Scenarios.faults;
  check tint "reset_counters zeroes dropped" 0 c.Mgmt.Faults.dropped;
  check tint "reset_counters zeroes duplicated" 0 c.Mgmt.Faults.duplicated;
  check tint "reset_counters zeroes delayed" 0 c.Mgmt.Faults.delayed;
  check tint "reset_counters zeroes crash drops" 0 c.Mgmt.Faults.crash_drops;
  check tint "reset_counters zeroes partition drops" 0 c.Mgmt.Faults.partition_drops

(* --- satellite: bounded monitor event log -------------------------------- *)

let test_monitor_event_ring_bounded () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  (match Nm.achieve nm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve: %s" e);
  let mon = Monitor.create nm in
  Monitor.set_event_limit mon 3;
  check tint "limit is applied" 3 (Monitor.event_limit mon);
  (* cut both cores: every tick logs failed repair attempts, then an
     escalation — plenty of events for a 3-slot ring *)
  let seg n = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net n in
  Netsim.Link.cut (seg "A--B1");
  Netsim.Link.cut (seg "A--B2");
  Monitor.run mon ~ticks:8;
  check tbool "ring stayed within its cap" true (List.length (Monitor.events mon) <= 3);
  check tbool "evicted events were counted" true (Monitor.dropped_events mon > 0)

let () =
  Alcotest.run "chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_schedule_determinism;
          Alcotest.test_case "sexp codec roundtrip" `Quick test_schedule_codec_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "quiet schedule holds all invariants" `Quick
            test_quiet_schedule_all_invariants_hold;
          Alcotest.test_case "deterministic runs" `Quick test_run_determinism;
          Alcotest.test_case "composite schedule converges" `Quick
            test_composite_schedule_converges;
        ] );
      ( "driver",
        [
          Alcotest.test_case "reverts, forced quiescence and clears in order" `Quick
            test_driver_revert_order;
          Alcotest.test_case "tail gives up after exactly [tail] ticks" `Quick
            test_driver_tail_exhausted;
          Alcotest.test_case "events resolve before the first tick" `Quick
            test_driver_resolves_before_first_tick;
        ] );
      ( "federation",
        [
          Alcotest.test_case "quiet schedule holds all invariants" `Quick test_fed_quiet_schedule;
          Alcotest.test_case "deterministic runs" `Quick test_fed_run_determinism;
          Alcotest.test_case "diamond-only events are skipped" `Quick
            test_fed_skips_diamond_events;
        ] );
      ( "replay",
        [
          Alcotest.test_case "unknown names are rejected" `Quick
            test_replay_rejects_unknown_names;
          Alcotest.test_case "a mixed-deployment schedule replays" `Quick
            test_replay_mixed_schedule;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes a planted fault" `Quick
            test_shrinker_minimizes_planted_fault;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "Faults.reset_counters" `Quick test_faults_reset_counters;
          Alcotest.test_case "bounded monitor event ring" `Quick
            test_monitor_event_ring_bounded;
        ] );
    ]
