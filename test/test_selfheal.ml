(* Scenario tests for the self-healing data plane: the intent write-ahead
   journal (NM crash/restart semantics), the monitor's reconciliation loop
   (probe -> drift-check -> resync/re-achieve/escalate ladder) and the
   data-plane fault injection that drives them (scheduled link flaps,
   behind-the-NM state deletion, hard cuts). *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let path_devices (p : Path_finder.path) =
  List.sort_uniq compare
    (List.map (fun (v : Path_finder.visit) -> v.Path_finder.v_mod.Ids.dev) p.Path_finder.visits)

(* The structural part of a show_actual report, as the monitor sees it:
   per-module state keys, minus transient pending[..] negotiation state. *)
let structural_keys nm dev =
  match Nm.show_actual nm dev with
  | None -> Alcotest.failf "no showActual answer from %s" dev
  | Some state -> Monitor.structural_keys state

(* --- journal codec and replay -------------------------------------------------- *)

let test_journal_roundtrip () =
  let goal = Scenarios.vpn_goal () in
  let specs =
    [
      Intent.Connect goal;
      Intent.Address { target = Ids.v "IP" "r2" "id-R2"; addr = "204.9.100.1"; plen = 30 };
      Intent.Rate { owner = Ids.v "IP" "g" "id-A"; pipe_id = "P1"; rate_kbps = 512 };
    ]
  in
  List.iter
    (fun spec ->
      let back = Intent.spec_of_sexp (Intent.spec_to_sexp spec) in
      check tbool "spec survives the sexp codec" true (Intent.spec_equal spec back))
    specs;
  List.iteri
    (fun i e ->
      check tbool
        (Printf.sprintf "entry %d survives the sexp codec" i)
        true
        (Intent.entry_of_sexp (Intent.entry_to_sexp e) = e))
    [ Intent.Begin (1, Intent.Connect goal); Intent.Commit 1; Intent.Retire 1 ]

let test_journal_replay () =
  let j = Intent.journal () in
  let goal = Scenarios.vpn_goal () in
  Intent.append j (Intent.Begin (1, Intent.Connect goal));
  Intent.append j (Intent.Commit 1);
  Intent.append j
    (Intent.Begin (2, Intent.Rate { owner = Ids.v "IP" "g" "id-A"; pipe_id = "P0"; rate_kbps = 64 }));
  Intent.append j (Intent.Retire 2);
  Intent.append j (Intent.Begin (3, Intent.Address { target = Ids.v "IP" "i" "id-B"; addr = "1.2.3.4"; plen = 24 }));
  (* the durable representation round-trips *)
  let j2 = Intent.journal_of_string (Intent.journal_to_string j) in
  check tbool "journal survives serialisation" true (Intent.entries j2 = Intent.entries j);
  (* replay: Commit promotes, Retire drops, the rest stay pending *)
  (match Intent.replay j2 with
  | [ a; b ] ->
      check tint "first live intent" 1 a.Intent.id;
      check tbool "committed replays as active" true (a.Intent.status = Intent.Active);
      check tint "second live intent" 3 b.Intent.id;
      check tbool "uncommitted replays as pending" true (b.Intent.status = Intent.Pending)
  | l -> Alcotest.failf "expected 2 live intents after replay, got %d" (List.length l));
  check tint "ids continue after the highest journalled" 4 (Intent.next_id j2);
  check tint "empty journal starts at 1" 1 (Intent.next_id (Intent.journal ()))

(* --- the acceptance scenario: self-heal around a flapping core link ------------ *)

let test_diamond_selfheal_on_flap () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  let chosen_core path =
    List.find (fun dev -> dev = "id-B1" || dev = "id-B2") (path_devices path)
  in
  let chosen =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, path, _) -> chosen_core path
    | Error e -> Alcotest.failf "diamond achieve: %s" e
  in
  check tbool "initially reachable" true (Scenarios.diamond_reachable d);
  (* the chosen core's uplink starts flapping: down at 1.2s for 0.8s, up
     for 1.2s, twice. Scheduled on the event queue -- from here on the
     monitor runs with zero manual intervention. *)
  let seg_name = if chosen = "id-B1" then "A--B1" else "A--B2" in
  let seg = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net seg_name in
  Netsim.Link.flap ~cycles:2 seg ~first_down_ns:1_200_000_000L ~down_ns:800_000_000L
    ~up_ns:1_200_000_000L;
  let mon = Monitor.create nm in
  Monitor.run mon ~ticks:12 (* ~6 virtual seconds: covers both flap cycles *);
  check tbool "reachable after self-heal" true (Scenarios.diamond_reachable d);
  check tint "exactly one repair: restoring the link caused no oscillation" 1
    (Monitor.repairs mon);
  check tint "no escalation" 0 (Monitor.escalations mon);
  check tint "the link flapped twice" 2 (Netsim.Link.flaps seg);
  check tbool "cut drops were counted per cause" true (Netsim.Link.drop_count seg "cut" > 0);
  (* repair happened within a bounded delay of the first cut *)
  (match List.find_opt (fun e -> contains_sub e.Monitor.ev_what "repaired") (Monitor.events mon) with
  | None -> Alcotest.fail "no repair event logged"
  | Some e ->
      check tbool "repaired within one virtual second of the cut" true
        (e.Monitor.ev_time <= 2_200_000_000L));
  (* the intent ended up healthy, on a path off the flapping core *)
  match Nm.intents nm with
  | [ intent ] -> (
      check tbool "intent healthy" true (intent.Intent.status = Intent.Active);
      match intent.Intent.script with
      | Some s ->
          check tbool "rerouted off the flapping core" false
            (List.mem chosen (path_devices s.Script_gen.path))
      | None -> Alcotest.fail "intent lost its script")
  | l -> Alcotest.failf "expected 1 intent, got %d" (List.length l)

(* --- NM crash mid-achieve: restart from the write-ahead journal ---------------- *)

let test_restart_from_journal_mid_achieve () =
  (* the reference: what an uninterrupted NM converges to *)
  let clean = Scenarios.build_vpn () in
  (match Nm.achieve clean.Scenarios.nm clean.Scenarios.goal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean achieve: %s" e);
  let clean_keys =
    List.map (fun dev -> (dev, structural_keys clean.Scenarios.nm dev)) clean.Scenarios.scope
  in
  (* the faulty run: C drops off the management channel mid-achieve, so the
     journal holds Begin but no Commit when the NM "crashes" *)
  let v = Scenarios.build_vpn () in
  Mgmt.Faults.partition v.Scenarios.faults "id-C";
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ -> Alcotest.fail "achieve should fail with C partitioned"
  | Error e -> check tbool "error names the dead device" true (contains_sub e "id-C"));
  let stored = Intent.journal_to_string (Nm.journal v.Scenarios.nm) in
  check tbool "journal holds the write-ahead entry" true (contains_sub stored "begin");
  check tbool "nothing was committed" false (contains_sub stored "commit");
  (* the partition heals and a fresh NM restarts from stable storage *)
  Mgmt.Faults.heal v.Scenarios.faults "id-C";
  let nm2 =
    Nm.create ~transport:v.Scenarios.transport ~journal:(Intent.journal_of_string stored)
      ~chan:v.Scenarios.chan ~net:v.Scenarios.tb.Netsim.Testbeds.vpn_net
      ~my_id:Scenarios.nm_station_id ()
  in
  (match Nm.intents nm2 with
  | [ i ] -> check tbool "replayed as pending" true (i.Intent.status = Intent.Pending)
  | l -> Alcotest.failf "expected 1 replayed intent, got %d" (List.length l));
  Scenarios.vpn_adopt v nm2;
  Nm.recover nm2;
  check tbool "VPN works after restart" true (Scenarios.vpn_reachable v);
  (* the recovered configuration is the clean one: nothing duplicated,
     nothing missing *)
  List.iter
    (fun (dev, keys) ->
      check
        Alcotest.(list string)
        ("same structural state at " ^ dev)
        keys (structural_keys nm2 dev))
    clean_keys;
  match Nm.intents nm2 with
  | [ i ] -> check tbool "intent active after recovery" true (i.Intent.status = Intent.Active)
  | l -> Alcotest.failf "recovery duplicated intents: %d" (List.length l)

(* --- NM restart after a committed achieve: recovery is idempotent -------------- *)

let test_restart_from_journal_committed () =
  let v = Scenarios.build_vpn () in
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve: %s" e);
  check tbool "reachable before restart" true (Scenarios.vpn_reachable v);
  let before = List.map (fun dev -> (dev, structural_keys v.Scenarios.nm dev)) v.Scenarios.scope in
  let stored = Intent.journal_to_string (Nm.journal v.Scenarios.nm) in
  check tbool "achieve was committed" true (contains_sub stored "commit");
  let nm2 =
    Nm.create ~transport:v.Scenarios.transport ~journal:(Intent.journal_of_string stored)
      ~chan:v.Scenarios.chan ~net:v.Scenarios.tb.Netsim.Testbeds.vpn_net
      ~my_id:Scenarios.nm_station_id ()
  in
  (match Nm.intents nm2 with
  | [ i ] -> check tbool "replayed as active" true (i.Intent.status = Intent.Active)
  | l -> Alcotest.failf "expected 1 replayed intent, got %d" (List.length l));
  Scenarios.vpn_adopt v nm2;
  Nm.recover nm2 (* re-executes the script over live device state *);
  check tbool "reachable after restart" true (Scenarios.vpn_reachable v);
  check tint "no errors from re-execution" 0 (List.length (Nm.errors nm2));
  (* idempotent agents: re-applying the script duplicated nothing *)
  List.iter
    (fun (dev, keys) ->
      check
        Alcotest.(list string)
        ("state unchanged at " ^ dev)
        keys (structural_keys nm2 dev))
    before

(* --- drift: state deleted behind the NM's back is resynced --------------------- *)

let test_monitor_resyncs_drift () =
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  let script =
    match Nm.achieve nm v.Scenarios.goal with
    | Ok (_, _, s) -> s
    | Error e -> Alcotest.failf "achieve: %s" e
  in
  let mon = Monitor.create nm in
  Monitor.run mon ~ticks:2 (* healthy ticks: baseline the drift check *);
  check tint "no resync while healthy" 0 (Monitor.resyncs mon);
  (* an operator deletes a pipe of the transit device directly on the box *)
  let owner, pid =
    match
      List.find_map
        (function
          | Primitive.Create_pipe spec when spec.Primitive.top.Ids.dev = "id-B" ->
              Some (spec.Primitive.top, spec.Primitive.pipe_id)
          | _ -> None)
        script.Script_gen.prims
    with
    | Some x -> x
    | None -> Alcotest.fail "no pipe on the transit device in the script"
  in
  let agent_b = List.assoc "B" v.Scenarios.agents in
  (match Agent.find_module agent_b owner with
  | Some m -> m.Module_impl.delete_pipe pid
  | None -> Alcotest.failf "module %s not found on B" (Ids.qualified owner));
  Monitor.run mon ~ticks:4;
  check tbool "drift was detected and resynced" true (Monitor.resyncs mon >= 1);
  check tbool "VPN reachable again" true (Scenarios.vpn_reachable v);
  (match Nm.intents nm with
  | [ i ] -> check tbool "intent healthy after resync" true (i.Intent.status = Intent.Active)
  | _ -> Alcotest.fail "unexpected intent set");
  (* convergence, not oscillation: further ticks stay quiet *)
  let r = Monitor.resyncs mon in
  Monitor.run mon ~ticks:3;
  check tint "no further resyncs once converged" r (Monitor.resyncs mon)

(* --- escalation: unrepairable faults are bounded and surfaced ------------------ *)

let test_monitor_escalates_then_revives () =
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  (match Nm.achieve nm v.Scenarios.goal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve: %s" e);
  (* the only physical core link dies: every candidate path is dead, but
     the management channel (out-of-band) still works *)
  let seg = Netsim.Net.find_segment_exn v.Scenarios.tb.Netsim.Testbeds.vpn_net "A--B" in
  Netsim.Link.cut seg;
  let cfg =
    {
      Monitor.interval_ns = 200_000_000L;
      probe_slack_ns = 50_000_000L;
      max_repair_attempts = 2;
    }
  in
  let mon = Monitor.create ~config:cfg nm in
  Monitor.run mon ~ticks:8;
  check tint "escalated exactly once" 1 (Monitor.escalations mon);
  check tint "repairs were bounded" 0 (Monitor.repairs mon);
  (match Nm.intents nm with
  | [ i ] -> check tbool "intent failed" true (i.Intent.status = Intent.Failed)
  | _ -> Alcotest.fail "unexpected intent set");
  check tbool "failure in the NM error report" true
    (List.exists (fun (who, _) -> who = "intent-1") (Nm.errors nm));
  (* the wire is plugged back in: the next healthy probe revives the intent
     without operator involvement *)
  Netsim.Link.restore seg;
  Monitor.run mon ~ticks:3;
  (match Nm.intents nm with
  | [ i ] -> check tbool "intent revived after restore" true (i.Intent.status = Intent.Active)
  | _ -> Alcotest.fail "unexpected intent set");
  check tbool "VPN reachable again" true (Scenarios.vpn_reachable v)

(* --- teardown retires the journalled intent ------------------------------------ *)

let test_teardown_retires_intent () =
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  let script =
    match Nm.achieve nm v.Scenarios.goal with
    | Ok (_, _, s) -> s
    | Error e -> Alcotest.failf "achieve: %s" e
  in
  Nm.teardown nm script;
  (match Nm.intents nm with
  | [ i ] -> check tbool "intent retired" true (i.Intent.status = Intent.Retired)
  | _ -> Alcotest.fail "unexpected intent set");
  check tbool "retire journalled" true
    (contains_sub (Intent.journal_to_string (Nm.journal nm)) "retire");
  (* a restarted NM does not resurrect the torn-down goal *)
  let nm2 =
    Nm.create ~journal:(Intent.journal_of_string (Intent.journal_to_string (Nm.journal nm)))
      ~chan:v.Scenarios.chan ~net:v.Scenarios.tb.Netsim.Testbeds.vpn_net
      ~my_id:Scenarios.nm_station_id ()
  in
  check tint "retired intents are not replayed" 0 (List.length (Nm.intents nm2))

(* --- the journal stays bounded over a long-lived NM ----------------------------- *)

(* Live ids, specs and statuses: what an NM restarting from the journal
   would rebuild. *)
let live_set j =
  List.map (fun (i : Intent.t) -> (i.Intent.id, i.Intent.spec, i.Intent.status)) (Intent.replay j)

let test_journal_compacts () =
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  (* one long-lived intent (Begin, Bind, Commit), then 600 goals that each
     journal Begin, Bind, Commit and Retire *)
  let keep = Scenarios.vpn_goal ~tradeoffs:[ "in-order-delivery" ] () in
  (match Nm.achieve nm keep with Ok _ -> () | Error e -> Alcotest.failf "achieve: %s" e);
  for _ = 1 to 600 do
    match Nm.achieve nm v.Scenarios.goal with
    | Ok (_, _, script) -> Nm.teardown nm script
    | Error e -> Alcotest.failf "achieve: %s" e
  done;
  let j = Nm.journal nm in
  check tint "length counts every entry appended" (3 + (4 * 600)) (Intent.length j);
  let held = List.length (Intent.entries j) in
  check tbool
    (Printf.sprintf "held entries bounded (%d)" held)
    true
    (held <= (2 * Intent.log_capacity * 4) + 3);
  check tint "ids continue after the highest journalled" 602 (Intent.next_id j);
  check tbool "retired intents were compacted" true (Intent.compacted j > 0);
  (* what is held: the long-lived intent and the newest retired ones *)
  let entry_id = function
    | Intent.Begin (id, _) | Intent.Commit id | Intent.Retire id | Intent.Bind (id, _) -> id
  in
  (match List.sort_uniq compare (List.map entry_id (Intent.entries j)) with
  | 1 :: (oldest :: _ as retired) ->
      check
        Alcotest.(list int)
        "the newest retired intents are held"
        (List.init (601 - oldest + 1) (fun k -> oldest + k))
        retired
  | _ -> Alcotest.fail "the long-lived intent is not held");
  check tint "compaction surfaced with the NM's rings" (Intent.compacted j)
    (List.assoc "journal_compacted" (Nm.ring_dropped nm));
  (* the durable form replays the same live set ... *)
  let stored = Intent.journal_to_string j in
  check tbool "the string round-trip replays the same live set" true
    (live_set (Intent.journal_of_string stored) = live_set j);
  (match live_set j with
  | [ (1, Intent.Connect g, Intent.Active) ] -> check tbool "the long-lived goal" true (g = keep)
  | l -> Alcotest.failf "expected the long-lived intent alone, got %d" (List.length l));
  (* ... and an NM restarting from it reconfigures the long-lived intent *)
  let v2 = Scenarios.build_vpn ~journal:(Intent.journal_of_string stored) () in
  Nm.recover v2.Scenarios.nm;
  (match Nm.intents v2.Scenarios.nm with
  | [ i ] ->
      check tint "recovered the long-lived intent" 1 i.Intent.id;
      check tbool "reconfigured" true (i.Intent.status = Intent.Active && i.Intent.script <> None)
  | l -> Alcotest.failf "expected 1 recovered intent, got %d" (List.length l));
  check tbool "VPN works after recovery" true (Scenarios.vpn_reachable v2)

let () =
  Alcotest.run "selfheal"
    [
      ( "journal",
        [
          Alcotest.test_case "sexp roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "replay semantics" `Quick test_journal_replay;
          Alcotest.test_case "teardown retires" `Quick test_teardown_retires_intent;
          Alcotest.test_case "bounded over 600 goals" `Quick test_journal_compacts;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "flapping core self-heals" `Quick test_diamond_selfheal_on_flap;
          Alcotest.test_case "drift resync" `Quick test_monitor_resyncs_drift;
          Alcotest.test_case "escalate then revive" `Quick test_monitor_escalates_then_revives;
        ] );
      ( "restart",
        [
          Alcotest.test_case "crash mid-achieve" `Quick test_restart_from_journal_mid_achieve;
          Alcotest.test_case "restart after commit" `Quick test_restart_from_journal_committed;
        ] );
    ]
