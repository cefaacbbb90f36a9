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
  (* an operator deletes a pipe on the transit device and one on the far
     edge, directly on the boxes *)
  List.iter
    (fun (dev, agent) ->
      let owner, pid =
        match
          List.find_map
            (function
              | Primitive.Create_pipe spec when spec.Primitive.top.Ids.dev = dev ->
                  Some (spec.Primitive.top, spec.Primitive.pipe_id)
              | _ -> None)
            script.Script_gen.prims
        with
        | Some x -> x
        | None -> Alcotest.failf "no pipe on %s in the script" dev
      in
      match Agent.find_module (List.assoc agent v.Scenarios.agents) owner with
      | Some m -> m.Module_impl.delete_pipe pid
      | None -> Alcotest.failf "module %s not found on %s" (Ids.qualified owner) agent)
    [ ("id-B", "B"); ("id-C", "C") ];
  Monitor.run mon ~ticks:4;
  check tbool "drift was detected and resynced" true (Monitor.resyncs mon >= 1);
  (match
     List.filter (fun e -> contains_sub e.Monitor.ev_what "drift") (Monitor.events mon)
   with
  | first :: _ as drifts ->
      check Alcotest.string "the resync names both devices, in baseline order"
        "drift on id-B, id-C: resynced" first.Monitor.ev_what;
      check tbool "the untouched edge is never named" false
        (List.exists (fun e -> contains_sub e.Monitor.ev_what "id-A") drifts)
  | [] -> Alcotest.fail "no drift was logged");
  check tbool "VPN reachable again" true (Scenarios.vpn_reachable v);
  (match Nm.intents nm with
  | [ i ] -> check tbool "intent healthy after resync" true (i.Intent.status = Intent.Active)
  | _ -> Alcotest.fail "unexpected intent set");
  (* convergence, not oscillation: further ticks stay quiet *)
  let r = Monitor.resyncs mon in
  Monitor.run mon ~ticks:3;
  check tint "no further resyncs once converged" r (Monitor.resyncs mon)

(* --- drift reads are conditional on the last checked state's tag --------------- *)

let rec unwrap = function Wire.Fenced { msg; _ } | Wire.Traced { msg; _ } -> unwrap msg | m -> m

(* Taps every agent of the diamond: each showActual request it receives is
   logged with the agent's reply, read back from the Reliable link towards
   the NM before the NM has acked it. *)
let tap_reads (d : Scenarios.diamond) =
  let log = ref [] in
  let reply_to dev req =
    List.find_map
      (fun (src, dst, _, frames) ->
        if src <> dev || dst <> Scenarios.nm_station_id then None
        else
          List.find_map
            (fun (f : Mgmt.Reliable.frame_view) ->
              match unwrap (Wire.decode f.Mgmt.Reliable.payload) with
              | (Wire.Show_actual_resp { req = r; _ } | Wire.Show_actual_unchanged { req = r }) as m
                when r = req ->
                  Some m
              | _ -> None
              | exception Sexp.Parse_error _ -> None)
            frames)
      (Mgmt.Reliable.links d.Scenarios.dtransport)
  in
  List.iter
    (fun (dev, agent) ->
      Mgmt.Channel.subscribe d.Scenarios.dchan ~device_id:dev (fun ~src payload ->
          Agent.handle agent ~src payload;
          match unwrap (Wire.decode payload) with
          | (Wire.Show_actual_req { req } | Wire.Show_actual_unless { req; _ }) as m ->
              log := (dev, m, reply_to dev req) :: !log
          | _ -> ()
          | exception Sexp.Parse_error _ -> ()))
    d.Scenarios.dagents;
  log

(* The diamond's goal under a Monitor, with every agent tapped, after the
   first healthy tick, which baselines the drift check. *)
let monitored_diamond ~telemetry =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  let script =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, _, s) -> s
    | Error e -> Alcotest.failf "diamond achieve: %s" e
  in
  let telemetry = if telemetry then Some (Telemetry.create ~scope:d.Scenarios.dscope nm) else None in
  let mon = Monitor.create ?telemetry nm in
  let log = tap_reads d in
  Monitor.tick mon;
  let intent = match Nm.intents nm with [ i ] -> i | _ -> Alcotest.fail "unexpected intent set" in
  let devices = List.map fst intent.Intent.expected in
  check tbool "the baseline read every scripted device in full" true
    (devices <> []
    && List.length !log = List.length devices
    && List.for_all
         (fun (_, m, reply) ->
           match (m, reply) with
           | Wire.Show_actual_req _, Some (Wire.Show_actual_resp _) -> true
           | _ -> false)
         !log);
  (d, script, mon, intent, devices, log)

(* 20 fault-free ticks with a ping before each: the pings move state
   values but no device's keys, and every read the ticks send is tagged
   and answered unchanged. Returns the reads. *)
let fault_free_reads (d : Scenarios.diamond) mon devices log =
  let rendered dev =
    let agent = List.assoc dev d.Scenarios.dagents in
    List.map (fun m -> (m.Module_impl.mref, m.Module_impl.actual ())) (Agent.modules agent)
  in
  let before = List.map rendered devices in
  log := [];
  for _ = 1 to 20 do
    check tbool "ping" true (Scenarios.diamond_reachable d);
    Monitor.tick mon
  done;
  let after = List.map rendered devices in
  check tbool "the pings moved state values" true (before <> after);
  check tbool "but no device's keys" true
    (List.map Wire.state_tag before = List.map Wire.state_tag after);
  List.iter
    (fun (dev, m, reply) ->
      match (m, reply) with
      | Wire.Show_actual_unless _, Some (Wire.Show_actual_unchanged _) -> ()
      | _ ->
          Alcotest.failf "%s: %a answered by %a" dev Wire.pp m
            Fmt.(option ~none:(any "nothing") Wire.pp)
            reply)
    !log;
  !log

let test_monitor_tagged_drift_reads () =
  let d, script, mon, intent, devices, log = monitored_diamond ~telemetry:true in
  (* each tick's scrape carries every device's tag, all equal to the
     baselines: the drift check reads nothing *)
  check tint "no read while every scraped tag is its baseline's" 0
    (List.length (fault_free_reads d mon devices log));
  (* delete a pipe on id-B1 through its module, behind the NM's back *)
  let owner, pid =
    match
      List.find_map
        (function
          | Primitive.Create_pipe spec when spec.Primitive.bottom.Ids.dev = "id-B1" ->
              Some (spec.Primitive.bottom, spec.Primitive.pipe_id)
          | _ -> None)
        script.Script_gen.prims
    with
    | Some x -> x
    | None -> Alcotest.fail "the path does not cross id-B1"
  in
  (match Agent.find_module (List.assoc "id-B1" d.Scenarios.dagents) owner with
  | Some m -> m.Module_impl.delete_pipe pid
  | None -> Alcotest.failf "module %s not found" (Ids.qualified owner));
  (* a drifted state never becomes the device's tag: until the intent is
     re-baselined, every check finds the same drift *)
  let drifted = Monitor.drift mon intent in
  check (Alcotest.list Alcotest.string) "id-B1 drifted" [ "id-B1" ] (List.map fst drifted);
  check tbool "and drifts again on the next check" true (Monitor.drift mon intent = drifted);
  log := [];
  Monitor.tick mon;
  check tbool "id-B1's tagged read was answered in full" true
    (List.exists
       (fun (dev, m, reply) ->
         match (m, reply) with
         | Wire.Show_actual_unless _, Some (Wire.Show_actual_resp _) -> dev = "id-B1"
         | _ -> false)
       !log);
  check tint "one resync" 1 (Monitor.resyncs mon);
  check tbool "the drift was logged" true
    (List.exists (fun e -> e.Monitor.ev_what = "drift on id-B1: resynced") (Monitor.events mon));
  log := [];
  Monitor.tick mon;
  check tint "after the resync, no read" 0 (List.length !log);
  check tbool "each answered unchanged" true
    (List.for_all
       (fun (_, m, reply) ->
         match (m, reply) with
         | Wire.Show_actual_unless _, Some (Wire.Show_actual_unchanged _) -> true
         | _ -> false)
       !log);
  check tint "no repair" 0 (Monitor.repairs mon + Monitor.escalations mon)

(* Without telemetry no tick learns a tag, so the drift check reads every
   scripted device each tick, conditional on its baseline tag. *)
let test_monitor_tagged_drift_reads_untelemetered () =
  let d, _, mon, _, devices, log = monitored_diamond ~telemetry:false in
  let reads = fault_free_reads d mon devices log in
  check tint "one read per scripted device per tick" (20 * List.length devices) (List.length reads);
  check tint "no resync or repair" 0
    (Monitor.resyncs mon + Monitor.repairs mon + Monitor.escalations mon)

(* A scraped tag counts only until the NM next writes the device. An
   address intent older than the goal, marked degraded before every tick,
   is reconciled first in each: its Set_address to id-A goes out after the
   tick's scrape and before the goal's drift check, which must then read
   id-A, and only id-A. *)
let test_monitor_reads_written_device () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  Nm.assign_address nm ~target:(Ids.v "IP" "g" "id-A") ~addr:"192.168.0.2" ~plen:30;
  let address =
    match Nm.intents nm with [ i ] -> i | _ -> Alcotest.fail "unexpected intent set"
  in
  (match Nm.achieve nm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "diamond achieve: %s" e);
  let mon = Monitor.create ~telemetry:(Telemetry.create ~scope:d.Scenarios.dscope nm) nm in
  let log = tap_reads d in
  Monitor.tick mon (* baselines the goal's drift check *);
  log := [];
  for _ = 1 to 5 do
    let writes = Nm.writes nm "id-A" in
    address.Intent.status <- Intent.Degraded;
    Monitor.tick mon;
    check tbool "the address intent wrote id-A" true (Nm.writes nm "id-A" > writes)
  done;
  check (Alcotest.list Alcotest.string) "one read of id-A per tick, of nothing else"
    [ "id-A"; "id-A"; "id-A"; "id-A"; "id-A" ]
    (List.map (fun (dev, _, _) -> dev) !log);
  check tbool "each tagged and answered unchanged" true
    (List.for_all
       (fun (_, m, reply) ->
         match (m, reply) with
         | Wire.Show_actual_unless _, Some (Wire.Show_actual_unchanged _) -> true
         | _ -> false)
       !log);
  check tint "no resync or repair" 0
    (Monitor.resyncs mon + Monitor.repairs mon + Monitor.escalations mon)

(* A scraped tag counts only in the tick that scraped it. With a scrape
   period of two ticks, every other tick has no tag of its own and reads
   every scripted device; the ticks that scrape read none. *)
let test_monitor_tag_lives_one_tick () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  (match Nm.achieve nm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "diamond achieve: %s" e);
  let tel = Telemetry.create ~period_ns:1_000_000_000L ~scope:d.Scenarios.dscope nm in
  let mon = Monitor.create ~telemetry:tel nm in
  let log = tap_reads d in
  Monitor.tick mon (* baselines the drift check *);
  let devices =
    match Nm.intents nm with
    | [ i ] -> List.length i.Intent.expected
    | _ -> Alcotest.fail "unexpected intent set"
  in
  let quiet = ref 0 in
  for _ = 1 to 10 do
    log := [];
    let rounds = Telemetry.rounds tel in
    Monitor.tick mon;
    let scraped = Telemetry.rounds tel > rounds in
    if not scraped then incr quiet;
    check tint
      (if scraped then "a tick that scraped reads nothing" else "a tick without a scrape reads all")
      (if scraped then 0 else devices)
      (List.length !log)
  done;
  check tbool "both kinds of tick ran" true (!quiet > 0 && !quiet < 10)

(* --- scale: a long chain under the Monitor with telemetry ---------------------- *)

(* Each tick's reads are one round of showPerf and at most one of
   showActual, so their virtual time does not grow with the chain: 10
   fault-free ticks over 240 routers stay inside every tick's horizon. *)
let test_monitor_long_chain () =
  let n = 240 in
  let c = Scenarios.build_chain n in
  let nm = c.Scenarios.cnm in
  (match Nm.achieve nm c.Scenarios.cgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chain achieve: %s" e);
  let tel = Telemetry.create ~scope:c.Scenarios.cscope nm in
  let mon = Monitor.create ~telemetry:tel nm in
  Monitor.run mon ~ticks:10;
  check tint "no repair" 0 (Monitor.repairs mon);
  check tint "no resync" 0 (Monitor.resyncs mon);
  check tint "no escalation" 0 (Monitor.escalations mon);
  check (Alcotest.list Alcotest.string) "no silent device" []
    (List.filter (Diagnose.is_silent (Telemetry.store tel)) c.Scenarios.cscope);
  match Nm.intents nm with
  | [ i ] ->
      check tint "the drift baseline covers every scripted device" n
        (List.length i.Intent.expected)
  | _ -> Alcotest.fail "unexpected intent set"

(* The end-to-end probe asks the far edge for its diagnostic address only
   when the near edge remembers none or the remembered one does not
   answer. On the telemetry-attached diamond the first tick relays that
   exchange (2 conveys); every later fault-free tick relays none and costs
   10 NM messages: the scrape's 4 showPerf reads and the probe's
   Self_test request and answer. A cut core fails the probe with 6 in
   1.014 ms of virtual time: the ping's 1 ms echo window, then the
   exchange, whose answer is the same address, so nothing is pinged twice.
   A restored core passes with 2 in 1.006 ms: the window and the
   request's round trips, and no retransmit timer after them. *)
let test_monitor_probe_remembers_address () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  let path =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, _, s) -> s.Script_gen.path
    | Error e -> Alcotest.failf "diamond achieve: %s" e
  in
  let mon = Monitor.create ~telemetry:(Telemetry.create ~scope:d.Scenarios.dscope nm) nm in
  let relayed () = List.length (Nm.conveys nm) + List.assoc "conveys" (Nm.ring_dropped nm) in
  let messages () = Nm.stats_sent nm + Nm.stats_received nm in
  let eq = Netsim.Net.eq d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  (* what [f] returns, with the conveys and NM messages it cost *)
  let cost f =
    let c = relayed () and m = messages () in
    let r = f () in
    (r, relayed () - c, messages () - m)
  in
  (* a probe's verdict, its cost and its virtual time *)
  let probe () =
    let t = Netsim.Event_queue.now eq in
    let (ok, detail), conveys, msgs = cost (fun () -> Nm.probe_end_to_end nm path) in
    (ok, detail, (conveys, msgs), Int64.sub (Netsim.Event_queue.now eq) t)
  in
  let costs = Alcotest.(pair int int) in
  let (), conveys, _ = cost (fun () -> Monitor.tick mon) in
  check tint "the first tick relays the probe's exchange" 2 conveys;
  for i = 2 to 20 do
    let (), conveys, msgs = cost (fun () -> Monitor.tick mon) in
    check costs (Printf.sprintf "tick %d: conveys and NM messages" i) (0, 10) (conveys, msgs)
  done;
  check tint "no event" 0 (List.length (Monitor.events mon));
  let core = if List.mem "id-B1" (path_devices path) then "A--B1" else "A--B2" in
  let seg = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net core in
  Netsim.Link.cut seg;
  let ok, detail, c, ns = probe () in
  check tbool ("a cut core fails the probe: " ^ detail) false ok;
  check tbool "no reply from the far edge" true (contains_sub detail "no reply from peer");
  check costs "asked again, 6 NM messages" (2, 6) c;
  check Alcotest.int64 "one echo window and the exchange" 1_014_000L ns;
  Netsim.Link.restore seg;
  let ok, _, c, ns = probe () in
  check tbool "restored" true ok;
  check costs "the same address remembered" (0, 2) c;
  check Alcotest.int64 "without the exchange's time" 1_006_000L ns

(* A data-plane event due inside a tick's horizon does not end the tick's
   calls. At the earlier tree, seed 6 of the flap soak (tick 134) had a
   core link's restore scheduled 40 us before the horizon: the scrape ran
   every event up to it, the probe went out with 40 us left and read "no
   response from device", and the Monitor rerouted a working path. Here
   the same restore, of the core the goal does not cross, stays queued
   while the tick's scrape and probe end at their round trips, and fires
   at its own time in the next tick. *)
let test_monitor_restore_inside_horizon () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm and net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  let eq = Netsim.Net.eq net in
  let path =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, _, s) -> s.Script_gen.path
    | Error e -> Alcotest.failf "diamond achieve: %s" e
  in
  let mon = Monitor.create ~telemetry:(Telemetry.create ~scope:d.Scenarios.dscope nm) nm in
  Monitor.tick mon;
  let off = if List.mem "id-B1" (path_devices path) then "B2--C" else "B1--C" in
  let seg = Netsim.Net.find_segment_exn net off in
  Netsim.Link.cut seg;
  let cfg = Monitor.default_config and now () = Netsim.Event_queue.now eq in
  let start = Int64.add (now ()) cfg.Monitor.interval_ns in
  let horizon = Int64.add start cfg.Monitor.probe_slack_ns in
  let delay = Int64.sub (Int64.sub horizon 40_000L) (now ()) in
  Netsim.Link.schedule_restore seg ~delay_ns:delay;
  let restored = ref None in
  Netsim.Event_queue.schedule eq ~delay_ns:delay (fun () -> restored := Some (now ()));
  Monitor.tick mon;
  check Alcotest.int64 "the scrape and the probe took their round trips and one echo window"
    1_008_000L (Int64.sub (now ()) start);
  check tbool "the restore is still queued" true (!restored = None);
  Monitor.tick mon;
  check (Alcotest.option Alcotest.int64) "it fired at its own time"
    (Some (Int64.sub horizon 40_000L)) !restored;
  check tint "no event" 0 (List.length (Monitor.events mon));
  check tint "no repair" 0 (Monitor.repairs mon)

(* A repair re-reads the rerouted intent's baseline once: one showActual
   round over the new script's 3 devices after the confirming probe. The
   reroute's bind cleared the baseline, so marking the intent healthy
   reads it; at the earlier tree a second round read it again. *)
let test_monitor_repair_reads_baseline_once () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm and net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  let path =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, _, s) -> s.Script_gen.path
    | Error e -> Alcotest.failf "diamond achieve: %s" e
  in
  let mon = Monitor.create ~telemetry:(Telemetry.create ~scope:d.Scenarios.dscope nm) nm in
  Monitor.tick mon;
  (* every agent logs the reads and self-tests it is asked, in arrival order *)
  let log = ref [] in
  List.iter
    (fun (dev, agent) ->
      Mgmt.Channel.subscribe d.Scenarios.dchan ~device_id:dev (fun ~src payload ->
          Agent.handle agent ~src payload;
          match unwrap (Wire.decode payload) with
          | Wire.Show_actual_req _ | Wire.Show_actual_unless _ -> log := (dev, "read") :: !log
          | Wire.Self_test_req _ -> log := (dev, "self-test") :: !log
          | _ -> ()
          | exception Sexp.Parse_error _ -> ()))
    d.Scenarios.dagents;
  let core = if List.mem "id-B1" (path_devices path) then "A--B1" else "A--B2" in
  Netsim.Link.cut (Netsim.Net.find_segment_exn net core);
  Monitor.tick mon;
  check tint "repaired" 1 (Monitor.repairs mon);
  let rec after_last_probe acc = function
    | [] -> acc
    | (_, "self-test") :: rest -> after_last_probe [] rest
    | x :: rest -> after_last_probe (x :: acc) rest
  in
  let reads = after_last_probe [] (List.rev !log) in
  check tint "one showActual round after the confirming probe" 3 (List.length reads);
  check tint "over the new script's devices" 3
    (List.length (List.sort_uniq compare (List.map fst reads)));
  check tint "and none before it" 3 (List.length (List.filter (fun (_, k) -> k = "read") !log))

(* --- address and rate intents ---------------------------------------------------- *)

(* A realised address or rate intent has nothing to probe: fault-free ticks
   send it nothing, journal nothing and log nothing. *)
let test_monitor_leaves_settings_alone () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  let g = Ids.v "IP" "g" "id-A" in
  Nm.assign_address nm ~target:g ~addr:"192.168.0.2" ~plen:30;
  Nm.enforce_rate nm ~owner:g ~pipe_id:"P0" ~rate_kbps:512;
  let mon = Monitor.create nm in
  let journal = Intent.length (Nm.journal nm) and writes = Nm.writes nm "id-A" in
  Monitor.run mon ~ticks:10;
  check tint "no journal entry" journal (Intent.length (Nm.journal nm));
  check tint "no write to id-A" writes (Nm.writes nm "id-A");
  check tint "no event" 0 (List.length (Monitor.events mon));
  check tbool "both intents active" true
    (List.for_all (fun (i : Intent.t) -> i.Intent.status = Intent.Active) (Nm.intents nm))

(* A device that comes back, saying Hello after the transport gave up on
   it, gets its live address and rate intents again, as it gets its script
   slices: here it lost the address while it was down. *)
let test_hello_resends_settings () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm and b1 = d.Scenarios.dtb.Netsim.Testbeds.dia_b1 in
  let target = Ids.v "IP" "i1" "id-B1" and addr = Packet.Ipv4_addr.of_string "10.0.9.1" in
  Nm.assign_address nm ~target ~addr:"10.0.9.1" ~plen:24;
  Nm.enforce_rate nm ~owner:target ~pipe_id:"P0" ~rate_kbps:512;
  check tbool "address applied" true (Netsim.Device.is_local_addr b1 addr);
  Netsim.Device.crash b1;
  Mgmt.Faults.crash d.Scenarios.dfaults "id-B1";
  ignore (Nm.self_test nm target);
  check tbool "B1 unreachable" false (Topology.is_reachable (Nm.topology nm) "id-B1");
  List.iter
    (fun (i : Netsim.Device.iface) ->
      i.Netsim.Device.if_addrs <-
        List.filter (fun (a, _) -> not (Packet.Ipv4_addr.equal a addr)) i.Netsim.Device.if_addrs)
    b1.Netsim.Device.ifaces;
  let writes = Nm.writes nm "id-B1" in
  Netsim.Device.restart b1;
  Mgmt.Faults.restart d.Scenarios.dfaults "id-B1";
  Agent.announce (List.assoc "id-B1" d.Scenarios.dagents) d.Scenarios.dtb.Netsim.Testbeds.dia_net;
  Nm.run nm;
  check tbool "B1 reachable again" true (Topology.is_reachable (Nm.topology nm) "id-B1");
  check tint "the address and the rate re-sent" (writes + 2) (Nm.writes nm "id-B1");
  check tbool "address applied again" true (Netsim.Device.is_local_addr b1 addr);
  check tbool "no errors" true (Nm.errors nm = [])

(* --- a seeded flap soak --------------------------------------------------------- *)

(* 400 ticks of Chaos.Flap_soak, seed 3: 41 cuts of the core link under the
   goal, each repaired onto the other core. The repaired signatures are
   the ones a Monitor that walked the failed path with self-tests before
   each reroute chose, cut for cut, and no reroute misses its confirming
   probe. (Other seeds still log a few such misses: under loss a tick's
   reads and reroute can use up its 100 ms horizon, ROADMAP item 2(c).) *)
let test_flap_soak () =
  let r = Chaos.Flap_soak.run ~seed:3 ~ticks:400 in
  let b1 = "a, g, o, b1, c1, p1, d1, e1, q, k, f" and b2 = "a, g, o, b2, c2, p2, d2, e2, q, k, f" in
  check tint "cuts" 40 r.Chaos.Flap_soak.cuts;
  check
    Alcotest.(list string)
    "each cut repaired onto the other core"
    (List.init 40 (fun i -> if i mod 2 = 0 then b2 else b1))
    (List.map snd r.Chaos.Flap_soak.repaired);
  check tint "repairs" 40 r.Chaos.Flap_soak.repairs;
  check tint "no attempt that did not restore connectivity" 0 r.Chaos.Flap_soak.failed_attempts

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
          Alcotest.test_case "tagged drift reads" `Quick test_monitor_tagged_drift_reads;
          Alcotest.test_case "tagged drift reads without telemetry" `Quick
            test_monitor_tagged_drift_reads_untelemetered;
          Alcotest.test_case "a write after the scrape is read" `Quick
            test_monitor_reads_written_device;
          Alcotest.test_case "a tag counts only in its tick" `Quick test_monitor_tag_lives_one_tick;
          Alcotest.test_case "240-router chain" `Quick test_monitor_long_chain;
          Alcotest.test_case "the probe remembers the far edge's address" `Quick
            test_monitor_probe_remembers_address;
          Alcotest.test_case "escalate then revive" `Quick test_monitor_escalates_then_revives;
          Alcotest.test_case "address and rate left alone" `Quick test_monitor_leaves_settings_alone;
          Alcotest.test_case "Hello re-sends address and rate" `Quick test_hello_resends_settings;
          Alcotest.test_case "400-tick flap soak" `Quick test_flap_soak;
          Alcotest.test_case "a restore inside the horizon" `Quick
            test_monitor_restore_inside_horizon;
          Alcotest.test_case "a repair reads its baseline once" `Quick
            test_monitor_repair_reads_baseline_once;
        ] );
      ( "restart",
        [
          Alcotest.test_case "crash mid-achieve" `Quick test_restart_from_journal_mid_achieve;
          Alcotest.test_case "restart after commit" `Quick test_restart_from_journal_committed;
        ] );
    ]
