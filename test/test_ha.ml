(* Scenario tests for the NM high-availability subsystem (Ha): heartbeat
   failure detection and automatic promotion, epoch fencing of a deposed
   primary (split-brain containment), exactly-once completion of a script
   the primary died in the middle of, double failover, replication
   isolation and duplicate takeover announcements. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tick_ns = 500_000_000L

(* The structural part of a show_actual report: per-module state keys,
   minus transient pending[..] negotiation state. *)
let structural_keys nm dev =
  match Nm.show_actual nm dev with
  | None -> Alcotest.failf "no showActual answer from %s" dev
  | Some state -> Monitor.structural_keys state

(* A diamond deployment managed by an HA pair: the testbed's NM as primary
   plus a warm standby on the same management channel. *)
let build_pair ?fault_seed () =
  let d = Scenarios.build_diamond ?fault_seed () in
  let net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  let standby =
    Nm.create ~transport:d.Scenarios.dtransport ~chan:d.Scenarios.dchan ~net
      ~my_id:Scenarios.standby_station_id ()
  in
  let p, s = Ha.pair ~primary:d.Scenarios.dnm ~standby () in
  (d, net, p, s)

(* One harness tick: let half a second of simulated time pass (delivering
   heartbeats, acks, retries), then give both nodes their HA tick. *)
let step net p s tick =
  ignore
    (Netsim.Net.run_until net
       ~deadline:(Int64.add (Netsim.Event_queue.now (Netsim.Net.eq net)) tick_ns));
  Ha.tick p ~tick;
  Ha.tick s ~tick

let achieve_or_fail nm goal =
  match Nm.achieve nm goal with Ok _ -> () | Error e -> Alcotest.failf "achieve: %s" e

(* Drive ticks [from..from+max] until the standby holds the primary role;
   returns the tick at which it promoted. *)
let drive_to_promotion ?(max = 10) net p s ~from =
  let promoted = ref None in
  (try
     for t = from to from + max do
       step net p s t;
       if !promoted = None && Ha.role s = Ha.Primary then begin
         promoted := Some t;
         raise Exit
       end
     done
   with Exit -> ());
  match !promoted with Some t -> t | None -> Alcotest.fail "standby never promoted"

(* --- heartbeat loss -> promotion ----------------------------------------------- *)

let test_promotion_on_heartbeat_loss () =
  let d, net, p, s = build_pair ~fault_seed:7 () in
  achieve_or_fail (Ha.nm p) d.Scenarios.dgoal;
  for t = 0 to 3 do
    step net p s t
  done;
  check tint "no promotion while heartbeats flow" 0 (Ha.promotions s);
  check tbool "heartbeats observed" true (Ha.heartbeats_seen s > 0);
  check tbool "journal replicated" true
    (List.length (Intent.entries (Nm.journal (Ha.nm s)))
    = List.length (Intent.entries (Nm.journal (Ha.nm p))));
  (* the primary dies: heartbeats stop *)
  Mgmt.Faults.crash d.Scenarios.dfaults Scenarios.nm_station_id;
  Ha.set_alive p false;
  let crash_tick = 4 in
  let promoted_at = drive_to_promotion net p s ~from:crash_tick in
  check tbool "detected within four ticks" true (promoted_at - crash_tick <= 4);
  check tint "promotion fenced a fresh epoch" 2 (Ha.epoch s);
  check tint "exactly one promotion" 1 (Ha.promotions s);
  (* the takeover announcement redirected every agent to the new leader *)
  ignore (Netsim.Net.run net);
  List.iter
    (fun (id, a) ->
      check Alcotest.string (id ^ " follows the new NM") Scenarios.standby_station_id
        (Agent.nm_device a);
      check tint (id ^ " adopted the new epoch") 2 (Agent.nm_epoch a))
    d.Scenarios.dagents;
  check tbool "network still carries traffic" true (Scenarios.diamond_reachable d)

(* --- split brain: fenced old primary ------------------------------------------- *)

let test_fenced_old_primary () =
  let d, net, p, s = build_pair ~fault_seed:8 () in
  achieve_or_fail (Ha.nm p) d.Scenarios.dgoal;
  for t = 0 to 2 do
    step net p s t
  done;
  (* partition the NMs from each other; both still reach the agents.
     Broadcasts consult the (src, broadcast) drop entry, so the takeover
     announcement must be blocked there too or the old primary would hear
     of the new epoch immediately. *)
  let a = Scenarios.nm_station_id and b = Scenarios.standby_station_id in
  Mgmt.Faults.set_drop d.Scenarios.dfaults ~src:a ~dst:b 1.0;
  Mgmt.Faults.set_drop d.Scenarios.dfaults ~src:b ~dst:a 1.0;
  Mgmt.Faults.set_drop d.Scenarios.dfaults ~src:b ~dst:Mgmt.Frame.broadcast 1.0;
  Mgmt.Faults.set_drop d.Scenarios.dfaults ~src:a ~dst:Mgmt.Frame.broadcast 1.0;
  let t0 = drive_to_promotion net p s ~from:3 in
  (* two primaries exist -- but never under the same epoch *)
  check tbool "old primary still believes it leads" true (Ha.role p = Ha.Primary);
  check tint "new leader epoch" 2 (Ha.epoch s);
  check tint "deposed epoch stayed behind" 1 (Ha.epoch p);
  (* the deposed primary tries to configure an agent: the frame carries
     epoch 1, the agents are at epoch 2 -> fenced out, nothing applied *)
  let rejects_before =
    List.fold_left (fun acc (_, ag) -> acc + Agent.fenced_rejects ag) 0 d.Scenarios.dagents
  in
  let target = Ids.v "IP" "i1" "id-B1" in
  Nm.assign_address (Ha.nm p) ~target ~addr:"10.0.9.1" ~plen:24;
  let rejects_after =
    List.fold_left (fun acc (_, ag) -> acc + Agent.fenced_rejects ag) 0 d.Scenarios.dagents
  in
  check tbool "agents fenced the stale-epoch request" true (rejects_after > rejects_before);
  check tbool "address not applied by the deposed primary" false
    (Netsim.Device.is_local_addr d.Scenarios.dtb.Netsim.Testbeds.dia_b1
       (Packet.Ipv4_addr.of_string "10.0.9.1"));
  check tbool "request stranded in flight" true (Nm.inflight_count (Ha.nm p) > 0);
  (* the partition heals: the first epoch-2 frame demotes the old primary,
     which surrenders its stranded request to the new leader *)
  Mgmt.Faults.set_drop d.Scenarios.dfaults ~src:a ~dst:b 0.0;
  Mgmt.Faults.set_drop d.Scenarios.dfaults ~src:b ~dst:a 0.0;
  Mgmt.Faults.set_drop d.Scenarios.dfaults ~src:b ~dst:Mgmt.Frame.broadcast 0.0;
  Mgmt.Faults.set_drop d.Scenarios.dfaults ~src:a ~dst:Mgmt.Frame.broadcast 0.0;
  for t = t0 + 1 to t0 + 3 do
    step net p s t
  done;
  check tbool "old primary stepped down" true (Ha.role p = Ha.Standby);
  check tint "exactly one demotion" 1 (Ha.demotions p);
  check tint "deposed node adopted the epoch" 2 (Ha.epoch p);
  check tbool "exactly one acting primary" true
    (List.length (List.filter (fun h -> Ha.role h = Ha.Primary) [ p; s ]) = 1);
  (* the handed-off request is re-issued by the new leader and now lands *)
  Nm.flush_inflight (Ha.nm s);
  check tbool "hand-off delivered the stranded assignment" true
    (Netsim.Device.is_local_addr d.Scenarios.dtb.Netsim.Testbeds.dia_b1
       (Packet.Ipv4_addr.of_string "10.0.9.1"));
  check tint "nothing left in flight at the new leader" 0 (Nm.inflight_count (Ha.nm s))

(* --- crash mid-achieve: takeover completes the script exactly once ------------- *)

let test_crash_mid_achieve_exactly_once () =
  let target = Ids.v "IP" "k" "id-C" in
  let addr = "10.0.9.1" in
  (* the reference: what an undisturbed run converges to *)
  Nm.set_incarnations 0;
  let dr = Scenarios.build_diamond () in
  achieve_or_fail dr.Scenarios.dnm dr.Scenarios.dgoal;
  Nm.assign_address dr.Scenarios.dnm ~target ~addr ~plen:24;
  let reference =
    List.map (fun dev -> (dev, structural_keys dr.Scenarios.dnm dev)) dr.Scenarios.dscope
  in
  (* the HA run: id-C drops off the channel mid-configuration, so both
     journalled intents are unrealised — and one request is stranded in
     flight, transport-unconfirmed — when the primary dies *)
  Nm.set_incarnations 0;
  let d, net, p, s = build_pair () in
  for t = 0 to 1 do
    step net p s t
  done;
  Mgmt.Faults.partition d.Scenarios.dfaults "id-C";
  (match Nm.achieve (Ha.nm p) d.Scenarios.dgoal with
  | Ok _ -> Alcotest.fail "achieve should fail with id-C partitioned"
  | Error _ -> ());
  Nm.assign_address (Ha.nm p) ~target ~addr ~plen:24;
  check tbool "request left in flight at the primary" true
    (Nm.inflight_count (Ha.nm p) > 0);
  (* continuous replication already shipped the write-ahead entries and
     the in-flight delta *)
  ignore (Netsim.Net.run net);
  check tbool "standby replicated the in-flight set" true (Ha.replica_inflight_count s > 0);
  check tbool "standby replicated the write-ahead journal" true
    (List.length (Intent.entries (Nm.journal (Ha.nm s)))
    = List.length (Intent.entries (Nm.journal (Ha.nm p))));
  Mgmt.Faults.crash d.Scenarios.dfaults Scenarios.nm_station_id;
  Ha.set_alive p false;
  let t0 = drive_to_promotion net p s ~from:2 in
  check tbool "promotion replayed the unconfirmed requests" true (Ha.replayed s > 0);
  (* the agent partition heals; the replayed request is re-driven until
     confirmed *)
  Mgmt.Faults.heal d.Scenarios.dfaults "id-C";
  for t = t0 + 1 to t0 + 4 do
    step net p s t
  done;
  Nm.flush_inflight (Ha.nm s);
  check tint "every replayed request confirmed" 0 (Nm.inflight_count (Ha.nm s));
  check tbool "stranded address applied under the new leader" true
    (Netsim.Device.is_local_addr d.Scenarios.dtb.Netsim.Testbeds.dia_c
       (Packet.Ipv4_addr.of_string addr));
  (* re-realise the journalled intents, as the monitor would on its next
     tick; agents answer duplicate requests from cache and execute
     re-issued slices idempotently *)
  Nm.recover (Ha.nm s);
  check tbool "network converged under the new leader" true (Scenarios.diamond_reachable d);
  List.iter
    (fun (dev, keys) ->
      check
        Alcotest.(list string)
        ("clean-run structural state at " ^ dev)
        keys (structural_keys (Ha.nm s) dev))
    reference;
  check tint "takeover did not duplicate intents" 2 (List.length (Nm.intents (Ha.nm s)));
  check tbool "no duplicate-execution errors" true (Nm.errors (Ha.nm s) = [])

(* --- double failover ------------------------------------------------------------ *)

let test_double_failover () =
  let d, net, p, s = build_pair ~fault_seed:13 () in
  achieve_or_fail (Ha.nm p) d.Scenarios.dgoal;
  for t = 0 to 2 do
    step net p s t
  done;
  (* first failover: the primary dies, the standby takes over under epoch 2 *)
  Mgmt.Faults.crash d.Scenarios.dfaults Scenarios.nm_station_id;
  Ha.set_alive p false;
  let t1 = drive_to_promotion net p s ~from:3 in
  (* the old primary revives, hears the new leader and steps down *)
  Mgmt.Faults.restart d.Scenarios.dfaults Scenarios.nm_station_id;
  Ha.set_alive p true;
  let t2 = ref (t1 + 1) in
  while Ha.role p = Ha.Primary && !t2 <= t1 + 6 do
    step net p s !t2;
    incr t2
  done;
  check tbool "revived primary demoted itself" true (Ha.role p = Ha.Standby);
  (* second failover: the new leader dies in turn; the revived node must
     detect it and promote past epoch 2 *)
  Mgmt.Faults.crash d.Scenarios.dfaults Scenarios.standby_station_id;
  Ha.set_alive s false;
  let promoted = ref None in
  (try
     for t = !t2 to !t2 + 10 do
       step net p s t;
       if Ha.role p = Ha.Primary then begin
         promoted := Some t;
         raise Exit
       end
     done
   with Exit -> ());
  (match !promoted with
  | None -> Alcotest.fail "original node never re-promoted"
  | Some _ -> ());
  check tint "second failover fenced epoch 3" 3 (Ha.epoch p);
  check tint "one promotion per node" 1 (Ha.promotions s);
  check tint "re-promotion counted" 1 (Ha.promotions p);
  ignore (Netsim.Net.run net);
  List.iter
    (fun (id, a) ->
      check Alcotest.string (id ^ " follows the re-promoted NM") Scenarios.nm_station_id
        (Agent.nm_device a);
      check tint (id ^ " at epoch 3") 3 (Agent.nm_epoch a))
    d.Scenarios.dagents;
  check tbool "network survives two failovers" true (Scenarios.diamond_reachable d)

(* --- replication isolation (no aliasing primary <-> standby) -------------------- *)

let test_replicate_isolation () =
  let d = Scenarios.build_diamond () in
  let net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  achieve_or_fail d.Scenarios.dnm d.Scenarios.dgoal;
  let standby =
    Nm.create ~transport:d.Scenarios.dtransport ~chan:d.Scenarios.dchan ~net
      ~my_id:Scenarios.standby_station_id ()
  in
  Nm.replicate_to d.Scenarios.dnm ~standby;
  let primary_len = List.length (Intent.entries (Nm.journal d.Scenarios.dnm)) in
  check tint "journal entries copied" primary_len
    (List.length (Intent.entries (Nm.journal standby)));
  (* mutations on the primary after replication must not bleed through *)
  (match Nm.intents d.Scenarios.dnm with
  | i :: _ -> i.Intent.status <- Intent.Failed
  | [] -> Alcotest.fail "no intents on the primary");
  Topology.set_reachable (Nm.topology d.Scenarios.dnm) "id-B1" false;
  (match Nm.intents standby with
  | i :: _ ->
      check tbool "standby intent record is a fresh object" true
        (i.Intent.status <> Intent.Failed)
  | [] -> Alcotest.fail "no intents replicated");
  check tbool "standby topology is a deep copy" true
    (Topology.is_reachable (Nm.topology standby) "id-B1");
  (* and new journal growth on the primary stays local until shipped *)
  (match Nm.intents d.Scenarios.dnm with
  | i :: _ -> (
      i.Intent.status <- Intent.Active;
      match i.Intent.script with
      | Some sc ->
          Nm.teardown d.Scenarios.dnm sc;
          check tbool "primary journal grew" true
            (List.length (Intent.entries (Nm.journal d.Scenarios.dnm)) > primary_len);
          check tint "standby journal unchanged without shipping" primary_len
            (List.length (Intent.entries (Nm.journal standby)))
      | None -> Alcotest.fail "intent lost its script")
  | [] -> ())

(* --- duplicate / stale takeover announcements ----------------------------------- *)

let test_takeover_duplicates_and_stale_epochs () =
  let d = Scenarios.build_diamond () in
  let net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  achieve_or_fail d.Scenarios.dnm d.Scenarios.dgoal;
  let standby =
    Nm.create ~transport:d.Scenarios.dtransport ~chan:d.Scenarios.dchan ~net
      ~my_id:Scenarios.standby_station_id ()
  in
  Nm.replicate_to d.Scenarios.dnm ~standby;
  (* every frame duplicated and jittered: each agent sees the takeover
     announcement several times, in odd orders *)
  Mgmt.Faults.set_duplicate d.Scenarios.dfaults 1.0;
  Mgmt.Faults.set_jitter d.Scenarios.dfaults 5_000_000L;
  Nm.take_over standby;
  ignore (Netsim.Net.run net);
  Mgmt.Faults.set_duplicate d.Scenarios.dfaults 0.0;
  Mgmt.Faults.set_jitter d.Scenarios.dfaults 0L;
  List.iter
    (fun (id, a) ->
      check Alcotest.string (id ^ " adopted the standby") Scenarios.standby_station_id
        (Agent.nm_device a);
      check tint (id ^ " at epoch 1... bumped") 1 (Agent.nm_epoch a);
      check tint (id ^ " duplicate announcements are silent no-ops") 0
        (Agent.takeover_rejects a))
    d.Scenarios.dagents;
  (* the deposed primary re-announces itself with its stale epoch: every
     agent must reject it and stay with the new leader *)
  Nm.take_over ~epoch:1 d.Scenarios.dnm;
  ignore (Netsim.Net.run net);
  List.iter
    (fun (id, a) ->
      check Alcotest.string (id ^ " still follows the new leader") Scenarios.standby_station_id
        (Agent.nm_device a);
      check tbool (id ^ " counted the stale takeover") true (Agent.takeover_rejects a > 0))
    d.Scenarios.dagents

(* --- journal shipping over a long history ----------------------------------------- *)

let live_set nm =
  List.map
    (fun (i : Intent.t) -> (i.Intent.id, i.Intent.spec, i.Intent.status))
    (Intent.replay (Nm.journal nm))

(* [goals] achieve/teardown cycles on the primary, one HA tick each. *)
let churn d net p s ~goals ~from =
  for k = 0 to goals - 1 do
    (match Nm.achieve (Ha.nm p) d.Scenarios.dgoal with
    | Ok (_, _, script) -> Nm.teardown (Ha.nm p) script
    | Error e -> Alcotest.failf "achieve: %s" e);
    step net p s (from + k)
  done

let check_in_sync p s ~shipped =
  let jp = Nm.journal (Ha.nm p) and js = Nm.journal (Ha.nm s) in
  check tint "standby applied every entry" shipped (Ha.entries_applied s);
  check tint "equal journal lengths" (Intent.length jp) (Intent.length js);
  check tbool "same live intents" true (live_set (Ha.nm p) = live_set (Ha.nm s))

let test_journal_in_sync_over_history () =
  (* 700 goals: the primary compacts what the standby has acknowledged,
     the standby (whose own floor stays 0) keeps everything *)
  let d, net, p, s = build_pair ~fault_seed:21 () in
  let goals = 700 in
  churn d net p s ~goals ~from:0;
  for t = goals to goals + 2 do
    step net p s t
  done;
  check_in_sync p s ~shipped:(4 * goals);
  let jp = Nm.journal (Ha.nm p) and js = Nm.journal (Ha.nm s) in
  check tbool "the primary compacted acknowledged history" true (Intent.compacted jp > 0);
  check tint "the standby keeps every entry" (Intent.length js) (List.length (Intent.entries js));
  check tint "no promotion" 0 (Ha.promotions s)

let test_journal_catch_up_after_standby_down () =
  let d, net, p, s = build_pair ~fault_seed:22 () in
  for t = 0 to 1 do
    step net p s t
  done;
  (* the standby is down for 700 goals: nothing is acknowledged, so the
     primary must hold every entry *)
  Ha.set_alive s false;
  let goals = 700 in
  churn d net p s ~goals ~from:2;
  let jp = Nm.journal (Ha.nm p) in
  check tint "the primary kept every unacknowledged entry" (Intent.length jp)
    (List.length (Intent.entries jp));
  check tint "nothing compacted" 0 (Intent.compacted jp);
  (* revived, the standby catches up from the re-shipped tail *)
  Ha.set_alive s true;
  let t = ref (goals + 2) in
  while Intent.length (Nm.journal (Ha.nm s)) < Intent.length jp && !t < goals + 2 + 400 do
    step net p s !t;
    incr t
  done;
  check_in_sync p s ~shipped:(4 * goals);
  check tint "no promotion" 0 (Ha.promotions s)

let test_pair_after_compaction () =
  (* the primary served 520 goals alone and compacted before the standby
     joined: bootstrap copies the held entries under their sequence
     numbers, so later entries ship and apply in order *)
  let d = Scenarios.build_diamond () in
  let net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  for _ = 1 to 520 do
    match Nm.achieve d.Scenarios.dnm d.Scenarios.dgoal with
    | Ok (_, _, script) -> Nm.teardown d.Scenarios.dnm script
    | Error e -> Alcotest.failf "achieve: %s" e
  done;
  check tbool "the primary compacted" true (Intent.compacted (Nm.journal d.Scenarios.dnm) > 0);
  let standby =
    Nm.create ~transport:d.Scenarios.dtransport ~chan:d.Scenarios.dchan ~net
      ~my_id:Scenarios.standby_station_id ()
  in
  let p, s = Ha.pair ~primary:d.Scenarios.dnm ~standby () in
  check tint "the standby numbers entries as the primary"
    (Intent.length (Nm.journal d.Scenarios.dnm))
    (Intent.length (Nm.journal standby));
  churn d net p s ~goals:10 ~from:0;
  step net p s 10;
  check_in_sync p s ~shipped:40

let () =
  Alcotest.run "ha"
    [
      ( "failover",
        [
          Alcotest.test_case "heartbeat loss promotes the standby" `Quick
            test_promotion_on_heartbeat_loss;
          Alcotest.test_case "crash mid-achieve completes exactly once" `Quick
            test_crash_mid_achieve_exactly_once;
          Alcotest.test_case "double failover" `Quick test_double_failover;
        ] );
      ( "fencing",
        [
          Alcotest.test_case "deposed primary is fenced out" `Quick test_fenced_old_primary;
          Alcotest.test_case "duplicate and stale takeovers" `Quick
            test_takeover_duplicates_and_stale_epochs;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replicate_to does not alias" `Quick test_replicate_isolation;
          Alcotest.test_case "journal in sync over 700 goals" `Quick
            test_journal_in_sync_over_history;
          Alcotest.test_case "standby down for 700 goals catches up" `Quick
            test_journal_catch_up_after_standby_down;
          Alcotest.test_case "pairing after compaction" `Quick test_pair_after_compaction;
        ] );
    ]
