(* Overload-protection tests: wire-priority classification, the admission
   layer's token bucket / bounded queues / lowest-priority-first shedding,
   Reliable's per-destination pending cap, conveys on long chains (never
   throttled: they ride at P1), seeded mutational fuzzing of
   every channel codec (decode must never raise anything undeclared),
   HA failure detection under a telemetry storm, and the telemetry
   poller's shed-feedback backoff. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* --- wire priority classification ---------------------------------------- *)

let test_wire_priorities () =
  let p m = Wire.priority_of m in
  check tint "heartbeat is P0" 0 (p (Wire.Ha_heartbeat { epoch = 1; seq = 7 }));
  check tint "takeover is P0" 0 (p (Wire.Nm_takeover { nm = "id-NM2"; epoch = 2 }));
  check tint "fenced takes the inner class" 0
    (p (Wire.Fenced { epoch = 2; msg = Wire.Ha_heartbeat { epoch = 2; seq = 1 } }));
  check tint "bundle is P1" 1
    (p (Wire.Bundle { req = 1; cmds = []; annex = Wire.empty_annex }));
  check tint "ack is P1" 1 (p (Wire.Ack { req = 1 }));
  check tint "journal ack is P1" 1 (p (Wire.Ha_journal_ack { epoch = 1; upto = 3 }));
  check tint "hello is P2" 2 (p (Wire.Hello { ports = [] }));
  check tint "showActual is P2" 2 (p (Wire.Show_actual_req { req = 4 }));
  check tint "conditional showActual is P2" 2
    (p (Wire.Show_actual_unless { req = 4; tag = Wire.state_tag [] }));
  check tint "showActual unchanged is P2" 2 (p (Wire.Show_actual_unchanged { req = 4 }));
  check tint "convey is P1" 1
    (p
       (Wire.Convey
          {
            src = Ids.v "MPLS" "p" "id-R1";
            dst = Ids.v "MPLS" "q" "id-R2";
            payload = Peer_msg.Mpls_label_bind { pipe = "P1"; label = 16; nexthop = "10.0.0.2" };
          }));
  check tint "fenced probe is P2" 2
    (p (Wire.Fenced { epoch = 1; msg = Wire.Show_actual_req { req = 5 } }));
  check tint "showPerf req is P3" 3 (p (Wire.Show_perf_req { req = 6 }));
  check tint "showPerf resp is P3" 3
    (p (Wire.Show_perf_resp { req = 6; tag = Wire.state_tag []; perf = [] }));
  check tint "fenced showPerf resp is P3" 3
    (p
       (Wire.Fenced
          { epoch = 2; msg = Wire.Show_perf_resp { req = 7; tag = Wire.state_tag []; perf = [] } }))

(* --- admission unit tests ------------------------------------------------- *)

(* A recording inner channel: sends land synchronously in [sent]. *)
let recording () =
  let sent = ref [] in
  let stats =
    {
      Mgmt.Channel.frames_sent = 0;
      bytes_sent = 0;
      frames_delivered = 0;
      frames_dropped = 0;
      seen_high_water = 0;
    }
  in
  let chan =
    Mgmt.Channel.make
      ~send:(fun ~cls:_ ~src:_ ~dst payload -> sent := (dst, payload) :: !sent)
      ~subscribe:(fun _ _ -> ())
      ~stats
  in
  (chan, sent)

(* Test frames. Each send below states the class [Wire.priority_of] gives
   the message it encodes, as [Nm.send] does: hb 0, bundle 1, probe 2,
   perf 3 (pinned by [test_wire_priorities]). *)
let hb seq = Wire.encode (Wire.Ha_heartbeat { epoch = 1; seq })
let bundle req = Wire.encode (Wire.Bundle { req; cmds = []; annex = Wire.empty_annex })
let probe req = Wire.encode (Wire.Show_actual_req { req })
let perf req = Wire.encode (Wire.Show_perf_req { req })

let wrap_tight ?(bucket = 4) ?(refill = 1000) ?(queue = 8) ?(deadline = 50_000_000L) () =
  let eq = Netsim.Event_queue.create () in
  let inner, sent = recording () in
  let config =
    {
      Mgmt.Admission.bucket_capacity = bucket;
      refill_per_s = refill;
      queue_capacity = queue;
      p3_deadline_ns = deadline;
      drain_period_ns = 1_000_000L;
    }
  in
  let chan, adm = Mgmt.Admission.wrap ~config ~eq inner in
  (eq, chan, adm, sent)

let run_for eq ns =
  ignore
    (Netsim.Event_queue.run_until eq ~deadline:(Int64.add (Netsim.Event_queue.now eq) ns))

let test_p0_bypasses_exhaustion () =
  let _eq, chan, adm, sent = wrap_tight () in
  (* exhaust the bucket and overflow the queue with telemetry *)
  for i = 1 to 30 do
    Mgmt.Channel.send chan ~cls:3 ~src:"id-NM" ~dst:"id-A" (perf i)
  done;
  let before = List.length !sent in
  check tint "only the burst budget passed" 4 before;
  Mgmt.Channel.send chan ~cls:0 ~src:"id-NM" ~dst:"id-A" (hb 1);
  Mgmt.Channel.send chan ~cls:1 ~src:"id-NM" ~dst:"id-A" (bundle 99);
  check tint "P0 and P1 passed straight through the jam" (before + 2) (List.length !sent);
  let c = Mgmt.Admission.counters adm in
  check tint "no P0 shed" 0 c.(0).Mgmt.Admission.shed;
  check tint "no P1 shed" 0 c.(1).Mgmt.Admission.shed;
  check tbool "telemetry was shed" true (c.(3).Mgmt.Admission.shed > 0)

(* Admission acts on the class the sender states and never parses the
   payload: bytes that are no wire message, stated as P0 and P1, still
   bypass the jam. *)
let test_stated_class_not_parsed () =
  let _eq, chan, adm, sent = wrap_tight () in
  for i = 1 to 30 do
    Mgmt.Channel.send chan ~cls:3 ~src:"id-NM" ~dst:"id-A" (perf i)
  done;
  let before = List.length !sent in
  let opaque = Bytes.of_string "not a wire message" in
  Mgmt.Channel.send chan ~cls:0 ~src:"id-NM" ~dst:"id-A" opaque;
  Mgmt.Channel.send chan ~cls:1 ~src:"id-NM" ~dst:"id-A" opaque;
  check tint "both passed the jam" (before + 2) (List.length !sent);
  let c = Mgmt.Admission.counters adm in
  check tint "admitted as P0" 1 c.(0).Mgmt.Admission.admitted;
  check tint "admitted as P1" 1 c.(1).Mgmt.Admission.admitted;
  check tint "nothing waits as P2" 0 c.(2).Mgmt.Admission.deferred

let test_shed_lowest_priority_first () =
  let _eq, chan, adm, sent = wrap_tight ~bucket:2 ~refill:0 ~queue:4 () in
  (* two tokens, then a full queue of telemetry *)
  for i = 1 to 6 do
    Mgmt.Channel.send chan ~cls:3 ~src:"id-NM" ~dst:"id-A" (perf i)
  done;
  check tint "burst budget" 2 (List.length !sent);
  check tint "queue full" 4 (Mgmt.Admission.queue_depth adm);
  (* probes arriving at the cap displace queued telemetry, not vice versa *)
  Mgmt.Channel.send chan ~cls:2 ~src:"id-NM" ~dst:"id-A" (probe 7);
  Mgmt.Channel.send chan ~cls:2 ~src:"id-NM" ~dst:"id-A" (probe 8);
  let c = Mgmt.Admission.counters adm in
  check tint "P3 shed to make room for P2" 2 c.(3).Mgmt.Admission.shed;
  check tint "no P2 shed" 0 c.(2).Mgmt.Admission.shed;
  check tint "queue still at cap" 4 (Mgmt.Admission.queue_depth adm)

let test_refill_drains_p2_before_p3 () =
  let eq, chan, adm, sent = wrap_tight ~bucket:1 ~refill:1000 ~queue:8 () in
  Mgmt.Channel.send chan ~cls:3 ~src:"id-NM" ~dst:"id-A" (perf 1);
  (* bucket empty: these queue *)
  Mgmt.Channel.send chan ~cls:3 ~src:"id-NM" ~dst:"id-A" (perf 2);
  Mgmt.Channel.send chan ~cls:2 ~src:"id-NM" ~dst:"id-A" (probe 3);
  check tint "one admitted, two queued" 1 (List.length !sent);
  (* 10 virtual ms = 10 refilled tokens: the drainer must serve the probe
     (P2) before the older telemetry frame *)
  run_for eq 10_000_000L;
  check tint "queue drained" 0 (Mgmt.Admission.queue_depth adm);
  let delivered = List.rev_map snd !sent in
  check tint "all three delivered" 3 (List.length delivered);
  check tbool "probe overtook the older telemetry" true
    (List.nth delivered 1 = probe 3 && List.nth delivered 2 = perf 2)

let test_p3_deadline_expiry () =
  let eq, chan, adm, sent = wrap_tight ~bucket:2 ~refill:0 ~queue:8 ~deadline:10_000_000L () in
  for i = 1 to 5 do
    Mgmt.Channel.send chan ~cls:3 ~src:"id-NM" ~dst:"id-A" (perf i)
  done;
  check tint "three queued" 3 (Mgmt.Admission.queue_depth adm);
  (* no refill ever comes; past the deadline the stale scrapes expire *)
  run_for eq 20_000_000L;
  check tint "expired, not delivered" 2 (List.length !sent);
  check tint "queue empty" 0 (Mgmt.Admission.queue_depth adm);
  let c = Mgmt.Admission.counters adm in
  check tint "expiry counted" 3 c.(3).Mgmt.Admission.expired;
  check tbool "lost_total sees expiry" true (Mgmt.Admission.lost_total adm >= 3)

let test_per_peer_buckets () =
  let _eq, chan, _adm, sent = wrap_tight ~bucket:3 ~refill:0 () in
  for i = 1 to 10 do
    Mgmt.Channel.send chan ~cls:3 ~src:"id-NM" ~dst:"id-A" (perf i)
  done;
  let after_nm = List.length !sent in
  check tint "first peer exhausted its own budget" 3 after_nm;
  (* a different sending peer has an untouched bucket — but the shared
     backlog is non-empty, so its fresh telemetry must queue behind it
     rather than jump ahead *)
  Mgmt.Channel.send chan ~cls:3 ~src:"id-NM2" ~dst:"id-A" (perf 11);
  check tint "second peer queued behind the backlog" after_nm (List.length !sent)

(* --- Reliable: bounded pending buffers ------------------------------------ *)

let test_reliable_pending_cap () =
  let eq = Netsim.Event_queue.create () in
  let oob = Mgmt.Channel.Oob.create eq in
  let config = { Mgmt.Reliable.default_config with Mgmt.Reliable.max_pending_per_dst = 4 } in
  let chan, rel = Mgmt.Reliable.create ~config ~eq oob in
  Mgmt.Channel.subscribe chan ~device_id:"id-NM" (fun ~src:_ _ -> ());
  (* "id-dead" never subscribes: nothing is ever acked, pending grows *)
  for i = 1 to 10 do
    Mgmt.Channel.send chan ~cls:3 ~src:"id-NM" ~dst:"id-dead" (perf i)
  done;
  let c = Mgmt.Reliable.counters rel in
  check tint "oldest telemetry abandoned at the cap" 6 c.Mgmt.Reliable.pending_shed;
  check tint "in-flight bounded" 4 (Mgmt.Reliable.in_flight rel);
  check tbool "high water recorded" true (c.Mgmt.Reliable.pending_high_water >= 4);
  (* non-telemetry frames are never shed: the cap only records them *)
  for i = 1 to 10 do
    Mgmt.Channel.send chan ~cls:2 ~src:"id-NM" ~dst:"id-dead2" (probe i)
  done;
  let c = Mgmt.Reliable.counters rel in
  check tint "no probe was shed" 6 c.Mgmt.Reliable.pending_shed;
  check tint "probes all still pending" 14 (Mgmt.Reliable.in_flight rel);
  check tbool "cap overshoot recorded" true (c.Mgmt.Reliable.pending_high_water >= 10)

(* --- conveys ride at P1 ----------------------------------------------------- *)

(* The NM relays every module-to-module convey from its own per-peer
   budget. At P2 a long MPLS chain drained that bucket within a few goals:
   label bindings were deferred, and past the 128-frame backlog shed, while
   [Nm.achieve] still returned [Ok] for an LSP that did not ping. *)

let chain_goals c goals =
  let eq = Netsim.Net.eq c.Scenarios.ctb.Netsim.Testbeds.chain_net in
  List.init goals (fun _ ->
      let t0 = Netsim.Event_queue.now eq in
      match Nm.achieve c.Scenarios.cnm c.Scenarios.cgoal with
      | Error e -> Alcotest.fail e
      | Ok (_, _, script) ->
          let pinged = Scenarios.chain_reachable c in
          Nm.teardown c.Scenarios.cnm script;
          (pinged, Int64.sub (Netsim.Event_queue.now eq) t0))

let p2_deferred c = (Mgmt.Admission.counters c.Scenarios.cadmission).(2).Mgmt.Admission.deferred

let test_long_chain_keeps_its_lsp () =
  let c = Scenarios.build_chain 100 in
  let pinged = List.map fst (chain_goals c 6) in
  check (Alcotest.list tbool) "every goal pings" (List.init 6 (fun _ -> true)) pinged;
  check tint "no P2 frame waited for tokens" 0 (p2_deferred c)

(* Goal 1 pays one-off costs; from goal 2 on, every goal takes the same
   virtual time. *)
let test_chain_goal_time_flat () =
  let c = Scenarios.build_chain ~fault_seed:7 11 in
  let runs = List.tl (chain_goals c 100) in
  check tbool "every goal pings" true (List.for_all fst runs);
  let second = snd (List.hd runs) in
  check tbool "flat virtual time per goal" true (List.for_all (fun (_, ns) -> ns = second) runs);
  check tint "no P2 frame waited for tokens" 0 (p2_deferred c)

(* --- codec fuzzing --------------------------------------------------------- *)

let wire_corpus =
  [
    Wire.Hello { ports = [ ("eth1", "id-B", "eth2"); ("eth2", "id-C", "eth1") ] };
    Wire.Show_potential_req { req = 1 };
    Wire.Show_actual_req { req = 2 };
    Wire.Show_actual_unless { req = 2; tag = Wire.state_tag [] };
    Wire.Show_actual_unchanged { req = 2 };
    Wire.Show_perf_req { req = 3 };
    Wire.Show_perf_resp
      {
        req = 3;
        tag = Wire.state_tag [ (Ids.v "ETH" "a" "id-A", [ ("pipe", "pipe0") ]) ];
        perf = [ (Ids.v "ETH" "a" "id-A", [ ("pipe0", [ ("rx", 12) ]) ]) ];
      };
    Wire.Nm_takeover { nm = "id-NM2"; epoch = 3 };
    Wire.Ha_heartbeat { epoch = 2; seq = 17 };
    Wire.Ha_journal_ack { epoch = 2; upto = 40 };
    Wire.Ha_confirm { epoch = 2; req = 41 };
    Wire.Fenced { epoch = 2; msg = Wire.Show_actual_req { req = 9 } };
    Wire.Ack { req = 4 };
    Wire.Bundle_ack { req = 7 };
    Wire.Bundle_err { req = 5; error = "no such module" };
    Wire.Set_address { req = 6; target = Ids.v "IP" "i1" "id-B1"; addr = "10.0.0.1"; plen = 24 };
    Wire.Self_test_req { req = 8; target = Ids.v "IP" "g" "id-A"; against = None };
    Wire.Completion { src = Ids.v "MPLS" "q" "id-C"; what = "lsp-established" };
    Wire.Trigger { src = Ids.v "IP" "g" "id-A"; field = "up"; value = "false" };
    (* trace contexts piggyback on any frame, nested either way around the
       epoch fence — both orderings must survive the mutational fuzz *)
    Wire.Traced
      {
        ctx = { Obs.Trace.goal = 1; span = 5; parent = 4 };
        msg = Wire.Bundle_ack { req = 7 };
      };
    Wire.Fenced
      {
        epoch = 3;
        msg =
          Wire.Traced
            {
              ctx = { Obs.Trace.goal = 2; span = 9; parent = 0 };
              msg = Wire.Ack { req = 11 };
            };
      };
  ]

(* Seeded mutations: truncate, bit-flip, or splice two encodings. *)
let mutate prng pool =
  let pick () = List.nth pool (Mgmt.Faults.Prng.below prng (List.length pool)) in
  let b = Bytes.copy (pick ()) in
  match Mgmt.Faults.Prng.below prng 3 with
  | 0 -> Bytes.sub b 0 (Mgmt.Faults.Prng.below prng (Bytes.length b))
  | 1 ->
      let i = Mgmt.Faults.Prng.below prng (Bytes.length b) in
      let bit = 1 lsl Mgmt.Faults.Prng.below prng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit land 0xff));
      b
  | _ ->
      let o = pick () in
      let cut = Mgmt.Faults.Prng.below prng (Bytes.length b) in
      let cut' = Mgmt.Faults.Prng.below prng (Bytes.length o) in
      Bytes.cat (Bytes.sub b 0 cut) (Bytes.sub o cut' (Bytes.length o - cut'))

let test_fuzz_wire_decode () =
  let prng = Mgmt.Faults.Prng.create 1234 in
  let pool = List.map Wire.encode wire_corpus in
  for _ = 1 to 2000 do
    let m = mutate prng pool in
    match Wire.decode m with
    | _ -> ()
    | exception Sexp.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "Wire.decode raised %s on %S" (Printexc.to_string e)
          (Bytes.to_string m)
  done

let test_fuzz_frame_decode () =
  let prng = Mgmt.Faults.Prng.create 987 in
  let pool =
    List.mapi
      (fun i m ->
        Mgmt.Frame.encode
          { Mgmt.Frame.src_device = "id-A"; dst_device = "id-NM"; seq = i; payload = Wire.encode m })
      wire_corpus
  in
  for _ = 1 to 2000 do
    let m = mutate prng pool in
    match Mgmt.Frame.decode m 0 with
    | _ -> ()
    | exception Mgmt.Frame.Bad_frame _ -> ()
    | exception e -> Alcotest.failf "Frame.decode raised %s" (Printexc.to_string e)
  done

let test_fuzz_schedule_decode () =
  let prng = Mgmt.Faults.Prng.create 555 in
  let pool =
    List.map
      (fun seed -> Bytes.of_string (Chaos.Schedule.to_string (Chaos.Schedule.generate ~seed ~ticks:6 ())))
      [ 1; 2; 3; 4; 5 ]
  in
  for _ = 1 to 1000 do
    let m = Bytes.to_string (mutate prng pool) in
    match Chaos.Schedule.of_string m with
    | _ -> ()
    | exception Sexp.Parse_error _ -> ()
    | exception e -> Alcotest.failf "Schedule.of_string raised %s" (Printexc.to_string e)
  done

(* Peer_msg rides opaquely inside Convey/Fed_relay frames, so its sexp
   codec sees the same hostile bytes the Wire codec does — every variant
   in the corpus, including the int32-keyed gre-params whose parse once
   leaked a bare [Failure]. *)
let peer_msg_corpus =
  [
    Peer_msg.Gre_params
      { pipe = "gre0"; ikey = 0x1234_5678l; okey = Int32.min_int; use_seq = true; use_csum = false };
    Peer_msg.Gre_params_ack { pipe = "gre0" };
    Peer_msg.Lfv_request
      { purpose = "endpoint"; fields = [ "addr"; "plen" ]; own = [ ("addr", "10.0.0.1") ] };
    Peer_msg.Lfv_reply { purpose = "nexthop"; fields = [ ("addr", "10.0.0.2"); ("plen", "24") ] };
    Peer_msg.Mpls_label_bind { pipe = "lsp1"; label = 42; nexthop = "10.0.1.1" };
    Peer_msg.Vlan_vid_bind { pipe = "trunk0"; vid = 101 };
    Peer_msg.Vlan_vid_ack { pipe = "trunk0" };
  ]

let test_fuzz_peer_msg_decode () =
  let prng = Mgmt.Faults.Prng.create 4242 in
  let pool =
    List.map (fun m -> Bytes.of_string (Sexp.to_string (Peer_msg.to_sexp m))) peer_msg_corpus
  in
  for _ = 1 to 2000 do
    let m = Bytes.to_string (mutate prng pool) in
    match Peer_msg.of_sexp (Sexp.of_string m) with
    | _ -> ()
    | exception Sexp.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "Peer_msg.of_sexp raised %s on %S" (Printexc.to_string e) m
  done;
  (* round-trip sanity: every corpus entry survives encode/decode *)
  List.iter
    (fun m ->
      let m' = Peer_msg.of_sexp (Sexp.of_string (Sexp.to_string (Peer_msg.to_sexp m))) in
      if not (Peer_msg.equal m m') then
        Alcotest.failf "Peer_msg round-trip changed %a" Peer_msg.pp m)
    peer_msg_corpus

(* The trace-context and span codecs see hostile bytes too: the ctx rides
   inside every Traced frame, and spans are serialized whole into chaos
   violation reports. Same contract as Wire.decode — only Parse_error. *)
let ctx_corpus =
  [
    { Obs.Trace.goal = 1; span = 1; parent = 0 };
    { Obs.Trace.goal = 3; span = 12; parent = 7 };
    { Obs.Trace.goal = max_int; span = max_int - 1; parent = max_int - 2 };
  ]

let span_corpus =
  [
    {
      Obs.Trace.s_goal = 1;
      s_id = 1;
      s_parent = 0;
      s_name = "fed-goal";
      s_station = "id-NM-W";
      s_start = 0;
      s_end = 2;
      s_status = "ok";
      s_events = [ (0, "t0 sent"); (1, "retry 1") ];
    };
    {
      Obs.Trace.s_goal = 1;
      s_id = 5;
      s_parent = 4;
      s_name = "exec:id-R1";
      s_station = "id-NM-E";
      s_start = 3;
      s_end = -1;
      s_status = "";
      s_events = [];
    };
    {
      Obs.Trace.s_goal = 7;
      s_id = 9;
      s_parent = 7;
      s_name = "bundle:id-C (retry)";
      s_station = "id-NM";
      s_start = 2;
      s_end = 2;
      s_status = "failed: device unreachable: id-C";
      s_events = [ (2, "shed p3") ];
    };
  ]

let test_fuzz_obs_codec () =
  let prng = Mgmt.Faults.Prng.create 2718 in
  let pool =
    List.map (fun s -> Bytes.of_string (Obs_codec.span_to_string s)) span_corpus
    @ List.map (fun c -> Bytes.of_string (Sexp.to_string (Obs_codec.ctx_to_sexp c))) ctx_corpus
  in
  for _ = 1 to 2000 do
    let m = Bytes.to_string (mutate prng pool) in
    (match Obs_codec.span_of_string m with
    | _ -> ()
    | exception Sexp.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "span_of_string raised %s on %S" (Printexc.to_string e) m);
    match Obs_codec.ctx_of_sexp (Sexp.of_string m) with
    | _ -> ()
    | exception Sexp.Parse_error _ -> ()
    | exception e -> Alcotest.failf "ctx_of_sexp raised %s on %S" (Printexc.to_string e) m
  done;
  (* round-trip sanity: contexts, spans, and a Traced frame through the
     full Wire codec *)
  List.iter
    (fun c ->
      if Obs_codec.ctx_of_sexp (Obs_codec.ctx_to_sexp c) <> c then
        Alcotest.fail "ctx round-trip changed the context")
    ctx_corpus;
  List.iter
    (fun s ->
      if Obs_codec.span_of_string (Obs_codec.span_to_string s) <> s then
        Alcotest.failf "span round-trip changed %s" s.Obs.Trace.s_name)
    span_corpus;
  List.iter
    (fun c ->
      let w = Wire.Traced { ctx = c; msg = Wire.Ack { req = 1 } } in
      if Wire.trace_of (Wire.decode (Wire.encode w)) <> Some c then
        Alcotest.fail "Traced frame round-trip lost the context")
    ctx_corpus

let test_agent_drops_malformed () =
  let v = Scenarios.build_vpn () in
  let agent = List.assoc "A" v.Scenarios.agents in
  let before = Agent.malformed_drops agent in
  Agent.handle agent ~src:"id-NM" (Bytes.of_string "((((");
  Agent.handle agent ~src:"id-NM" (Bytes.of_string "(bundle not-an-int)");
  Agent.handle agent ~src:"id-NM" (Bytes.of_string "");
  check tint "three malformed frames counted, none raised" (before + 3)
    (Agent.malformed_drops agent);
  (* the agent still works afterwards *)
  check tbool "agent still answers" true (Agent.modules agent <> [])

(* --- HA failure detection under overload ----------------------------------- *)

let tick_ns = 500_000_000L

let build_pair ?fault_seed () =
  let d = Scenarios.build_diamond ?fault_seed () in
  let net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  let standby =
    Nm.create ~transport:d.Scenarios.dtransport ~chan:d.Scenarios.dchan ~net
      ~my_id:Scenarios.standby_station_id ()
  in
  let p, s = Ha.pair ~primary:d.Scenarios.dnm ~standby () in
  (d, net, p, s)

let step net p s tick =
  ignore
    (Netsim.Net.run_until net
       ~deadline:(Int64.add (Netsim.Event_queue.now (Netsim.Net.eq net)) tick_ns));
  Ha.tick p ~tick;
  Ha.tick s ~tick

let storm_burst d n =
  for i = 1 to 800 do
    Mgmt.Channel.send d.Scenarios.dchan ~cls:3 ~src:Scenarios.nm_station_id
      ~dst:(List.nth d.Scenarios.dscope (i mod List.length d.Scenarios.dscope))
      (perf (900_000_000 + (n * 1000) + i))
  done

let test_no_spurious_failover_under_storm () =
  let d, net, p, s = build_pair ~fault_seed:21 () in
  (match Nm.achieve (Ha.nm p) d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve: %s" e);
  Mgmt.Admission.reset_counters d.Scenarios.dadmission;
  for t = 0 to 5 do
    storm_burst d t;
    step net p s t
  done;
  check tint "no promotion while heartbeats ride P0" 0 (Ha.promotions s);
  check tbool "heartbeats kept flowing through the storm" true (Ha.heartbeats_seen s > 0);
  let c = Mgmt.Admission.counters d.Scenarios.dadmission in
  check tbool "the storm was shed" true (c.(3).Mgmt.Admission.shed > 0);
  check tint "no P0 frame shed" 0 (c.(0).Mgmt.Admission.shed + c.(0).Mgmt.Admission.expired);
  check tint "no P1 frame shed" 0 (c.(1).Mgmt.Admission.shed + c.(1).Mgmt.Admission.expired);
  check tbool "network still converged" true (Scenarios.diamond_reachable d)

let test_real_crash_detected_under_storm () =
  let d, net, p, s = build_pair ~fault_seed:22 () in
  (match Nm.achieve (Ha.nm p) d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve: %s" e);
  for t = 0 to 2 do
    storm_burst d t;
    step net p s t
  done;
  (* the primary really dies mid-storm; detection must not be any slower
     than the storm-free bound of the failover tests *)
  Mgmt.Faults.crash d.Scenarios.dfaults Scenarios.nm_station_id;
  Ha.set_alive p false;
  let crash_tick = 3 in
  let promoted = ref None in
  (try
     for t = crash_tick to crash_tick + 8 do
       storm_burst d t;
       step net p s t;
       if !promoted = None && Ha.role s = Ha.Primary then begin
         promoted := Some t;
         raise Exit
       end
     done
   with Exit -> ());
  (match !promoted with
  | None -> Alcotest.fail "standby never promoted under the storm"
  | Some t -> check tbool "detected within the failure-detector bound" true (t - crash_tick <= 4));
  let c = Mgmt.Admission.counters d.Scenarios.dadmission in
  check tint "no P0 frame shed during detection" 0
    (c.(0).Mgmt.Admission.shed + c.(0).Mgmt.Admission.expired)

(* --- telemetry shed-feedback backoff --------------------------------------- *)

let test_telemetry_backoff () =
  let d = Scenarios.build_diamond () in
  let base = 250_000_000L in
  let tel = Telemetry.create ~period_ns:base ~scope:[] d.Scenarios.dnm in
  let shed = ref 0 in
  Telemetry.set_shed_probe tel (fun () -> !shed);
  Telemetry.maybe_scrape tel;
  check tbool "period at base while quiet" true (Telemetry.period_ns tel = base);
  (* sheds keep growing: the period doubles each look, capped at 8x *)
  for _ = 1 to 6 do
    shed := !shed + 10;
    Telemetry.maybe_scrape tel
  done;
  check tbool "period backed off to the cap" true
    (Telemetry.period_ns tel = Int64.mul base 8L);
  check tint "three doublings to reach 8x" 3 (Telemetry.backoffs tel);
  (* sheds stop: the period halves back down to base, never below *)
  for _ = 1 to 6 do
    Telemetry.maybe_scrape tel
  done;
  check tbool "period decayed back to base" true (Telemetry.period_ns tel = base)

let () =
  Alcotest.run "overload"
    [
      ( "classify",
        [ Alcotest.test_case "wire messages map to the right class" `Quick test_wire_priorities ]
      );
      ( "admission",
        [
          Alcotest.test_case "P0/P1 bypass a jammed channel" `Quick test_p0_bypasses_exhaustion;
          Alcotest.test_case "the stated class, not the payload" `Quick
            test_stated_class_not_parsed;
          Alcotest.test_case "lowest priority is shed first" `Quick
            test_shed_lowest_priority_first;
          Alcotest.test_case "refill drains probes before telemetry" `Quick
            test_refill_drains_p2_before_p3;
          Alcotest.test_case "stale telemetry expires" `Quick test_p3_deadline_expiry;
          Alcotest.test_case "budgets are per peer, backlog is shared" `Quick
            test_per_peer_buckets;
        ] );
      ( "reliable",
        [ Alcotest.test_case "pending buffers are bounded" `Quick test_reliable_pending_cap ] );
      ( "convey",
        [
          Alcotest.test_case "a 100-router chain keeps its LSP" `Quick
            test_long_chain_keeps_its_lsp;
          Alcotest.test_case "100 chain goals, flat virtual time" `Quick
            test_chain_goal_time_flat;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "Wire.decode never raises undeclared" `Quick test_fuzz_wire_decode;
          Alcotest.test_case "Frame.decode never raises undeclared" `Quick
            test_fuzz_frame_decode;
          Alcotest.test_case "Schedule.of_string never raises undeclared" `Quick
            test_fuzz_schedule_decode;
          Alcotest.test_case "Peer_msg.of_sexp never raises undeclared" `Quick
            test_fuzz_peer_msg_decode;
          Alcotest.test_case "trace ctx/span codecs never raise undeclared" `Quick
            test_fuzz_obs_codec;
          Alcotest.test_case "agents drop malformed frames" `Quick test_agent_drops_malformed;
        ] );
      ( "ha-under-storm",
        [
          Alcotest.test_case "no spurious failover" `Quick test_no_spurious_failover_under_storm;
          Alcotest.test_case "real crash still detected" `Quick
            test_real_crash_detected_under_storm;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "scrape period backs off on sheds" `Quick test_telemetry_backoff ]
      );
    ]
