(* The reconciliation loop (§V applied continuously): a periodic task that
   compares what each intent asked for with what the network actually does,
   and repairs the difference.

   Each tick advances the simulation one interval (with Net.run_until, so
   scheduled data-plane faults fire where they were scheduled instead of
   being fast-forwarded through), then walks the live intents:

     probe_end_to_end  — is the data plane carrying traffic edge to edge?
     drift check       — does show_actual still contain the structural
                         state snapshotted when the intent was last
                         healthy (pipes, switch rules, tunnels)? Only
                         devices whose state tag from this tick's
                         telemetry scrape differs from their baseline's
                         are read, in one round.
     repair            — drift with a healthy path is resynced by
                         re-sending the script (idempotent); a dead path
                         is re-achieved over the next-best path, avoiding
                         the devices the telemetry localizer's verdict
                         names and backing the stale script out first.

   Repairs are bounded: after [max_repair_attempts] consecutive failures
   the intent is escalated to the NM's error report and left for an
   operator (a later healthy probe, or a manual reconfigure, revives it).
   The monitor drives the NM from outside the event loop like every other
   NM helper — [run ~ticks] is the experiment driver. *)

type config = {
  interval_ns : int64; (* virtual time between reconciliation ticks *)
  probe_slack_ns : int64; (* extra horizon for probes/repairs within a tick *)
  max_repair_attempts : int;
}

let default_config =
  { interval_ns = 500_000_000L; probe_slack_ns = 100_000_000L; max_repair_attempts = 4 }

type event = { ev_time : int64; ev_intent : int; ev_what : string }

type t = {
  nm : Nm.t;
  cfg : config;
  telemetry : Telemetry.t option;
  mutable tick_rounds : int option;
      (* inside a tick with telemetry: the scrape rounds done before it
         began, so the state tags of later rounds are this tick's *)
  mutable ticks : int;
  mutable repairs : int;
  mutable resyncs : int;
  mutable escalations : int;
  (* Bounded drop-oldest event ring (mirrors Netsim.Trace.set_limit): long
     chaos soaks must not grow memory without bound. *)
  events : event Queue.t;
  mutable event_limit : int;
  mutable dropped_events : int;
}

let default_event_limit = 10_000

let create ?(config = default_config) ?telemetry nm =
  {
    nm;
    cfg = config;
    telemetry;
    tick_rounds = None;
    ticks = 0;
    repairs = 0;
    resyncs = 0;
    escalations = 0;
    events = Queue.create ();
    event_limit = default_event_limit;
    dropped_events = 0;
  }

let set_event_limit t n = t.event_limit <- max 1 n
let event_limit t = t.event_limit
let dropped_events t = t.dropped_events

let log t (intent : Intent.t) what =
  let now = Netsim.Event_queue.now (Netsim.Net.eq (Nm.net t.nm)) in
  Queue.push { ev_time = now; ev_intent = intent.Intent.id; ev_what = what } t.events;
  while Queue.length t.events > t.event_limit do
    ignore (Queue.pop t.events);
    t.dropped_events <- t.dropped_events + 1
  done

(* --- health checks ------------------------------------------------------------ *)

let probe t (intent : Intent.t) =
  match intent.Intent.script with
  | Some s when s.Script_gen.path.Path_finder.visits <> [] ->
      Nm.probe_end_to_end t.nm s.Script_gen.path
  | _ -> (true, "no end-to-end probe for this intent")

(* The structural part of a show_actual report: state keys, qualified by
   module. Values are excluded (they carry traffic counters), as are
   pending[..] entries (transient negotiation state). *)
let structural_keys state =
  List.concat_map
    (fun ((m : Ids.t), kvs) ->
      let owner = Ids.qualified m ^ "/" in
      List.filter_map
        (fun (k, _) ->
          if String.length k >= 8 && String.sub k 0 8 = "pending[" then None
          else Some (owner ^ k))
        kvs)
    state
  |> List.sort_uniq compare

(* Re-baselines the drift check: records, per device the script touches,
   the structural keys present now and the state's tag, read in one round.
   Called when the intent (re)converges. *)
let snapshot t (intent : Intent.t) =
  Intent.clear_baseline intent;
  match intent.Intent.script with
  | None -> ()
  | Some s ->
      let devs =
        List.filter_map
          (fun (dev, prims) -> if prims = [] then None else Some dev)
          s.Script_gen.per_device
      in
      let replies = Nm.show_actual_round t.nm (List.map (fun dev -> (dev, None)) devs) in
      let read =
        List.filter_map
          (fun (dev, reply) ->
            match reply with
            | Some (Some state) -> Some (dev, structural_keys state, Wire.state_tag state)
            | Some None | None -> None)
          (List.combine devs replies)
      in
      intent.Intent.expected <- List.map (fun (dev, keys, _) -> (dev, keys)) read;
      intent.Intent.tags <- List.map (fun (dev, _, tag) -> (dev, tag)) read

(* Devices whose show_actual lost structural keys the baseline had. Extra
   keys are fine (other intents add state); missing ones are drift. A
   device whose tag from this tick's scrape is its baseline tag still has
   the keys of a state already found free of drift, and is not read. The
   others are read in one round, each conditional on its tag: "unchanged"
   means the same. A full reply is checked against the keys, and if it
   shows no drift its tag becomes the device's. *)
let drift t (intent : Intent.t) =
  (* no tag: "" matches no state, so the device answers in full *)
  let baseline dev = Option.value ~default:"" (List.assoc_opt dev intent.Intent.tags) in
  let scraped dev =
    match (t.telemetry, t.tick_rounds) with
    | Some tel, Some since -> Telemetry.tag tel ~since dev
    | _ -> None
  in
  let unread =
    List.filter (fun (dev, _) -> scraped dev <> Some (baseline dev)) intent.Intent.expected
  in
  let replies =
    Nm.show_actual_round t.nm (List.map (fun (dev, _) -> (dev, Some (baseline dev))) unread)
  in
  List.filter_map
    (fun ((dev, keys), reply) ->
      match reply with
      | None -> None (* no answer is unreachability, not drift *)
      | Some None -> None (* the keys of a state already found free of drift *)
      | Some (Some state) ->
          let present = structural_keys state in
          let missing = List.filter (fun k -> not (List.mem k present)) keys in
          if missing = [] then begin
            intent.Intent.tags <-
              (dev, Wire.state_tag state) :: List.remove_assoc dev intent.Intent.tags;
            None
          end
          else Some (dev, missing))
    (List.combine unread replies)

(* --- repair ------------------------------------------------------------------- *)

let mark_healthy t (intent : Intent.t) =
  intent.Intent.status <- Intent.Active;
  intent.Intent.repair_attempts <- 0;
  intent.Intent.tried <- [];
  if intent.Intent.expected = [] then snapshot t intent

(* The devices a reroute steers around on the localizer's verdict: both
   ends of a cut or lossy segment, a silent agent, or the device of a
   misconfigured module. The goal's end devices are never avoided: every
   candidate path visits them. *)
let avoid (goal : Path_finder.goal) verdict =
  let ends = [ goal.Path_finder.g_from.Ids.dev; goal.Path_finder.g_to.Ids.dev ] in
  (match verdict with
  | Diagnose.Cut_link s | Diagnose.Lossy_segment s -> [ s.Diagnose.s_from; s.Diagnose.s_to ]
  | Diagnose.Unreachable_agent dev | Diagnose.Misconfigured_module { dev; _ } -> [ dev ])
  |> List.filter (fun d -> not (List.mem d ends))

let verdict_avoid (intent : Intent.t) verdict =
  match intent.Intent.spec with Intent.Connect goal -> avoid goal verdict | _ -> []

let attempt_repair t (intent : Intent.t) ~avoid detail =
  if intent.Intent.repair_attempts >= t.cfg.max_repair_attempts then begin
    if intent.Intent.status <> Intent.Failed then begin
      t.escalations <- t.escalations + 1;
      Nm.escalate t.nm intent
        (Printf.sprintf "unrepairable after %d attempts: %s" intent.Intent.repair_attempts detail);
      log t intent "escalated: repair attempts exhausted"
    end
  end
  else begin
    intent.Intent.repair_attempts <- intent.Intent.repair_attempts + 1;
    intent.Intent.status <- Intent.Degraded;
    let current =
      match intent.Intent.script with
      | Some s when s.Script_gen.path.Path_finder.visits <> [] ->
          [ Path_finder.signature s.Script_gen.path ]
      | _ -> []
    in
    let exclude = List.sort_uniq compare (current @ intent.Intent.tried) in
    intent.Intent.tried <- exclude;
    let result =
      match Nm.reconfigure ~exclude ~avoid t.nm intent with
      | Ok () -> Ok ()
      | Error _ when avoid <> [] ->
          (* diagnosis over-pruned (no candidate avoids those devices):
             fall back to signature exclusion alone *)
          Nm.reconfigure ~exclude t.nm intent
      | Error _ as e -> e
    in
    let current_sig () =
      match intent.Intent.script with
      | Some s when s.Script_gen.path.Path_finder.visits <> [] ->
          Some (Path_finder.signature s.Script_gen.path)
      | _ -> None
    in
    match result with
    | Error e -> log t intent ("repair attempt failed: " ^ e)
    | Ok () ->
        let ok, _ = probe t intent in
        if ok then begin
          intent.Intent.repairs <- intent.Intent.repairs + 1;
          t.repairs <- t.repairs + 1;
          (* the reroute's bind cleared the baseline: this re-reads it *)
          mark_healthy t intent;
          log t intent
            (Printf.sprintf "repaired over alternate path [%s]"
               (Option.value ~default:"?" (current_sig ())))
        end
        else begin
          (match current_sig () with
          | Some s -> intent.Intent.tried <- List.sort_uniq compare (s :: intent.Intent.tried)
          | None -> ());
          log t intent
            (Printf.sprintf "repair attempt did not restore connectivity [%s]"
               (Option.value ~default:"?" (current_sig ())))
        end
  end

(* With telemetry attached, scrape the failed path's devices right after
   the probe — so the probe's own frames are the freshest delta in the
   store — and ask the localizer where on the path the traffic died.
   Returns the top-ranked diagnosis, if any. *)
let diagnose_failure t (intent : Intent.t) =
  match (t.telemetry, intent.Intent.script) with
  | Some tel, Some s when s.Script_gen.path.Path_finder.visits <> [] -> (
      Telemetry.scrape_path tel s.Script_gen.path;
      match Telemetry.diagnose_path tel s.Script_gen.path with d :: _ -> Some d | [] -> None)
  | _ -> None

let reconcile t (intent : Intent.t) =
  match intent.Intent.status with
  | Intent.Retired -> ()
  | Intent.Failed ->
      if intent.Intent.script <> None then begin
        (* escalated with a bound script: a healthy probe revives it *)
        let ok, _ = probe t intent in
        if ok then begin
          mark_healthy t intent;
          log t intent "recovered without intervention"
        end
      end
      else begin
        (* escalated after its script was backed out (every reroute failed
           while the network was down): retry the achieve each tick so the
           intent self-revives once a path exists again, instead of waiting
           for an operator *)
        match Nm.reconfigure t.nm intent with
        | Ok () ->
            let ok, _ = probe t intent in
            if ok then begin
              mark_healthy t intent;
              log t intent "recovered: reconfigured after escalation"
            end
        | Error _ -> ()
      end
  | Intent.Pending -> (
      (* journalled but never realised (NM died mid-achieve, or no path at
         the time): keep trying to configure it *)
      match Nm.reconfigure t.nm intent with
      | Ok () ->
          let ok, _ = probe t intent in
          if ok then begin
            mark_healthy t intent;
            log t intent "configured from journal"
          end
      | Error e -> log t intent ("configuration failed: " ^ e))
  | Intent.Active
    when (match intent.Intent.spec with Intent.Address _ | Intent.Rate _ -> true | _ -> false) ->
      (* a realised address or rate has nothing to probe, and re-sending it
         would only write the device again; a recovered device's Hello
         re-sends it *)
      ()
  | Intent.Active | Intent.Degraded -> (
      if intent.Intent.script = None then (
        match Nm.reconfigure t.nm intent with
        | Ok () ->
            let ok, _ = probe t intent in
            if ok then begin
              mark_healthy t intent;
              log t intent "reconfigured"
            end
        | Error e -> log t intent ("reconfiguration failed: " ^ e))
      else
        let ok, detail = probe t intent in
        if ok then
          match drift t intent with
          | [] -> mark_healthy t intent
          | drifted ->
              t.resyncs <- t.resyncs + 1;
              Nm.resync_intent t.nm intent;
              (* resync may legitimately change negotiated state (labels,
                 vlan tags): re-baseline the drift check *)
              snapshot t intent;
              log t intent
                (Printf.sprintf "drift on %s: resynced"
                   (String.concat ", " (List.map fst drifted)))
        else begin
          intent.Intent.probe_failures <- intent.Intent.probe_failures + 1;
          match diagnose_failure t intent with
          | Some { Diagnose.verdict = (Cut_link _ | Lossy_segment _ | Unreachable_agent _) as v; _ }
            ->
              (* the path itself is the problem: resyncing state onto it
                 cannot help, skip straight to re-achieving around it *)
              log t intent (Fmt.str "diagnosed %a: rerouting" Diagnose.pp_verdict v);
              attempt_repair t intent ~avoid:(verdict_avoid intent v) detail
          | Some { Diagnose.verdict = Misconfigured_module { dev; _ } as v; _ } ->
              (* one module's state drifted: re-sending the script is the
                 cheapest repair, reroute only if that fails *)
              log t intent (Fmt.str "diagnosed %a: resyncing %s" Diagnose.pp_verdict v dev);
              t.resyncs <- t.resyncs + 1;
              Nm.resync_intent t.nm intent;
              Intent.clear_baseline intent;
              let ok2, detail2 = probe t intent in
              if ok2 then begin
                snapshot t intent;
                mark_healthy t intent;
                log t intent "resync restored connectivity"
              end
              else attempt_repair t intent ~avoid:(verdict_avoid intent v) detail2
          | None -> (
              match drift t intent with
              | _ :: _ as drifted ->
                  (* state went missing on a live path: resync before rerouting *)
                  t.resyncs <- t.resyncs + 1;
                  Nm.resync_intent t.nm intent;
                  Intent.clear_baseline intent;
                  log t intent
                    (Printf.sprintf "drift on %s: resynced"
                       (String.concat ", " (List.map fst drifted)));
                  let ok2, detail2 = probe t intent in
                  if ok2 then mark_healthy t intent else attempt_repair t intent ~avoid:[] detail2
              | [] -> attempt_repair t intent ~avoid:[] detail)
        end)

(* --- driving ------------------------------------------------------------------ *)

let tick t =
  t.ticks <- t.ticks + 1;
  let net = Nm.net t.nm in
  let deadline = Int64.add (Netsim.Event_queue.now (Netsim.Net.eq net)) t.cfg.interval_ns in
  ignore (Netsim.Net.run_until net ~deadline);
  (* probes and repairs run inside a bounded horizon so later scheduled
     faults stay in the future *)
  Nm.set_horizon t.nm (Some (Int64.add deadline t.cfg.probe_slack_ns));
  t.tick_rounds <- Option.map Telemetry.rounds t.telemetry;
  Fun.protect
    ~finally:(fun () ->
      Nm.set_horizon t.nm None;
      t.tick_rounds <- None)
    (fun () ->
      (* re-issue requests the reliable transport abandoned (give-up during
         a drop burst or partition) — without this, a lost back-out deletion
         is never re-sent and stale state leaks on the device *)
      Nm.flush_inflight t.nm;
      (* keep the telemetry store's baselines warm so a post-failure
         scrape yields a clean delta *)
      Option.iter Telemetry.maybe_scrape t.telemetry;
      List.iter (reconcile t) (Nm.intents t.nm))

let run t ~ticks =
  for _ = 1 to ticks do
    tick t
  done

(* --- observation -------------------------------------------------------------- *)

let repairs t = t.repairs
let resyncs t = t.resyncs
let escalations t = t.escalations
let events t = List.rev (Queue.fold (fun acc e -> e :: acc) [] t.events)

let pp_event ppf e =
  Fmt.pf ppf "[%8.3fs] intent-%d %s"
    (Int64.to_float e.ev_time /. 1e9)
    e.ev_intent e.ev_what

let pp_health ppf t =
  Fmt.pf ppf "intent     kind        status    repairs  attempts  probe-failures@.";
  List.iter
    (fun (i : Intent.t) ->
      Fmt.pf ppf "intent-%-3d %-11s %-9s %7d %9d %15d%a@." i.Intent.id (Intent.kind i)
        (Intent.status_to_string i.Intent.status)
        i.Intent.repairs i.Intent.repair_attempts i.Intent.probe_failures
        Fmt.(option (fun ppf e -> pf ppf "  (%s)" e))
        i.Intent.last_error)
    (Nm.intents t.nm);
  Fmt.pf ppf "ticks=%d repairs=%d resyncs=%d escalations=%d@." t.ticks t.repairs t.resyncs
    t.escalations
