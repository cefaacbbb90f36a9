(* The wall-clock goal benchmark.

   One operator drives one long-lived NM in a closed loop: the next goal
   (or reconciliation tick) starts only when the previous one returned,
   the way the NM is driven from outside its event loop. One process, one
   thread, one workload per process.

     main.exe timed  --workload W --seed S --seconds T
     main.exe traced --workload W --seed S --seconds T --spans FILE
     main.exe optima

   [timed] measures the end-to-end metrics and the per-layer counts with
   no tracing. [traced] rebuilds each op from the public calls it is made
   of, records a wall-clock span around each, and reports per-layer self
   times. [optima] prints the path the exhaustive enumerator plus chooser
   picks on each topology (the constants below). Each mode prints
   human-readable lines and, as its last line, one flat JSON object of
   metrics; perfbench/run.py builds this program, runs the modes in fresh
   processes and prints the benchmark's result. The seed only reaches the
   libraries as generated inputs: goal trade-offs, the fault seed and the
   link-flap schedule. *)

open Conman
module Prng = Mgmt.Faults.Prng

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* --- workloads ---------------------------------------------------------------- *)

type workload = Vpn_churn | Chain_plan | Diamond_heal

let workload_of_string = function
  | "vpn_churn" -> Vpn_churn
  | "chain_plan" -> Chain_plan
  | "diamond_heal" -> Diamond_heal
  | w -> failwith ("unknown workload " ^ w)

let workload_name = function
  | Vpn_churn -> "vpn_churn"
  | Chain_plan -> "chain_plan"
  | Diamond_heal -> "diamond_heal"

(* Table-VI chain length for [chain_plan]: 2^n + 1 sane candidates. *)
let chain_n = 11

(* The chooser's optimum on each topology, as the exhaustive enumerator
   plus [Path_finder.choose] pick it (print with [main.exe optima]). Every
   goal must land on it: a faster search has to keep the same answer. *)
let vpn_optimum = "a, g, o, b, c, p, d, e, q, k, f"

let chain_optimum =
  "a, g, o, b, c2, p2, d2, c3, p3, d3, c4, p4, d4, c5, p5, d5, c6, p6, d6, c7, p7, d7, c8, p8, d8, \
   c9, p9, d9, c10, p10, d10, e, q, k, f"

let diamond_optimum = "a, g, o, b1, c1, p1, d1, e1, q, k, f"

(* Operations the determinism check replays: the counters of this prefix
   must repeat exactly in a second world built from the same seed. *)
let det_prefix = function Vpn_churn -> 100 | Chain_plan -> 2 | Diamond_heal -> 200

(* --- seeded inputs --------------------------------------------------------------- *)

let tradeoff_sets =
  [| []; [ "in-order-delivery" ]; [ "low-error-rate" ]; [ "in-order-delivery"; "low-error-rate" ] |]

type inputs = { next_tradeoffs : unit -> string list; fault_seed : int; flap_rng : Prng.t }

let inputs seed =
  let root = Prng.create seed in
  let sub () = Int64.to_int (Prng.next_u64 root) land 0x3fff_ffff in
  let t = Prng.create (sub ()) in
  let fault_seed = sub () in
  let flap_rng = Prng.create (sub ()) in
  {
    next_tradeoffs = (fun () -> tradeoff_sets.(Prng.below t (Array.length tradeoff_sets)));
    fault_seed;
    flap_rng;
  }

(* --- worlds ---------------------------------------------------------------------- *)

type world = {
  nm : Nm.t;
  net : Netsim.Net.t;
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t;
  transport : Mgmt.Reliable.t;
  admission : Mgmt.Admission.t;
  goal : Path_finder.goal;
  scope : string list;
  reachable : unit -> bool;
  optimum : string;
}

let vnow net = Netsim.Event_queue.now (Netsim.Net.eq net)

let build_world ?fault_seed = function
  | Vpn_churn ->
      let v = Scenarios.build_vpn ?fault_seed () in
      {
        nm = v.Scenarios.nm;
        net = v.Scenarios.tb.Netsim.Testbeds.vpn_net;
        chan = v.Scenarios.chan;
        faults = v.Scenarios.faults;
        transport = v.Scenarios.transport;
        admission = v.Scenarios.admission;
        goal = v.Scenarios.goal;
        scope = v.Scenarios.scope;
        reachable = (fun () -> Scenarios.vpn_reachable v);
        optimum = vpn_optimum;
      }
  | Chain_plan ->
      let c = Scenarios.build_chain ?fault_seed chain_n in
      {
        nm = c.Scenarios.cnm;
        net = c.Scenarios.ctb.Netsim.Testbeds.chain_net;
        chan = c.Scenarios.cchan;
        faults = c.Scenarios.cfaults;
        transport = c.Scenarios.ctransport;
        admission = c.Scenarios.cadmission;
        goal = c.Scenarios.cgoal;
        scope = c.Scenarios.cscope;
        reachable = (fun () -> Scenarios.chain_reachable c);
        optimum = chain_optimum;
      }
  | Diamond_heal ->
      let d = Scenarios.build_diamond ?fault_seed () in
      {
        nm = d.Scenarios.dnm;
        net = d.Scenarios.dtb.Netsim.Testbeds.dia_net;
        chan = d.Scenarios.dchan;
        faults = d.Scenarios.dfaults;
        transport = d.Scenarios.dtransport;
        admission = d.Scenarios.dadmission;
        goal = d.Scenarios.dgoal;
        scope = d.Scenarios.dscope;
        reachable = (fun () -> Scenarios.diamond_reachable d);
        optimum = diamond_optimum;
      }

(* --- diamond_heal: seeded core-link flaps under a lossy channel ---------------------- *)

let drop_rate = 0.1

(* Flaps are generated one at a time as virtual time advances: each cuts a
   link of the core the live intent currently crosses (alternating between
   its A-side and C-side link), inside the coming tick, for 1.5-3.5 s; the
   next waits 1-3 s after the restore. So every cut forces a reroute and
   both cores are never down at once. *)
type flaps = {
  rng : Prng.t;
  mutable next_at : int64;
  mutable last_restore : int64;
  mutable cuts : int64 list; (* newest first *)
  mutable count : int;
}

let ms n = Int64.mul (Int64.of_int n) 1_000_000L

let live_intent nm =
  List.find_opt (fun (i : Intent.t) -> i.Intent.status <> Intent.Retired) (Nm.intents nm)

let current_path nm =
  match live_intent nm with
  | Some { Intent.script = Some s; _ } when s.Script_gen.path.Path_finder.visits <> [] ->
      Some s.Script_gen.path
  | _ -> None

let crosses dev (p : Path_finder.path) =
  List.exists (fun v -> v.Path_finder.v_mod.Ids.dev = dev) p.Path_finder.visits

let schedule_flap w f =
  let now = vnow w.net in
  if now >= f.next_at then
    match current_path w.nm with
    | None -> ()
    | Some path ->
        let core = if crosses "id-B1" path then "B1" else "B2" in
        let name = if f.count mod 2 = 0 then "A--" ^ core else core ^ "--C" in
        let seg = Netsim.Net.find_segment_exn w.net name in
        let offset = ms (Prng.below f.rng 500) in
        let down = ms (1500 + Prng.below f.rng 2000) in
        let gap = ms (1000 + Prng.below f.rng 2000) in
        Netsim.Link.schedule_cut seg ~delay_ns:offset;
        Netsim.Link.schedule_restore seg ~delay_ns:(Int64.add offset down);
        f.cuts <- Int64.add now offset :: f.cuts;
        f.last_restore <- Int64.add now (Int64.add offset down);
        f.next_at <- Int64.add f.last_restore gap;
        f.count <- f.count + 1

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

type heal = {
  mon : Monitor.t;
  tel : Telemetry.t;
  flaps : flaps;
  repair_mon : Monitor.t;
      (* reconciles only (zero interval): the traced tick hands it every
         intent that is not healthy *)
}

let monitor_sum f h = f h.mon + f h.repair_mon

(* Virtual time from each cut to the next "repaired" event either monitor
   logged, over the cuts the retained event logs still cover. *)
let repair_latencies_ms h =
  let logs = [ h.mon; h.repair_mon ] in
  let repaired =
    List.concat_map Monitor.events logs
    |> List.filter_map (fun (e : Monitor.event) ->
           if contains e.Monitor.ev_what "repaired" then Some e.Monitor.ev_time else None)
    |> List.sort compare
  in
  let covered_from =
    List.fold_left
      (fun acc m ->
        match Monitor.events m with
        | e :: _ when Monitor.dropped_events m > 0 -> max acc e.Monitor.ev_time
        | _ -> acc)
      Int64.min_int logs
  in
  List.filter_map
    (fun cut ->
      if cut < covered_from then None
      else
        List.find_opt (fun r -> r >= cut) repaired
        |> Option.map (fun r -> Int64.to_float (Int64.sub r cut) /. 1e6))
    (List.rev h.flaps.cuts)

let start_heal w inp =
  let tel = Telemetry.create ~scope:w.scope w.nm in
  let mon = Monitor.create ~telemetry:tel w.nm in
  let repair_mon =
    Monitor.create ~config:{ Monitor.default_config with Monitor.interval_ns = 0L } ~telemetry:tel w.nm
  in
  Mgmt.Faults.set_drop w.faults drop_rate;
  {
    mon;
    tel;
    flaps = { rng = inp.flap_rng; next_at = 0L; last_restore = 0L; cuts = []; count = 0 };
    repair_mon;
  }

(* --- set-up ------------------------------------------------------------------------ *)

(* Builds the testbed, attaches agents, discovers with Hello, harvests
   showPotential and loads domain knowledge; on diamond_heal also achieves
   the one intent the monitor keeps alive. Request ids are pinned so two
   worlds from one seed exchange byte-identical frames. *)
let setup workload inp =
  Nm.set_incarnations 0;
  let t0 = now_ns () in
  let w = build_world ~fault_seed:inp.fault_seed workload in
  let heal =
    match workload with
    | Diamond_heal -> (
        match Nm.achieve w.nm w.goal with
        | Ok _ -> Some (start_heal w inp)
        | Error e -> failwith ("diamond_heal set-up: achieve: " ^ e))
    | Vpn_churn | Chain_plan -> None
  in
  let t1 = now_ns () in
  (w, heal, Int64.to_float (Int64.sub t1 t0) /. 1e9)

(* --- ops --------------------------------------------------------------------------- *)

type outcome = { ok : bool; candidates : int; prims : int; violation : string option }

(* One goal lifecycle through [Nm.achieve]: achieve, bidirectional ping,
   teardown. *)
let goal_op w tradeoffs =
  let goal = { w.goal with Path_finder.g_tradeoffs = tradeoffs } in
  match Nm.achieve w.nm goal with
  | Error e -> { ok = false; candidates = 0; prims = 0; violation = Some ("achieve: " ^ e) }
  | Ok (paths, path, script) ->
      let reached = w.reachable () in
      Nm.teardown w.nm script;
      let sg = Path_finder.signature path in
      let violation =
        if not reached then Some "bidirectional ping check failed"
        else if sg <> w.optimum then Some ("chose a non-optimal path [" ^ sg ^ "]")
        else if Nm.inflight_count w.nm <> 0 then Some "requests still in flight after teardown"
        else None
      in
      { ok = reached; candidates = List.length paths; prims = List.length script.Script_gen.prims; violation }

(* One reconciliation tick; it fails if the monitor escalates in it. *)
let tick_op h =
  let before = Monitor.escalations h.mon in
  Monitor.tick h.mon;
  let ok = Monitor.escalations h.mon = before in
  { ok; candidates = 0; prims = 0; violation = (if ok then None else Some "monitor escalated") }

(* --- end-of-world checks and the audit goal ------------------------------------------------ *)

(* Structural state keys (as the monitor's drift check reads them: values
   carry traffic counters and are ignored, as are transient negotiation
   entries). *)
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

(* Lets the flap schedule run out with the loop still ticking, so the
   monitor repairs the last cut before the end-of-world checks. *)
let settle w h =
  let deadline = Int64.add h.flaps.last_restore (ms 2000) in
  let ticks = ref 0 in
  while vnow w.net < deadline && !ticks < 40 do
    Monitor.tick h.mon;
    incr ticks
  done;
  Monitor.run h.mon ~ticks:2

(* The span hook: [span name f] runs [f]; the traced mode records it. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

(* Minor words allocated by the path searches run below, and their count. *)
let find_words = ref 0.
let finds = ref 0

let find_paths sp w goal =
  let m0 = Gc.minor_words () in
  let paths = sp.span "path_finder.find" (fun () -> Nm.find_paths w.nm goal) in
  find_words := !find_words +. (Gc.minor_words () -. m0);
  incr finds;
  paths

(* One more goal at the end of a world, rebuilt from the public calls
   [achieve] is made of, plus the NM's read side: an end-to-end probe, a
   showPerf scrape and a showActual of every device. Checks that the NM's
   probe agrees with ping, that every device answers the scrape and that
   teardown leaves each device's structural state as it found it. *)
let audit sp w =
  let issues = ref [] in
  let note s = issues := s :: !issues in
  let snapshot () =
    List.map
      (fun dev ->
        (dev, Option.map structural_keys (sp.span "nm.show_actual" (fun () -> Nm.show_actual w.nm dev))))
      w.scope
  in
  let before = snapshot () in
  let topo = Nm.topology w.nm in
  let paths = find_paths sp w w.goal in
  (match sp.span "path_finder.choose" (fun () -> Path_finder.choose topo paths) with
  | None -> note "audit: no path for the goal"
  | Some path ->
      let script = sp.span "script_gen.generate" (fun () -> Script_gen.generate topo w.goal path) in
      sp.span "nm.configure" (fun () ->
          Nm.run_script w.nm script;
          Nm.run w.nm);
      if not (sp.span "dataplane.verify" w.reachable) then note "audit: ping check failed";
      let probed, detail = sp.span "nm.probe" (fun () -> Nm.probe_end_to_end w.nm path) in
      if not probed then note ("audit: end-to-end probe failed: " ^ detail);
      let tel = Telemetry.create ~scope:w.scope w.nm in
      sp.span "telemetry.scrape" (fun () -> Telemetry.scrape tel);
      List.iter
        (fun dev ->
          if Diagnose.is_silent (Telemetry.store tel) dev then note ("audit: no showPerf from " ^ dev))
        w.scope;
      sp.span "nm.teardown" (fun () -> Nm.teardown w.nm script);
      if Nm.inflight_count w.nm <> 0 then note "audit: requests still in flight after teardown";
      List.iter2
        (fun (dev, b) (_, a) ->
          if a <> b then note ("audit: teardown left structural state behind on " ^ dev))
        before (snapshot ()));
  List.rev !issues

(* End-of-world correctness on diamond_heal: the last cut is repaired, the
   network is reachable and reliable delivery never gave up. The goal is
   then torn down and the channel made lossless, so the audit starts from
   a clean network. *)
let heal_checks w h =
  settle w h;
  let issues = ref [] in
  let note s = issues := s :: !issues in
  (match live_intent w.nm with
  | Some i when i.Intent.status = Intent.Active -> ()
  | _ -> note "diamond_heal: the intent did not end active");
  if not (w.reachable ()) then note "diamond_heal: not reachable at the end";
  let gave_up = (Mgmt.Reliable.counters w.transport).Mgmt.Reliable.gave_up in
  if gave_up <> 0 then note (Printf.sprintf "diamond_heal: reliable delivery gave up %d times" gave_up);
  if monitor_sum Monitor.repairs h = 0 then note "diamond_heal: no cut was repaired";
  Mgmt.Faults.clear w.faults;
  (match live_intent w.nm with Some { Intent.script = Some s; _ } -> Nm.teardown w.nm s | _ -> ());
  List.rev !issues

(* --- sessions: the worlds one run drives ------------------------------------------------- *)

(* vpn_churn and diamond_heal run in episodes of this many ops, each on a
   fresh deployment, and a run finishes the episode it is in when its
   time is up. Per-goal latency grows with the goals an NM has served, so
   whole episodes keep that ramp the same from run to run; and the NM
   keeps every showActual and showPerf reply, so one world ticking for a
   whole run would grow the heap without bound. *)
let episode_ops = function Vpn_churn -> Some 2000 | Diamond_heal -> Some 1600 | Chain_plan -> None

type totals = {
  mutable retransmits : int;
  mutable duplicates : int;
  mutable held_back : int;
  mutable gap_skips : int;
  mutable gave_up : int;
  mutable shed : int;
  mutable repairs : int;
  mutable resyncs : int;
  mutable escalations : int;
  mutable repair_lat : float list;
  mutable issues : string list; (* newest first *)
  mutable worlds : int;
}

type session = {
  workload : workload;
  inp : inputs;
  mutable w : world;
  mutable heal : heal option;
  mutable world_ops : int;
  tot : totals;
}

let session workload inp (w, heal, _) =
  {
    workload;
    inp;
    w;
    heal;
    world_ops = 0;
    tot =
      {
        retransmits = 0;
        duplicates = 0;
        held_back = 0;
        gap_skips = 0;
        gave_up = 0;
        shed = 0;
        repairs = 0;
        resyncs = 0;
        escalations = 0;
        repair_lat = [];
        issues = [];
        worlds = 0;
      };
  }

(* Runs the end-of-world checks and folds the world's layer counters into
   the session's totals. *)
let close_world sp s =
  let t = s.tot in
  let heal_issues =
    match s.heal with
    | Some h ->
        let issues = heal_checks s.w h in
        t.repair_lat <- t.repair_lat @ repair_latencies_ms h;
        t.repairs <- t.repairs + monitor_sum Monitor.repairs h;
        t.resyncs <- t.resyncs + monitor_sum Monitor.resyncs h;
        t.escalations <- t.escalations + monitor_sum Monitor.escalations h;
        issues
    | None -> []
  in
  let issues = heal_issues @ audit sp s.w in
  t.issues <- List.rev_append issues t.issues;
  let rel = Mgmt.Reliable.counters s.w.transport in
  t.retransmits <- t.retransmits + rel.Mgmt.Reliable.retransmits;
  t.duplicates <- t.duplicates + rel.Mgmt.Reliable.duplicates;
  t.held_back <- t.held_back + rel.Mgmt.Reliable.held_back;
  t.gap_skips <- t.gap_skips + rel.Mgmt.Reliable.gap_skips;
  t.gave_up <- t.gave_up + rel.Mgmt.Reliable.gave_up;
  t.shed <-
    Array.fold_left (fun acc c -> acc + c.Mgmt.Admission.shed) t.shed (Mgmt.Admission.counters s.w.admission);
  t.worlds <- t.worlds + 1

(* Starts the next episode once the current one is over. *)
let next_world_if_due sp s =
  match episode_ops s.workload with
  | Some len when s.world_ops >= len ->
      close_world sp s;
      let w, heal, _ = setup s.workload s.inp in
      s.w <- w;
      s.heal <- heal;
      s.world_ops <- 0
  | _ -> ()

(* Runs until the deadline, then to the end of the current episode. *)
let keep_going s ~deadline_ns =
  now_ns () < deadline_ns
  || match episode_ops s.workload with Some len -> s.world_ops > 0 && s.world_ops < len | None -> false

(* --- statistics -------------------------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile, up to p99, that leaves at least ten samples
   beyond it: (percentile, value, samples beyond). *)
let tail a =
  let a = sorted a in
  let n = Array.length a in
  let at p =
    let idx = max 0 (min (n - 1) (int_of_float (Float.ceil (float p /. 100. *. float n)) - 1)) in
    (p, a.(idx), n - 1 - idx)
  in
  let rec go p =
    if p <= 50 then at 50 else match at p with (_, _, beyond) as r when beyond >= 10 -> r | _ -> go (p - 1)
  in
  if n = 0 then (0, 0., 0) else go 99

(* --- host speed ------------------------------------------------------------------------- *)

(* The host's speed drifts by up to 2x over tens of seconds (a fixed
   pure-OCaml kernel took 42-77 ms within one 40 s window on a shared
   2-vCPU VM), and a whole run can sit inside a slow period. So the loop
   times a fixed reference kernel between ops, outside op time, and each
   wall-clock figure is scaled by the kernel's median time in the same two
   seconds of the run, relative to [nominal_kernel_ms]: it reads as it
   would on the host at nominal speed. The report lines also print the raw
   figures. The kernel uses no repository code. It builds and sorts a
   fixed 3000-element list, which allocates like the ops do but stays
   well inside an emptied minor heap, so no collection runs inside it and
   the heap the program keeps cannot move it. *)
let kernel_ms () =
  Gc.minor ();
  let t0 = now_ns () in
  let l = List.init 3000 (fun i -> (i * 7919 mod 10_007, i)) in
  ignore (Sys.opaque_identity (List.sort compare l));
  ms_between t0 (now_ns ())

let nominal_kernel_ms = 0.6
let kernel_period_ns = 50_000_000L
let bucket_ns = 2_000_000_000L

type pace = { mutable samples : (int64 * float) list; (* (start, ms), newest first *) mutable last : int64 }

let pace_sample p =
  let t0 = now_ns () in
  if Int64.sub t0 p.last >= kernel_period_ns then begin
    p.samples <- (t0, kernel_ms ()) :: p.samples;
    p.last <- now_ns ()
  end

(* [slowdown p ~start t]: the kernel's median time in [t]'s bucket over
   the nominal time (the nearest sampled bucket when [t]'s has none). *)
let slowdown p ~start =
  let bucket t = max 0 (Int64.to_int (Int64.div (Int64.sub t start) bucket_ns)) in
  let nb = List.fold_left (fun acc (t, _) -> max acc (bucket t + 1)) 1 p.samples in
  let by = Array.make nb [] in
  List.iter (fun (t, ms) -> by.(bucket t) <- ms :: by.(bucket t)) p.samples;
  let f = Array.map (function [] -> None | l -> Some (median (Array.of_list l) /. nominal_kernel_ms)) by in
  let nearest b =
    let rec go d =
      if d > nb then 1.
      else
        match ((if b - d >= 0 then f.(b - d) else None), if b + d < nb then f.(b + d) else None) with
        | Some x, _ | None, Some x -> x
        | None, None -> go (d + 1)
    in
    match f.(b) with Some x -> x | None -> go 1
  in
  fun t -> nearest (min (nb - 1) (bucket t))

(* --- the closed loop ------------------------------------------------------------------ *)

type prefix = {
  mutable p_msgs : int;
  mutable p_events : int;
  mutable p_candidates : int;
  mutable p_prims : int;
  mutable p_minor : float;
}

type run = {
  lat_ms : float array;
  starts : int64 array; (* when each op started *)
  start_ns : int64;
  pace : pace;
  failed : int;
  elapsed_s : float;
  msgs : int;
  events : int;
  frames : int;
  virtual_ms : float;
  minor_words : float;
  candidates : int;
  prims : int;
  majors : int;
  prefix : prefix;
  violations : string list;
}

let msgs_of w = Nm.stats_sent w.nm + Nm.stats_received w.nm
let events_of w = Netsim.Event_queue.processed (Netsim.Net.eq w.net)
let frames_of w = (Mgmt.Channel.stats w.chan).Mgmt.Channel.frames_sent

(* Runs ops back to back until [deadline_ns] and the end of the episode
   (or [max_ops]). [sample = (f, period_ns)] calls [f] between ops every
   [period_ns] once the first [det] ops are done (the set-up samples);
   the reference kernel is timed between ops too. Time spent between
   episodes or sampling is not run time. The first [det] ops also
   accumulate the determinism fingerprint. *)
let drive ?(max_ops = max_int) ?sample ~deadline_ns ~det s =
  let lats = ref [] and n = ref 0 and failed = ref 0 and violations = ref [] in
  let msgs = ref 0 and events = ref 0 and frames = ref 0 and vns = ref 0L in
  let minor = ref 0. and candidates = ref 0 and prims = ref 0 and paused = ref 0L in
  let prefix = { p_msgs = 0; p_events = 0; p_candidates = 0; p_prims = 0; p_minor = 0. } in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = now_ns () in
  let next_sample = ref start and starts = ref [] in
  let pace = { samples = []; last = 0L } in
  while !n < max_ops && keep_going s ~deadline_ns do
    let p0 = now_ns () in
    next_world_if_due untraced s;
    pace_sample pace;
    (match sample with
    | Some (f, period_ns) when !n >= det && p0 >= !next_sample ->
        f ();
        next_sample := Int64.add p0 period_ns
    | _ -> ());
    paused := Int64.add !paused (Int64.sub (now_ns ()) p0);
    let w = s.w in
    let op =
      match s.heal with
      | Some h ->
          schedule_flap w h.flaps;
          fun () -> tick_op h
      | None ->
          let tradeoffs = s.inp.next_tradeoffs () in
          fun () -> goal_op w tradeoffs
    in
    let m0 = msgs_of w and e0 = events_of w and f0 = frames_of w and v0 = vnow w.net in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = op () in
    let t1 = now_ns () in
    let dw = Gc.minor_words () -. w0 in
    let dm = msgs_of w - m0 and de = events_of w - e0 in
    lats := ms_between t0 t1 :: !lats;
    starts := t0 :: !starts;
    msgs := !msgs + dm;
    events := !events + de;
    frames := !frames + (frames_of w - f0);
    vns := Int64.add !vns (Int64.sub (vnow w.net) v0);
    minor := !minor +. dw;
    candidates := !candidates + r.candidates;
    prims := !prims + r.prims;
    if not r.ok then incr failed;
    (match r.violation with
    | Some v when List.length !violations < 5 ->
        violations := Printf.sprintf "op %d: %s" !n v :: !violations
    | _ -> ());
    if !n < det then begin
      prefix.p_msgs <- prefix.p_msgs + dm;
      prefix.p_events <- prefix.p_events + de;
      prefix.p_candidates <- prefix.p_candidates + r.candidates;
      prefix.p_prims <- prefix.p_prims + r.prims;
      prefix.p_minor <- prefix.p_minor +. dw
    end;
    s.world_ops <- s.world_ops + 1;
    incr n
  done;
  let stop = now_ns () in
  {
    lat_ms = Array.of_list (List.rev !lats);
    starts = Array.of_list (List.rev !starts);
    start_ns = start;
    pace;
    failed = !failed;
    elapsed_s = Int64.to_float (Int64.sub (Int64.sub stop start) !paused) /. 1e9;
    msgs = !msgs;
    events = !events;
    frames = !frames;
    virtual_ms = Int64.to_float !vns /. 1e6;
    minor_words = !minor;
    candidates = !candidates;
    prims = !prims;
    majors = (Gc.quick_stat ()).Gc.major_collections - majors0;
    prefix;
    violations = List.rev !violations;
  }

(* --- output ------------------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit metrics =
  List.iter (fun (k, v) -> Printf.printf "  %-34s %s\n" k (json_num v)) metrics;
  print_endline
    ("{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v)) metrics)
    ^ "}")

let fingerprint p =
  Printf.sprintf "msgs=%d events=%d candidates=%d prims=%d minor_words=%.0f" p.p_msgs p.p_events
    p.p_candidates p.p_prims p.p_minor

(* --- timed mode -------------------------------------------------------------------------- *)

(* setup_s is the median over throwaway worlds: this many built before
   the run, and about [setup_samples] more spread through it, so the
   samples see the machine's speed over the whole run. *)
let setups_before = 5
let setup_samples = 60

let timed workload ~seed ~seconds =
  let setup_times = ref [] in
  let sample_setup () =
    let at = now_ns () in
    let _, _, t = setup workload (inputs seed) in
    setup_times := (at, t) :: !setup_times
  in
  for _ = 1 to setups_before do
    sample_setup ()
  done;
  let inp = inputs seed in
  let s = session workload inp (setup workload inp) in
  let deadline_ns = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let det = det_prefix workload in
  let period_ns = Int64.of_float (seconds *. 1e9 /. float setup_samples) in
  let r = drive ~sample:(sample_setup, period_ns) ~deadline_ns ~det s in
  let peak_heap_mb =
    float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.
  in
  let nops = Array.length r.lat_ms in
  let per_op x = float x /. float (max 1 nops) in
  let intents = List.length (Nm.intents s.w.nm) in
  let journal = List.length (Intent.entries (Nm.journal s.w.nm)) in
  close_world untraced s;
  let t = s.tot in
  (* candidates per path search: the goal ops' own; on diamond_heal (whose
     ticks search only to repair) the goal's *)
  let candidates =
    match s.heal with
    | Some _ -> float (List.length (Nm.find_paths s.w.nm s.w.goal))
    | None -> per_op r.candidates
  in
  (* determinism: a second world from the same seed replays the prefix *)
  let replay = session workload (inputs seed) (setup workload (inputs seed)) in
  let r2 = drive ~max_ops:det ~deadline_ns:Int64.max_int ~det replay in
  let det_ok = nops < det || r.prefix = r2.prefix in
  (* wall-clock figures at nominal host speed; the raw ones are printed *)
  let slow = slowdown r.pace ~start:r.start_ns in
  let lat = Array.mapi (fun i l -> l /. slow r.starts.(i)) r.lat_ms in
  let sum = Array.fold_left ( +. ) 0. in
  let elapsed_s = r.elapsed_s *. sum lat /. sum r.lat_ms in
  let setups = Array.of_list !setup_times in
  let pct, tail_ms, beyond = tail lat in
  let _, raw_tail_ms, _ = tail r.lat_ms in
  let violations = r.violations @ List.rev t.issues in
  let correct = r.failed = 0 && violations = [] && det_ok && nops > 0 in
  Printf.printf "workload %s seed %d: %d ops in %.3f s over %d world(s), %d failed\n"
    (workload_name workload) seed nops r.elapsed_s t.worlds r.failed;
  Printf.printf "op_tail_ms is p%d, with %d of %d samples beyond it\n" pct beyond nops;
  Printf.printf
    "host slowdown %.3f (median reference kernel %.3f ms, nominal %.3f ms); raw: %.3f ops/s, \
     op_p50_ms %.4f, op_tail_ms %.4f, setup_s %.6f\n"
    (median (Array.map slow r.starts))
    (median (Array.of_list (List.map snd r.pace.samples)))
    nominal_kernel_ms (float nops /. r.elapsed_s) (median r.lat_ms) raw_tail_ms
    (median (Array.map snd setups));
  let q = nops / 4 in
  Printf.printf "op p50 per quarter of the run (ms):%s\n"
    (String.concat ""
       (List.init 4 (fun i -> Printf.sprintf " %.3f" (median (Array.sub r.lat_ms (i * q) q)))));
  let sorted_lat = sorted r.lat_ms in
  Printf.printf "op latency deciles (ms):%s\n"
    (String.concat ""
       (List.init 9 (fun i -> Printf.sprintf " %.3f" sorted_lat.((i + 1) * nops / 10))));
  Printf.printf "determinism over the first %d ops: %s\n" (min det nops) (fingerprint r.prefix);
  if not det_ok then
    Printf.printf "FAILURE: determinism: a second world from the same seed gave %s\n"
      (fingerprint r2.prefix);
  List.iter (fun v -> Printf.printf "FAILURE: %s\n" v) violations;
  emit
    [
      ("correct", if correct then 1. else 0.);
      ("attempted", float nops);
      ("failed", float r.failed);
      ("ops_per_s", float nops /. elapsed_s);
      ("op_p50_ms", median lat);
      ("op_tail_ms", tail_ms);
      ("op_tail_pct", float pct);
      ("op_tail_beyond", float beyond);
      ("fail_ratio", per_op r.failed);
      ("mgmt_msgs_per_op", per_op r.msgs);
      ("setup_s", median (Array.map (fun (at, t) -> t /. slow at) setups));
      ("peak_heap_mb", peak_heap_mb);
      ("repair_virtual_ms", median (Array.of_list t.repair_lat));
      ("path_finder.candidates", candidates);
      ("script_gen.prims", per_op r.prims);
      ("nm.intents", float intents);
      ("nm.journal_entries", float journal);
      ("netsim.events_per_op", per_op r.events);
      ("netsim.virtual_ms_per_op", r.virtual_ms /. float (max 1 nops));
      ("mgmt.frames_per_op", per_op r.frames);
      ("mgmt.reliable.retransmits", float t.retransmits);
      ("mgmt.reliable.duplicates", float t.duplicates);
      ("mgmt.reliable.held_back", float t.held_back);
      ("mgmt.reliable.gap_skips", float t.gap_skips);
      ("mgmt.reliable.gave_up", float t.gave_up);
      ("mgmt.admission.shed", float t.shed);
      ("monitor.repairs", float t.repairs);
      ("monitor.resyncs", float t.resyncs);
      ("monitor.escalations", float t.escalations);
      ("gc.minor_kwords_per_op", r.minor_words /. 1000. /. float (max 1 nops));
      ("gc.major_collections", float r.majors);
    ]

(* --- traced mode -------------------------------------------------------------------------- *)

type span = {
  sid : int;
  parent : int;
  op : int;
  name : string;
  start_ns : int64;
  mutable stop_ns : int64;
}

type tracer = {
  mutable spans : span list; (* newest first *)
  mutable next : int;
  mutable stack : int list;
  mutable on : bool;
  mutable cur_op : int;
}

let spanner tr =
  {
    span =
      (fun name f ->
        if not tr.on then f ()
        else begin
          let parent = match tr.stack with p :: _ -> p | [] -> -1 in
          let s = { sid = tr.next; parent; op = tr.cur_op; name; start_ns = now_ns (); stop_ns = 0L } in
          tr.next <- tr.next + 1;
          tr.stack <- s.sid :: tr.stack;
          Fun.protect
            ~finally:(fun () ->
              s.stop_ns <- now_ns ();
              tr.stack <- List.tl tr.stack;
              tr.spans <- s :: tr.spans)
            f
        end);
  }

let duration s = Int64.sub s.stop_ns s.start_ns

(* Self time per span name — the span's duration minus the part its
   children cover: name -> (calls, total self ms). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (Int64.add (Option.value ~default:0L (Hashtbl.find_opt children s.parent)) (duration s)))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = Int64.sub (duration s) (Option.value ~default:0L (Hashtbl.find_opt children s.sid)) in
      let calls, total = Option.value ~default:(0, 0.) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (calls + 1, total +. (Int64.to_float self /. 1e6)))
    spans;
  acc

let write_spans file spans =
  let oc = open_out file in
  output_string oc "sid\tparent\top\tname\tstart_ns\tstop_ns\n";
  List.iter
    (fun s -> Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.sid s.parent s.op s.name s.start_ns s.stop_ns)
    (List.rev spans);
  close_out oc

(* The frames one goal exchanges: its bundles and their acks, for the
   script and its deletion script. *)
let goal_frames w (script : Script_gen.script) =
  let annex =
    { Wire.domains = (Nm.topology w.nm).Topology.domain_prefixes; reporter = script.Script_gen.reporter }
  in
  List.concat_map
    (fun (s : Script_gen.script) ->
      List.concat_map
        (fun (_, cmds) -> [ Wire.Bundle { req = 1; cmds; annex }; Wire.Bundle_ack { req = 1 } ])
        s.Script_gen.per_device)
    [ script; Script_gen.deletion_script script ]

(* Encode plus decode of a list of frames. *)
let codec_ms frames =
  let t0 = now_ns () in
  List.iter (fun m -> ignore (Wire.decode (Wire.encode m))) frames;
  ms_between t0 (now_ns ())

(* One goal lifecycle rebuilt from the public calls [Nm.achieve] is made
   of (without the intent journal, which has no public entry point).
   Returns the outcome and the frames it exchanged. *)
let traced_goal_op sp w tradeoffs =
  let goal = { w.goal with Path_finder.g_tradeoffs = tradeoffs } in
  let topo = Nm.topology w.nm in
  let paths = find_paths sp w goal in
  match sp.span "path_finder.choose" (fun () -> Path_finder.choose topo paths) with
  | None -> (false, [])
  | Some path ->
      let script = sp.span "script_gen.generate" (fun () -> Script_gen.generate topo goal path) in
      sp.span "nm.configure" (fun () ->
          Nm.run_script w.nm script;
          Nm.run w.nm);
      let ok = sp.span "dataplane.verify" w.reachable in
      sp.span "nm.teardown" (fun () -> Nm.teardown w.nm script);
      (ok, goal_frames w script)

(* One reconciliation tick rebuilt from public calls, as [Monitor.tick]
   runs it on a healthy intent: advance one interval, flush, keep the
   telemetry warm, probe end to end and check for drift with showActual.
   Anything but a healthy, drift-free intent is handed to the
   reconcile-only monitor. Returns the outcome and the probe and
   showActual frames the tick exchanged. *)
let traced_tick_op sp w h =
  let cfg = Monitor.default_config in
  let deadline = Int64.add (vnow w.net) cfg.Monitor.interval_ns in
  sp.span "netsim.advance" (fun () -> ignore (Netsim.Net.run_until w.net ~deadline));
  Nm.set_horizon w.nm (Some (Int64.add deadline cfg.Monitor.probe_slack_ns));
  let frames = ref [] in
  Fun.protect
    ~finally:(fun () -> Nm.set_horizon w.nm None)
    (fun () ->
      sp.span "nm.flush" (fun () -> Nm.flush_inflight w.nm);
      sp.span "telemetry.scrape" (fun () -> Telemetry.maybe_scrape h.tel);
      let healthy =
        match live_intent w.nm with
        | Some ({ Intent.status = Intent.Active; script = Some s; expected = _ :: _; _ } as i)
          when s.Script_gen.path.Path_finder.visits <> [] ->
            let path = s.Script_gen.path in
            let probed, detail = sp.span "nm.probe" (fun () -> Nm.probe_end_to_end w.nm path) in
            let target = w.goal.Path_finder.g_from in
            frames :=
              [
                Wire.Self_test_req { req = 1; target; against = Some w.goal.Path_finder.g_to };
                Wire.Self_test_resp { req = 1; target; ok = probed; detail };
              ];
            probed
            && List.for_all
                 (fun (dev, keys) ->
                   match sp.span "nm.show_actual" (fun () -> Nm.show_actual w.nm dev) with
                   | None -> true
                   | Some state ->
                       frames :=
                         Wire.Show_actual_req { req = 1 } :: Wire.Show_actual_resp { req = 1; state }
                         :: !frames;
                       let present = structural_keys state in
                       List.for_all (fun k -> List.mem k present) keys)
                 i.Intent.expected
        | _ -> false
      in
      let before = Monitor.escalations h.repair_mon in
      if not healthy then sp.span "monitor.repair" (fun () -> Monitor.tick h.repair_mon);
      (Monitor.escalations h.repair_mon = before, !frames))

(* Path search cost against chain length: one goal each at n = 8, 10, 12. *)
let size_curve sp =
  List.map
    (fun n ->
      Nm.set_incarnations 0;
      let c = Scenarios.build_chain n in
      let topo = Nm.topology c.Scenarios.cnm in
      let t0 = now_ns () in
      let paths =
        sp.span (Printf.sprintf "size.n%d.find" n) (fun () -> Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal)
      in
      let t1 = now_ns () in
      ignore (sp.span (Printf.sprintf "size.n%d.choose" n) (fun () -> Path_finder.choose topo paths));
      let t2 = now_ns () in
      (n, ms_between t0 t1, ms_between t1 t2, List.length paths))
    [ 8; 10; 12 ]

let traced workload ~seed ~seconds ~spans_file =
  let inp = inputs seed in
  let s = session workload inp (setup workload inp) in
  let tr = { spans = []; next = 0; stack = []; on = true; cur_op = -1 } in
  let sp = spanner tr in
  let deadline_ns = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let codec = ref 0. in
  (* ops alternate between recording spans and not, so the two rates
     compare the same op on the same state *)
  let on_ms = ref 0. and on_ops = ref 0 and off_ms = ref 0. and off_ops = ref 0 in
  let n = ref 0 and failed = ref 0 in
  while keep_going s ~deadline_ns do
    tr.on <- true;
    tr.cur_op <- -1;
    next_world_if_due sp s;
    tr.on <- !n mod 2 = 0;
    tr.cur_op <- !n;
    let w = s.w in
    let t0 = now_ns () in
    let ok, frames =
      match s.heal with
      | Some h ->
          schedule_flap w h.flaps;
          sp.span "op" (fun () -> traced_tick_op sp w h)
      | None ->
          let tradeoffs = inp.next_tradeoffs () in
          sp.span "op" (fun () -> traced_goal_op sp w tradeoffs)
    in
    let dt = ms_between t0 (now_ns ()) in
    if tr.on then begin
      on_ms := !on_ms +. dt;
      incr on_ops;
      codec := !codec +. sp.span "wire.codec" (fun () -> codec_ms frames)
    end
    else begin
      off_ms := !off_ms +. dt;
      incr off_ops
    end;
    if not ok then incr failed;
    s.world_ops <- s.world_ops + 1;
    incr n
  done;
  tr.on <- true;
  tr.cur_op <- -1;
  close_world sp s;
  let issues = List.rev s.tot.issues in
  let curve = size_curve sp in
  let per_s ops total_ms = if total_ms > 0. then float ops /. (total_ms /. 1000.) else 0. in
  let traced_rate = per_s !on_ops !on_ms and untraced_rate = per_s !off_ops !off_ms in
  let overhead = if untraced_rate > 0. then 100. *. (1. -. (traced_rate /. untraced_rate)) else 0. in
  let selfs = self_times tr.spans in
  let per_call name =
    match Hashtbl.find_opt selfs name with Some (c, t) when c > 0 -> t /. float c | _ -> 0.
  in
  write_spans spans_file tr.spans;
  Printf.printf "traced %d ops (%d with spans, %d without), %d failed; %d spans written to %s\n" !n
    !on_ops !off_ops !failed (List.length tr.spans) spans_file;
  Printf.printf "tracing overhead: %.1f ops/s traced vs %.1f untraced (%.2f%%)\n" traced_rate
    untraced_rate overhead;
  Printf.printf "self time per call:\n";
  Hashtbl.fold (fun k (c, t) acc -> (k, c, t) :: acc) selfs []
  |> List.sort compare
  |> List.iter (fun (k, c, t) -> Printf.printf "  %-28s %8d calls %12.4f ms/call\n" k c (t /. float c));
  List.iter (fun v -> Printf.printf "FAILURE: %s\n" v) issues;
  emit
    ([
       ("correct", if issues = [] && !failed = 0 then 1. else 0.);
       ("path_finder.find_ms", per_call "path_finder.find");
       ("path_finder.choose_ms", per_call "path_finder.choose");
       ("path_finder.find_kwords", !find_words /. 1000. /. float (max 1 !finds));
       ("script_gen.generate_ms", per_call "script_gen.generate");
       ("nm.configure_ms", per_call "nm.configure");
       ("nm.teardown_ms", per_call "nm.teardown");
       ("dataplane.verify_ms", per_call "dataplane.verify");
       ("telemetry.scrape_ms", per_call "telemetry.scrape");
       ("nm.show_actual_ms", per_call "nm.show_actual");
       ("nm.probe_ms", per_call "nm.probe");
       ("wire.codec_us_per_op", !codec *. 1000. /. float (max 1 !on_ops));
       ("trace.overhead_pct", overhead);
     ]
    @ List.concat_map
        (fun (n, find_ms, choose_ms, cands) ->
          [
            (Printf.sprintf "path_finder.find_ms.n%d" n, find_ms);
            (Printf.sprintf "path_finder.choose_ms.n%d" n, choose_ms);
            (Printf.sprintf "path_finder.candidates.n%d" n, float cands);
          ])
        curve)

(* --- optima ------------------------------------------------------------------------------ *)

let optima () =
  List.iter
    (fun workload ->
      let w = build_world workload in
      Array.iter
        (fun tradeoffs ->
          let goal = { w.goal with Path_finder.g_tradeoffs = tradeoffs } in
          let paths = Nm.find_paths w.nm goal in
          match Path_finder.choose (Nm.topology w.nm) paths with
          | Some p ->
              Printf.printf "%s [%s]: %d candidates, optimum %s\n" (workload_name workload)
                (String.concat "+" tradeoffs) (List.length paths) (Path_finder.signature p)
          | None -> Printf.printf "%s: no path\n" (workload_name workload))
        tradeoff_sets)
    [ Vpn_churn; Chain_plan; Diamond_heal ]

(* --- command line ------------------------------------------------------------------------ *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and spans = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "vpn_churn | chain_plan | diamond_heal");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured wall-clock seconds");
      ("--spans", Arg.Set_string spans, "where the traced mode writes its spans");
    ]
  in
  let usage = "main.exe (timed|traced|optima) [options]" in
  Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  match mode with
  | "timed" -> timed (workload_of_string !workload) ~seed:!seed ~seconds:!seconds
  | "traced" when !spans <> "" ->
      traced (workload_of_string !workload) ~seed:!seed ~seconds:!seconds ~spans_file:!spans
  | "optima" -> optima ()
  | _ ->
      prerr_endline usage;
      exit 2
