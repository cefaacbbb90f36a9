(* Tests for the fault-diagnosis & telemetry subsystem: Counters delta
   semantics, the bounded Trace ring, the showPerf scrape (including over a
   lossy management channel), the counter-based root-cause localizer, and
   the Monitor picking its first repair rung from the diagnosis. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Counters delta semantics -------------------------------------------------- *)

let test_counters_delta () =
  let c = Netsim.Counters.create () in
  let k = Netsim.Counters.key in
  Netsim.Counters.incr c (k "rx");
  Netsim.Counters.add c (k "tx") 4;
  let before = Netsim.Counters.snapshot c in
  Netsim.Counters.add c (k "rx") 2;
  Netsim.Counters.incr c (k "drop:mtu");
  let after = Netsim.Counters.snapshot c in
  let d = Netsim.Counters.delta ~before ~after in
  check tint "changed counter reports its difference" 2 (List.assoc "rx" d);
  check tint "flat counter reports zero" 0 (List.assoc "tx" d);
  check tint "counter absent from the baseline counts from zero" 1 (List.assoc "drop:mtu" d);
  Netsim.Counters.reset c;
  Netsim.Counters.incr c (k "rx");
  let d2 = Netsim.Counters.delta ~before:after ~after:(Netsim.Counters.snapshot c) in
  check tint "a reset counter clamps to zero, not negative" 0 (List.assoc "rx" d2)

(* --- bounded trace ring --------------------------------------------------------- *)

let test_trace_cap () =
  let saved = Netsim.Trace.get_limit () in
  Fun.protect
    ~finally:(fun () ->
      Netsim.Trace.set_limit saved;
      Netsim.Trace.clear ())
    (fun () ->
      Netsim.Trace.clear ();
      Netsim.Trace.set_limit 10;
      Netsim.Trace.enabled := true;
      for i = 1 to 25 do
        Netsim.Trace.emit ~device:"dev" ~what:(string_of_int i) Bytes.empty
      done;
      Netsim.Trace.enabled := false;
      let events = Netsim.Trace.get () in
      check tint "buffer capped at the limit" 10 (List.length events);
      check tint "oldest events were the ones dropped" 15 (Netsim.Trace.dropped ());
      (match events with
      | first :: _ ->
          check tbool "survivors are the newest events" true (first.Netsim.Trace.what = "16")
      | [] -> Alcotest.fail "empty trace");
      Netsim.Trace.clear ();
      check tint "clear resets the dropped count" 0 (Netsim.Trace.dropped ()))

(* --- the showPerf scrape -------------------------------------------------------- *)

let configured_vpn ?(pick = Scenarios.pure_gre) () =
  let v = Scenarios.build_vpn () in
  let paths = Nm.find_paths v.Scenarios.nm v.Scenarios.goal in
  let path = List.find pick paths in
  let _ = Nm.configure_path v.Scenarios.nm v.Scenarios.goal path in
  (v, path)

let pump v =
  for _ = 1 to 4 do
    ignore (Scenarios.vpn_reachable v)
  done

let test_show_perf_truthful () =
  let v, _ = configured_vpn () in
  pump v;
  match Nm.show_perf v.Scenarios.nm "id-A" with
  | None -> Alcotest.fail "no showPerf answer from id-A"
  | Some reports ->
      (* every advertised perf_reporting counter of the ETH module shows up
         on its pipes, and traffic actually moved them *)
      let eth =
        match List.find_opt (fun ((m : Ids.t), _) -> m.Ids.name = "ETH") reports with
        | Some (_, pipes) -> pipes
        | None -> Alcotest.fail "ETH module missing from the perf report"
      in
      check tbool "ETH reports at least one pipe" true (eth <> []);
      List.iter
        (fun (_, counters) ->
          List.iter
            (fun name ->
              check tbool (name ^ " present on every ETH pipe") true
                (List.mem_assoc name counters))
            [ "up_frames"; "up_bytes"; "down_frames"; "down_bytes" ])
        eth;
      let moved =
        List.exists
          (fun (_, counters) ->
            List.assoc "down_frames" counters > 0 && List.assoc "down_bytes" counters > 0)
          eth
      in
      check tbool "data-plane traffic moved the ETH counters" true moved

let test_scrape_over_lossy_channel () =
  let v, _ = configured_vpn () in
  pump v;
  Mgmt.Faults.set_drop v.Scenarios.faults 0.3;
  (* reliable delivery (acks + retries) must still get the scrape through *)
  for _ = 1 to 3 do
    match Nm.show_perf v.Scenarios.nm "id-B" with
    | None -> Alcotest.fail "showPerf lost despite reliable delivery"
    | Some reports -> check tbool "transit device reports modules" true (reports <> [])
  done

(* --- root-cause localization ---------------------------------------------------- *)

(* Two healthy rounds (baseline + known-good delta), inject, then scrape
   until the localizer speaks — mirroring the NM poller's view. *)
let localize ?(rounds = 4) ~pick ~inject () =
  let v, path = configured_vpn ~pick () in
  let tel = Telemetry.create ~scope:v.Scenarios.scope v.Scenarios.nm in
  for _ = 1 to 2 do
    pump v;
    Telemetry.scrape tel
  done;
  inject v;
  let rec go n =
    pump v;
    Telemetry.scrape tel;
    match Telemetry.diagnose_path tel path with
    | d :: _ as ds -> (v, ds, d)
    | [] -> if n > 1 then go (n - 1) else Alcotest.fail "localizer stayed silent"
  in
  go rounds

let vpn_seg (v : Scenarios.vpn) =
  Netsim.Net.find_segment_exn v.Scenarios.tb.Netsim.Testbeds.vpn_net "A--B"

let test_localize_cut_link () =
  let _, _, top =
    localize ~pick:Scenarios.pure_gre ~inject:(fun v -> Netsim.Link.cut (vpn_seg v)) ()
  in
  (match top.Diagnose.verdict with
  | Diagnose.Cut_link seg ->
      check Alcotest.string "cut segment named" "id-A--id-B" seg.Diagnose.s_name
  | other -> Alcotest.failf "expected a cut link, got %a" Diagnose.pp_verdict other);
  check tbool "high confidence" true (top.Diagnose.confidence >= 0.9)

let test_localize_misconfigured_mpls () =
  let _, _, top =
    localize ~pick:Scenarios.pure_mpls
      ~inject:(fun v ->
        Hashtbl.iter
          (fun _ (ilm : Netsim.Device.ilm) -> ilm.Netsim.Device.ilm_xc <- None)
          v.Scenarios.tb.Netsim.Testbeds.rb.Netsim.Device.mpls.Netsim.Device.ilm_table)
      ()
  in
  match top.Diagnose.verdict with
  | Diagnose.Misconfigured_module { dev; module_id } ->
      check Alcotest.string "blamed device" "id-B" dev;
      check tbool "blamed the MPLS module, not ETH" true (contains_sub module_id ".p");
      check tbool "evidence names the drop cause" true
        (List.exists (fun e -> contains_sub e "drop:no_xc") top.Diagnose.evidence)
  | other -> Alcotest.failf "expected a misconfigured module, got %a" Diagnose.pp_verdict other

let test_localize_lossy_segment () =
  let _, _, top =
    localize ~pick:Scenarios.pure_gre
      ~inject:(fun v ->
        Netsim.Link.set_seed (vpn_seg v) 7L;
        Netsim.Link.set_loss (vpn_seg v) 0.5)
      ()
  in
  match top.Diagnose.verdict with
  | Diagnose.Lossy_segment seg ->
      check Alcotest.string "lossy segment named" "id-A--id-B" seg.Diagnose.s_name
  | other -> Alcotest.failf "expected a lossy segment, got %a" Diagnose.pp_verdict other

let test_localize_unreachable_agent () =
  let _, _, top =
    localize ~pick:Scenarios.pure_gre
      ~inject:(fun v -> Mgmt.Faults.partition v.Scenarios.faults "id-B")
      ()
  in
  match top.Diagnose.verdict with
  | Diagnose.Unreachable_agent dev -> check Alcotest.string "silent device named" "id-B" dev
  | other -> Alcotest.failf "expected an unreachable agent, got %a" Diagnose.pp_verdict other

(* --- the Monitor consults the diagnosis ----------------------------------------- *)

let test_monitor_reroutes_on_diagnosed_cut () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  let chosen =
    match Nm.achieve nm d.Scenarios.dgoal with
    | Ok (_, path, _) ->
        List.find_map
          (fun (v : Path_finder.visit) ->
            let dev = v.Path_finder.v_mod.Ids.dev in
            if dev = "id-B1" || dev = "id-B2" then Some dev else None)
          path.Path_finder.visits
        |> Option.get
    | Error e -> Alcotest.failf "achieve: %s" e
  in
  let seg_name = if chosen = "id-B1" then "A--B1" else "A--B2" in
  let seg = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net seg_name in
  Netsim.Link.flap ~cycles:1 seg ~first_down_ns:1_000_000_000L ~down_ns:3_000_000_000L
    ~up_ns:1_000_000_000L;
  let tel = Telemetry.create ~scope:d.Scenarios.dscope nm in
  let mon = Monitor.create ~telemetry:tel nm in
  Monitor.run mon ~ticks:10;
  let diagnosed =
    List.find_opt
      (fun (e : Monitor.event) -> contains_sub e.Monitor.ev_what "diagnosed")
      (Monitor.events mon)
  in
  (match diagnosed with
  | Some e ->
      check tbool "first diagnosis is the cut" true (contains_sub e.Monitor.ev_what "cut link");
      check tbool "and it picks reroute as the first rung" true
        (contains_sub e.Monitor.ev_what "rerouting")
  | None -> Alcotest.fail "monitor never logged a diagnosis");
  check tint "no resync wasted on a cut path" 0 (Monitor.resyncs mon);
  check tbool "repaired over the other core" true (Monitor.repairs mon >= 1);
  check tbool "reachable after repair" true (Scenarios.diamond_reachable d)

(* A reroute goes on the localizer's verdict: with A--B1 cut under the
   goal, the Monitor moves it onto the B2 core without walking the path
   with self-tests. Every Self_test_req any agent receives is an
   end-to-end probe (IP g on id-A towards IP k on id-C). *)
let test_monitor_reroutes_without_walk () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  (match Nm.achieve nm d.Scenarios.dgoal with
  | Ok (_, path, _) ->
      check tbool "the goal crosses B1" true
        (List.exists
           (fun (v : Path_finder.visit) -> v.Path_finder.v_mod.Ids.dev = "id-B1")
           path.Path_finder.visits)
  | Error e -> Alcotest.failf "achieve: %s" e);
  let self_tests = ref [] in
  let rec unwrap = function Wire.Fenced { msg; _ } | Wire.Traced { msg; _ } -> unwrap msg | m -> m in
  List.iter
    (fun (dev, agent) ->
      Mgmt.Channel.subscribe d.Scenarios.dchan ~device_id:dev (fun ~src payload ->
          Agent.handle agent ~src payload;
          match unwrap (Wire.decode payload) with
          | Wire.Self_test_req { target; against; _ } -> self_tests := (target, against) :: !self_tests
          | _ -> ()
          | exception Sexp.Parse_error _ -> ()))
    d.Scenarios.dagents;
  let seg = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net "A--B1" in
  Netsim.Link.flap ~cycles:1 seg ~first_down_ns:1_000_000_000L ~down_ns:3_000_000_000L
    ~up_ns:1_000_000_000L;
  let mon = Monitor.create ~telemetry:(Telemetry.create ~scope:d.Scenarios.dscope nm) nm in
  Monitor.run mon ~ticks:10;
  check tint "one repair" 1 (Monitor.repairs mon);
  check tbool "diagnosed the cut" true
    (List.exists
       (fun (e : Monitor.event) -> e.Monitor.ev_what = "diagnosed cut link id-A--id-B1: rerouting")
       (Monitor.events mon));
  check tbool "self-tests were sent" true (!self_tests <> []);
  check tbool "each an end-to-end probe" true
    (List.for_all
       (fun (target, against) ->
         Ids.equal target (Ids.v "IP" "g" "id-A") && against = Some (Ids.v "IP" "k" "id-C"))
       !self_tests);
  check tbool "reachable after the repair" true (Scenarios.diamond_reachable d)

(* The devices a reroute avoids, per verdict kind: both ends of a segment,
   a silent agent, a misconfigured module's device; never the goal's end
   devices id-A and id-C. *)
let test_monitor_avoid_per_verdict () =
  let goal = (Scenarios.build_diamond ()).Scenarios.dgoal in
  let seg s_from s_to =
    {
      Diagnose.s_name = s_from ^ "--" ^ s_to;
      s_from;
      s_from_module = s_from ^ ".e";
      s_from_pipe = "P0";
      s_to;
      s_to_module = s_to ^ ".e";
      s_to_pipe = "P1";
    }
  in
  List.iter
    (fun (verdict, expected) ->
      check
        Alcotest.(list string)
        (Fmt.str "%a" Diagnose.pp_verdict verdict)
        expected (Monitor.avoid goal verdict))
    [
      (Diagnose.Cut_link (seg "id-A" "id-B1"), [ "id-B1" ]);
      (Diagnose.Cut_link (seg "id-B2" "id-C"), [ "id-B2" ]);
      (Diagnose.Cut_link (seg "id-B1" "id-B2"), [ "id-B1"; "id-B2" ]);
      (Diagnose.Cut_link (seg "id-A" "id-C"), []);
      (Diagnose.Lossy_segment (seg "id-B1" "id-C"), [ "id-B1" ]);
      (Diagnose.Lossy_segment (seg "id-B2" "id-B1"), [ "id-B2"; "id-B1" ]);
      (Diagnose.Unreachable_agent "id-B2", [ "id-B2" ]);
      (Diagnose.Unreachable_agent "id-A", []);
      (Diagnose.Misconfigured_module { dev = "id-B1"; module_id = "id-B1.p1" }, [ "id-B1" ]);
      (Diagnose.Misconfigured_module { dev = "id-C"; module_id = "id-C.q" }, []);
    ]

let test_monitor_resyncs_on_diagnosed_drift () =
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm in
  let script =
    match Nm.achieve nm v.Scenarios.goal with
    | Ok (_, _, s) -> s
    | Error e -> Alcotest.failf "achieve: %s" e
  in
  let tel = Telemetry.create ~scope:v.Scenarios.scope nm in
  let mon = Monitor.create ~telemetry:tel nm in
  Monitor.run mon ~ticks:2;
  (* an operator wipes a pipe of the transit device behind the NM's back:
     traffic now dies inside id-B, which the localizer reads as a
     misconfigured module — the cheap repair (resync) must come first *)
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
  (match
     List.find_opt
       (fun (e : Monitor.event) -> contains_sub e.Monitor.ev_what "diagnosed")
       (Monitor.events mon)
   with
  | Some e ->
      check tbool "diagnosis blames a module on id-B" true
        (contains_sub e.Monitor.ev_what "misconfigured module"
        && contains_sub e.Monitor.ev_what "id-B");
      check tbool "and picks resync as the first rung, not reroute" true
        (contains_sub e.Monitor.ev_what "resyncing")
  | None -> Alcotest.fail "monitor never logged a diagnosis");
  check tbool "resynced in place" true (Monitor.resyncs mon >= 1);
  check tbool "VPN reachable again" true (Scenarios.vpn_reachable v)

(* --- the ring store against the list store it replaced ------------------------ *)

(* The list-based series store Diagnose kept before its rings: each series
   held its samples as a newest-first list trimmed after every push, and
   its totals as an assoc list rebuilt on each observation. Kept as it
   was, except that [create] takes the window directly, as the reference
   the ring store must agree with. *)
module List_store = struct
  open Diagnose

  type series = {
    s_key : key;
    mutable s_last : (string * int) list option;
    mutable s_samples : sample list;
    mutable s_dropped : int;
    mutable s_total : (string * int) list;
  }

  type t = {
    window : int;
    series : (string, series) Hashtbl.t;
    silent : (string, int) Hashtbl.t;
  }

  let create ~window =
    { window = max 1 window; series = Hashtbl.create 64; silent = Hashtbl.create 8 }

  let flat k = k.device ^ "|" ^ k.module_id ^ "|" ^ k.pipe
  let find_series t k = Hashtbl.find_opt t.series (flat k)

  let keys t =
    Hashtbl.fold (fun _ s acc -> s.s_key :: acc) t.series []
    |> List.sort (fun a b -> compare (flat a) (flat b))

  let observe t ~at_ns ~device ~module_id ~pipe counters =
    let k = { device; module_id; pipe } in
    let s =
      match find_series t k with
      | Some s -> s
      | None ->
          let s = { s_key = k; s_last = None; s_samples = []; s_dropped = 0; s_total = [] } in
          Hashtbl.replace t.series (flat k) s;
          s
    in
    (match s.s_last with
    | None -> ()
    | Some before ->
        let deltas =
          List.map
            (fun (name, v) ->
              let was = match List.assoc_opt name before with Some w -> w | None -> 0 in
              (name, if v >= was then v - was else 0))
            counters
        in
        s.s_samples <- { at_ns; deltas } :: s.s_samples;
        (let rec drop_excess n = function
           | [] -> []
           | _ :: rest when n <= 0 ->
               s.s_dropped <- s.s_dropped + 1;
               drop_excess 0 rest
           | x :: rest -> x :: drop_excess (n - 1) rest
         in
         s.s_samples <- drop_excess t.window s.s_samples);
        s.s_total <-
          List.map
            (fun (name, d) ->
              let so_far = match List.assoc_opt name s.s_total with Some x -> x | None -> 0 in
              (name, so_far + d))
            deltas
          @ List.filter (fun (name, _) -> not (List.mem_assoc name deltas)) s.s_total);
    s.s_last <- Some counters

  let dropped t k = match find_series t k with Some s -> s.s_dropped | None -> 0
  let samples t k = match find_series t k with Some s -> List.rev s.s_samples | None -> []

  let note_unreachable t device =
    let n = match Hashtbl.find_opt t.silent device with Some n -> n | None -> 0 in
    Hashtbl.replace t.silent device (n + 1)

  let note_reachable t device = Hashtbl.remove t.silent device

  let is_silent t device =
    match Hashtbl.find_opt t.silent device with Some n -> n > 0 | None -> false

  let silent_rounds t device = match Hashtbl.find_opt t.silent device with Some n -> n | None -> 0

  let counter_of sample name =
    match List.assoc_opt name sample.deltas with Some v -> v | None -> 0

  let recent ?(n = 3) t k name =
    match find_series t k with
    | None -> 0
    | Some s ->
        List.filteri (fun i _ -> i < n) s.s_samples
        |> List.fold_left (fun acc sm -> acc + counter_of sm name) 0

  let last_delta t k name = recent ~n:1 t k name

  let total t k name =
    match find_series t k with
    | None -> 0
    | Some s -> ( match List.assoc_opt name s.s_total with Some v -> v | None -> 0)

  let ever_active t k name = total t k name > 0

  let anomalies t =
    let out = ref [] in
    Hashtbl.iter (fun d n -> if n > 0 then out := Silent (d, n) :: !out) t.silent;
    Hashtbl.iter
      (fun _ s ->
        let k = s.s_key in
        if s.s_samples <> [] then begin
          List.iter
            (fun c ->
              if ever_active t k c && recent ~n:2 t k c = 0 then out := Stalled (k, c) :: !out)
            [ "up_frames"; "down_frames" ];
          (let up = recent t k "up_frames" and down = recent t k "down_frames" in
           if
             (up > 0 && down = 0 && ever_active t k "down_frames")
             || (down > 0 && up = 0 && ever_active t k "up_frames")
           then out := Asymmetric k :: !out);
          match s.s_samples with
          | latest :: _ ->
              List.iter
                (fun (name, d) ->
                  if d > 0 && String.length name >= 5 && String.sub name 0 5 = "drop:" then
                    out := Rising_drops (k, name, d) :: !out)
                latest.deltas
          | [] -> ()
        end)
      t.series;
    List.rev !out

  let localize t ~hops ~segs =
    let out = ref [] in
    let add verdict confidence evidence = out := { verdict; confidence; evidence } :: !out in
    List.iter
      (fun h ->
        if is_silent t h.h_dev then
          add (Unreachable_agent h.h_dev) 0.95
            [ Fmt.str "%s unanswering for %d scrape round(s)" h.h_dev (silent_rounds t h.h_dev) ])
      hops;
    List.iter
      (fun s ->
        if not (is_silent t s.s_from || is_silent t s.s_to) then begin
          let txk = { device = s.s_from; module_id = s.s_from_module; pipe = s.s_from_pipe } in
          let rxk = { device = s.s_to; module_id = s.s_to_module; pipe = s.s_to_pipe } in
          let tx = last_delta t txk "down_frames" and rx = last_delta t rxk "up_frames" in
          let txw = recent t txk "down_frames" and rxw = recent t rxk "up_frames" in
          if tx > 0 && rx = 0 then
            add (Cut_link s) 0.9
              [
                Fmt.str "%s sent %d frame(s) towards %s, %s received 0 (last scrape)" s.s_from
                  tx s.s_to s.s_to;
              ]
          else if txw > 0 && rxw < txw && txw - rxw >= max 2 (txw / 5) then
            add (Lossy_segment s) 0.7
              [
                Fmt.str "%s sent %d frame(s), %s received only %d over the recent window"
                  s.s_from txw s.s_to rxw;
              ]
        end)
      segs;
    List.iter
      (fun h ->
        if not (is_silent t h.h_dev) then begin
          let seg_in = List.find_opt (fun s -> s.s_to = h.h_dev) segs in
          let seg_out = List.find_opt (fun s -> s.s_from = h.h_dev) segs in
          match (seg_in, seg_out) with
          | Some si, Some so ->
              let rxk = { device = h.h_dev; module_id = si.s_to_module; pipe = si.s_to_pipe } in
              let txk =
                { device = h.h_dev; module_id = so.s_from_module; pipe = so.s_from_pipe }
              in
              let rx_in = last_delta t rxk "up_frames" in
              let tx_out = last_delta t txk "down_frames" in
              if rx_in > 0 && tx_out = 0 then begin
                let module_anomaly m =
                  List.filter_map
                    (fun k ->
                      if k.device = h.h_dev && k.module_id = m then
                        match samples t k with
                        | [] -> None
                        | sms -> (
                            let latest = List.nth sms (List.length sms - 1) in
                            match
                              List.find_opt
                                (fun (name, d) ->
                                  d > 0 && String.length name >= 5
                                  && String.sub name 0 5 = "drop:")
                                latest.deltas
                            with
                            | Some (name, d) -> Some (Fmt.str "%s %s +%d" k.pipe name d)
                            | None -> None)
                      else None)
                    (keys t)
                in
                let candidates =
                  List.filter (fun m -> m <> si.s_to_module && m <> so.s_from_module) h.h_modules
                in
                let blamed =
                  List.find_map
                    (fun m -> match module_anomaly m with [] -> None | ev -> Some (m, ev))
                    candidates
                in
                match blamed with
                | Some (m, ev) ->
                    add
                      (Misconfigured_module { dev = h.h_dev; module_id = m })
                      0.85
                      (Fmt.str "%d frame(s) entered %s, none left" rx_in h.h_dev :: ev)
                | None -> (
                    match candidates with
                    | m :: _ ->
                        add
                          (Misconfigured_module { dev = h.h_dev; module_id = m })
                          0.5
                          [
                            Fmt.str "%d frame(s) entered %s, none left; no drop cause visible"
                              rx_in h.h_dev;
                          ]
                    | [] -> ())
              end
          | _ -> ()
        end)
      hops;
    List.stable_sort (fun a b -> compare b.confidence a.confidence) (List.rev !out)
end

(* A fixed path shape: A -> B -> C, with an ETH module per segment end and
   a forwarding module on the transit device that owns two pipes. *)
let shape_hops =
  [
    { Diagnose.h_dev = "id-A"; h_modules = [ "id-A.g"; "id-A.e" ] };
    { Diagnose.h_dev = "id-B"; h_modules = [ "id-B.e1"; "id-B.p"; "id-B.e2" ] };
    { Diagnose.h_dev = "id-C"; h_modules = [ "id-C.e"; "id-C.g" ] };
  ]

let shape_segs =
  [
    {
      Diagnose.s_name = "id-A--id-B";
      s_from = "id-A";
      s_from_module = "id-A.e";
      s_from_pipe = "pA";
      s_to = "id-B";
      s_to_module = "id-B.e1";
      s_to_pipe = "pB1";
    };
    {
      Diagnose.s_name = "id-B--id-C";
      s_from = "id-B";
      s_from_module = "id-B.e2";
      s_from_pipe = "pB2";
      s_to = "id-C";
      s_to_module = "id-C.e";
      s_to_pipe = "pC";
    };
  ]

let shape_keys =
  List.map
    (fun (device, module_id, pipe) -> { Diagnose.device; module_id; pipe })
    [
      ("id-A", "id-A.e", "pA");
      ("id-A", "id-A.g", "g1");
      ("id-B", "id-B.e1", "pB1");
      ("id-B", "id-B.p", "x2");
      ("id-B", "id-B.p", "x1");
      ("id-B", "id-B.e2", "pB2");
      ("id-C", "id-C.e", "pC");
      ("id-C", "id-C.g", "g1");
    ]

let counter_pool =
  [ "up_frames"; "down_frames"; "up_bytes"; "down_bytes"; "drop:no_xc"; "drop:ttl"; "drop:mtu" ]

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l |> List.sort compare |> List.map snd

(* One series' counters as its agent would report them: a fixed order that
   is occasionally reshuffled, counters that appear and vanish, values that
   mostly grow and sometimes reset. *)
type counters = { mutable names : string list; values : (string, int) Hashtbl.t }

let next_snapshot rng c =
  let roll p = Random.State.float rng 1.0 < p in
  if roll 0.15 then c.names <- shuffle rng c.names;
  (match c.names with
  | _ :: _ :: _ when roll 0.1 ->
      let gone = List.nth c.names (Random.State.int rng (List.length c.names)) in
      c.names <- List.filter (fun n -> n <> gone) c.names
  | _ -> ());
  (match List.filter (fun n -> not (List.mem n c.names)) counter_pool with
  | _ :: _ as absent when roll 0.1 ->
      let fresh = List.nth absent (Random.State.int rng (List.length absent)) in
      let at = Random.State.int rng (List.length c.names + 1) in
      let head = List.filteri (fun i _ -> i < at) c.names in
      c.names <- head @ (fresh :: List.filteri (fun i _ -> i >= at) c.names)
  | _ -> ());
  List.map
    (fun name ->
      let was = Option.value ~default:0 (Hashtbl.find_opt c.values name) in
      let v = if roll 0.05 then Random.State.int rng 3 else was + Random.State.int rng 4 in
      Hashtbl.replace c.values name v;
      (name, v))
    c.names

let same_stores ~ctx ring reference =
  let fail what = Alcotest.failf "%s: %s differs from the list store" ctx what in
  List.iter
    (fun k ->
      let kname = Fmt.str "%s/%s/%s" k.Diagnose.device k.Diagnose.module_id k.Diagnose.pipe in
      if Diagnose.samples ring k <> List_store.samples reference k then fail (kname ^ " samples");
      if Diagnose.dropped ring k <> List_store.dropped reference k then fail (kname ^ " dropped");
      List.iter
        (fun c ->
          for n = 1 to 8 do
            if Diagnose.recent ~n ring k c <> List_store.recent ~n reference k c then
              fail (Fmt.str "%s recent ~n:%d %s" kname n c)
          done;
          if Diagnose.total ring k c <> List_store.total reference k c then
            fail (Fmt.str "%s total %s" kname c))
        counter_pool)
    shape_keys;
  if Diagnose.anomalies ring <> List_store.anomalies reference then fail "anomalies";
  if
    Diagnose.localize ring ~hops:shape_hops ~segs:shape_segs
    <> List_store.localize reference ~hops:shape_hops ~segs:shape_segs
  then fail "localize"

let run_program seed =
  let rng = Random.State.make [| seed |] in
  let window = 1 + Random.State.int rng 6 in
  let ring = Diagnose.create ~window () and reference = List_store.create ~window in
  let keys = List.filteri (fun i _ -> i < 2 + Random.State.int rng 5) (shuffle rng shape_keys) in
  let series =
    List.map
      (fun k ->
        let names = List.filter (fun _ -> Random.State.bool rng) (shuffle rng counter_pool) in
        (k, { names; values = Hashtbl.create 8 }, ref (Random.State.int rng 61)))
      keys
  in
  let step = ref 0 in
  let ctx () = Fmt.str "seed %d, window %d, step %d" seed window !step in
  let rec go () =
    match List.filter (fun (_, _, left) -> !left > 0) series with
    | [] -> ()
    | live ->
        incr step;
        let roll = Random.State.int rng 10 in
        let dev = List.nth [ "id-A"; "id-B"; "id-C" ] (Random.State.int rng 3) in
        if roll = 0 then begin
          Diagnose.note_unreachable ring dev;
          List_store.note_unreachable reference dev
        end
        else if roll = 1 then begin
          Diagnose.note_reachable ring dev;
          List_store.note_reachable reference dev
        end
        else begin
          let k, c, left = List.nth live (Random.State.int rng (List.length live)) in
          decr left;
          let snapshot = next_snapshot rng c in
          let at_ns = Int64.of_int !step in
          let { Diagnose.device; module_id; pipe } = k in
          Diagnose.observe ring ~at_ns ~device ~module_id ~pipe snapshot;
          List_store.observe reference ~at_ns ~device ~module_id ~pipe snapshot
        end;
        if !step mod 25 = 0 then same_stores ~ctx:(ctx ()) ring reference;
        go ()
  in
  go ();
  same_stores ~ctx:(ctx ()) ring reference

let test_ring_matches_list_store () =
  for seed = 1 to 1000 do
    run_program seed
  done

let () =
  Alcotest.run "diagnose"
    [
      ( "counters",
        [
          Alcotest.test_case "delta semantics" `Quick test_counters_delta;
          Alcotest.test_case "trace ring cap" `Quick test_trace_cap;
        ] );
      ( "scrape",
        [
          Alcotest.test_case "showPerf is truthful" `Quick test_show_perf_truthful;
          Alcotest.test_case "survives a lossy channel" `Quick test_scrape_over_lossy_channel;
        ] );
      ( "localizer",
        [
          Alcotest.test_case "cut link" `Quick test_localize_cut_link;
          Alcotest.test_case "misconfigured MPLS xconnect" `Quick
            test_localize_misconfigured_mpls;
          Alcotest.test_case "lossy segment" `Quick test_localize_lossy_segment;
          Alcotest.test_case "unreachable agent" `Quick test_localize_unreachable_agent;
        ] );
      ( "store",
        [ Alcotest.test_case "ring matches the list store" `Quick test_ring_matches_list_store ]
      );
      ( "monitor",
        [
          Alcotest.test_case "reroutes on diagnosed cut" `Quick
            test_monitor_reroutes_on_diagnosed_cut;
          Alcotest.test_case "resyncs on diagnosed drift" `Quick
            test_monitor_resyncs_on_diagnosed_drift;
          Alcotest.test_case "reroutes without a self-test walk" `Quick
            test_monitor_reroutes_without_walk;
          Alcotest.test_case "avoid per verdict" `Quick test_monitor_avoid_per_verdict;
        ] );
    ]
