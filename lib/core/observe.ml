(* One-stop observability wiring for a deployment: a shared metrics
   registry plus one span collector per NM station, with the transport
   and admission layers' anonymous events (retries, sheds) decoded back
   to the owning goal's span. Scenario builders, the chaos engines, the
   CLI and the bench all hang their instrumentation off this instead of
   re-plumbing each layer by hand. *)

type t = {
  registry : Obs.Registry.t;
  mutable collectors : Obs.Trace.t list;
  mutable nms : (string * Nm.t) list; (* attached NMs by station, for their log rings *)
  mutable tick : int; (* shared logical clock stamped onto spans/events *)
}

let create () = { registry = Obs.Registry.create (); collectors = []; nms = []; tick = 0 }
let registry t = t.registry
let collectors t = t.collectors
let set_tick t n = t.tick <- n

(* The mgmt layers are payload-agnostic: they hand us raw bytes. Decode,
   fish the trace context out (however deep under Fenced/Traced), and land
   the event on the owning span wherever it lives. Untraced or undecodable
   payloads have no goal to attribute to and are dropped. *)
let route t payload what =
  match Wire.decode payload with
  | exception _ -> ()
  | msg -> (
      match Wire.trace_of msg with
      | Some ctx -> Obs.Trace.route_event t.collectors ctx what
      | None -> ())

let pfx prefix sub = match prefix with Some p -> p ^ "_" ^ sub | None -> sub

(* Merge several (name, count) lists, summing shared names. *)
let sum_counters lists =
  List.fold_left
    (fun acc kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let cur = Option.value ~default:0 (List.assoc_opt k acc) in
          (k, cur + v) :: List.remove_assoc k acc)
        acc kvs)
    [] lists
  |> List.sort compare

let attach_nm ?prefix ?(agents = []) ?transport ?admission ?faults t ~station nm =
  let trace = Obs.Trace.create ~station () in
  Obs.Trace.set_clock trace (fun () -> t.tick);
  t.collectors <- t.collectors @ [ trace ];
  t.nms <- t.nms @ [ (station, nm) ];
  Nm.set_obs nm trace;
  Nm.set_registry nm t.registry;
  Obs.Registry.register t.registry (pfx prefix "nm") (fun () -> Nm.obs_counters nm);
  (match agents with
  | [] -> ()
  | _ ->
      List.iter (fun (_, a) -> Agent.set_obs a trace) agents;
      Obs.Registry.register t.registry (pfx prefix "agent") (fun () ->
          sum_counters (List.map (fun (_, a) -> Agent.obs_counters a) agents)));
  Option.iter
    (fun r ->
      Mgmt.Reliable.set_observer r (fun payload what -> route t payload what);
      Obs.Registry.register t.registry (pfx prefix "reliable") (fun () ->
          Mgmt.Reliable.obs_counters r))
    transport;
  Option.iter
    (fun a ->
      Mgmt.Admission.set_observer a (fun payload what -> route t payload what);
      Obs.Registry.register t.registry (pfx prefix "admission") (fun () ->
          Mgmt.Admission.obs_counters a))
    admission;
  Option.iter
    (fun f ->
      Obs.Registry.register t.registry (pfx prefix "faults") (fun () -> Mgmt.Faults.obs_counters f))
    faults;
  trace

let attach_ha ?prefix t ha =
  Obs.Registry.register t.registry (pfx prefix "ha") (fun () -> Ha.obs_counters ha)

let attach_net ?prefix t net =
  Obs.Registry.register t.registry (pfx prefix "netsim") (fun () ->
      sum_counters
        (List.map
           (fun e -> Netsim.Counters.to_list (Netsim.Link.drop_stats e.Netsim.Net.segment))
           (Netsim.Net.edges net)))

(* Ring-buffer loss accounting: everything the deployment silently drops
   when bounded buffers overflow, one gauge per ring (the packet-trace
   ring is process-global; collector and NM log rings are per station). *)
let ring_dropped t =
  (("netsim_trace", Netsim.Trace.dropped ())
  :: List.map (fun c -> ("spans_" ^ Obs.Trace.station c, Obs.Trace.dropped c)) t.collectors)
  @ List.concat_map
      (fun (station, nm) ->
        List.map (fun (ring, n) -> ("nm_" ^ ring ^ "_" ^ station, n)) (Nm.ring_dropped nm))
      t.nms

let attach_rings t = Obs.Registry.register t.registry "rings" (fun () -> ring_dropped t)
