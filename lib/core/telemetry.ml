(* The NM-side telemetry poller: scrapes showPerf across the managed scope
   on a period, feeds the Diagnose time-series store, and adapts configured
   paths into the hop/segment shape the protocol-agnostic localizer works
   on (using only the potential graph: the physical pipes of
   physical-facing modules and the modules the path visits). Each round
   also keeps every device's state tag, which the Monitor's drift check
   compares with its baselines. *)

(* A device's state tag as one scrape round read it, with the NM's count
   of state-changing requests to the device when the round began. *)
type scraped = { tag : string; round : int; writes : int }

type t = {
  nm : Nm.t;
  store : Diagnose.t;
  scope : string list;
  base_period_ns : int64;
  max_period_ns : int64;
  mutable period_ns : int64;
  mutable last_scrape : int64 option;
  mutable rounds : int;
  (* graceful degradation: when the admission layer reports telemetry
     sheds, the poller doubles its period instead of feeding the storm;
     once sheds stop it decays back towards the base period. *)
  mutable shed_probe : (unit -> int) option;
  mutable last_shed : int;
  mutable backoffs : int;
  tags : (string, scraped) Hashtbl.t; (* per device, from the latest round it answered *)
}

let create ?window ?(period_ns = 250_000_000L) ~scope nm =
  {
    nm;
    store = Diagnose.create ?window ();
    scope;
    base_period_ns = period_ns;
    max_period_ns = Int64.mul period_ns 8L;
    period_ns;
    last_scrape = None;
    rounds = 0;
    shed_probe = None;
    last_shed = 0;
    backoffs = 0;
    tags = Hashtbl.create 16;
  }

let store t = t.store
let rounds t = t.rounds
let period_ns t = t.period_ns
let backoffs t = t.backoffs
let set_shed_probe t probe = t.shed_probe <- Some probe

(* Adapt the scrape period to shed feedback: any telemetry shed since the
   last look doubles the period (capped), a quiet interval halves it back
   towards the base. Called on every [maybe_scrape], so the decay also
   runs while the period gate is closed. *)
let adapt t =
  match t.shed_probe with
  | None -> ()
  | Some probe ->
      let shed = probe () in
      if shed > t.last_shed then begin
        let doubled = Int64.mul t.period_ns 2L in
        if doubled <= t.max_period_ns then begin
          t.period_ns <- doubled;
          t.backoffs <- t.backoffs + 1
        end
      end
      else if t.period_ns > t.base_period_ns then begin
        let halved = Int64.div t.period_ns 2L in
        t.period_ns <- (if halved < t.base_period_ns then t.base_period_ns else halved)
      end;
      t.last_shed <- shed

let now t = Netsim.Event_queue.now (Netsim.Net.eq (Nm.net t.nm))

(* One round over [devices], its replies observed in list order. *)
let scrape_devices t devices =
  t.rounds <- t.rounds + 1;
  let at_ns = now t in
  t.last_scrape <- Some at_ns;
  let writes = List.map (Nm.writes t.nm) devices in
  let replies = Nm.show_perf_round t.nm devices in
  List.iter2
    (fun (dev, writes) reply ->
      match reply with
      | None ->
          Hashtbl.remove t.tags dev;
          Diagnose.note_unreachable t.store dev
      | Some (tag, reports) ->
          Hashtbl.replace t.tags dev { tag; round = t.rounds; writes };
          Diagnose.note_reachable t.store dev;
          List.iter
            (fun (m, pipes) ->
              let module_id = Ids.qualified m in
              List.iter
                (fun (pipe, counters) ->
                  Diagnose.observe t.store ~at_ns ~device:dev ~module_id ~pipe counters)
                pipes)
            reports)
    (List.combine devices writes) replies

let scrape t = scrape_devices t t.scope

let tag t ~since dev =
  match Hashtbl.find_opt t.tags dev with
  | Some s when s.round > since && s.writes = Nm.writes t.nm dev -> Some s.tag
  | Some _ | None -> None

let maybe_scrape t =
  adapt t;
  match t.last_scrape with
  | None -> scrape t
  | Some last -> if Int64.sub (now t) last >= t.period_ns then scrape t

let anomalies t = Diagnose.anomalies t.store

(* --- path adaptation --------------------------------------------------- *)

let scrape_path t path = scrape_devices t (Path_finder.devices path)

let hops_of_path (path : Path_finder.path) =
  List.map
    (fun dev ->
      let mods =
        List.fold_left
          (fun acc (v : Path_finder.visit) ->
            let q = Ids.qualified v.Path_finder.v_mod in
            if v.Path_finder.v_mod.Ids.dev = dev && not (List.mem q acc) then q :: acc else acc)
          [] path.Path_finder.visits
      in
      { Diagnose.h_dev = dev; h_modules = List.rev mods })
    (Path_finder.devices path)

(* Each pair of consecutive path devices is a segment between the
   physical-facing modules (and pipes) that face each other. *)
let segs_of_path t (path : Path_finder.path) =
  let topo = Nm.topology t.nm in
  let facing dev peer = Potential_graph.facing (Topology.modules_of_device topo dev) peer in
  let rec pair = function
    | d1 :: (d2 :: _ as rest) -> (
        match (facing d1 d2, facing d2 d1) with
        | Some (m1, p1), Some (m2, p2) ->
            {
              Diagnose.s_name = d1 ^ "--" ^ d2;
              s_from = d1;
              s_from_module = Ids.qualified m1;
              s_from_pipe = p1;
              s_to = d2;
              s_to_module = Ids.qualified m2;
              s_to_pipe = p2;
            }
            :: pair rest
        | _ -> pair rest)
    | _ -> []
  in
  pair (Path_finder.devices path)

let diagnose_path t path =
  Diagnose.localize t.store ~hops:(hops_of_path path) ~segs:(segs_of_path t path)
