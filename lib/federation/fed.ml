(* Federated multi-NM management: the testbed is partitioned into
   administrative domains, each owned by one NM, and cross-domain
   connectivity goals are achieved by an inter-NM protocol over the same
   lossy management channel the agents use.

   The protocol keeps a trust boundary between domains. A domain
   advertisement (Wire.Fed_advert) exports only the domain's border
   modules and an abridged reachability summary — never the raw internal
   topology. A cross-domain goal is coordinated by its home NM: it asks
   the target domain's NM for a per-goal scoped expansion of just the
   segment the goal traverses (Fed_plan_req/resp — the federated
   counterpart of §III-C.3's hierarchical loose-hop expansion), plans the
   ONE global script over a merged scratch topology with the shared
   deterministic generator — so the resulting configuration is
   byte-identical to what a single NM owning everything would produce —
   and then delegates each domain its own per-device slices under a
   two-phase commit (Fed_commit / ack / err). Configuration writes always
   come from the owning NM; the coordinator never touches a foreign
   device. On any segment failure or timeout the coordinator drives a
   distributed back-out (Fed_abort / abort-ack) so no domain is left
   half-configured, then replans.

   Everything is driven by [tick] with the Monitor's bounded-horizon
   discipline, and is idempotent under retransmission: commits and aborts
   are keyed by (coordinator domain, gid) and re-sent until acknowledged,
   so the protocol rides out NM crashes and inter-domain partitions.
   Handlers run inside the network's event loop and therefore only mutate
   state and enqueue sends; anything that needs to drive the network
   (back-outs, re-sends) is deferred to the next [tick]. *)

open Conman

(* ticks between protocol retransmissions *)
let resend_every = 2

(* ticks between periodic domain advertisements *)
let advert_every = 5

(* ticks an unanswered plan request survives before a fresh attempt *)
let plan_timeout = 4

(* ticks a commit round may stay unacknowledged before the coordinator
   assumes a wedged segment and drives the distributed back-out *)
let commit_timeout = 12

(* same bounded-probe slack as the Monitor: tick work may consume events
   up to now + slack without fast-forwarding through scheduled faults *)
let probe_slack_ns = 100_000_000L

type peer = {
  p_station : string; (* configured up front: federation peering is operator knowledge *)
  mutable p_domain : string;
  mutable p_borders : Ids.t list;
  mutable p_summary : (string * int) list;
  mutable p_devices : string list;
  mutable p_seen : bool; (* an advert arrived; [p_devices] is trustworthy *)
}

(* A delegated commit this NM executes on behalf of a remote coordinator,
   keyed by (coordinator domain, gid) so retransmits are idempotent. An
   aborted entry is kept as a tombstone: a late commit retransmit must not
   resurrect configuration the coordinator already backed out. *)
type delegated = {
  d_key : string * int;
  d_from : string; (* coordinator station id *)
  mutable d_script : Script_gen.script option; (* None once aborted *)
  mutable d_acked : bool;
  mutable d_abort_requested : bool;
  mutable d_aborted : bool;
  mutable d_abort_ack_owed : bool;
  d_trace : Obs.Trace.ctx option;
      (* our span for this delegated slice, parented on the coordinator's
         commit span (carried by the Fed_commit frame) *)
}

type phase =
  | Idle (* waiting to (re)plan *)
  | Planning of { req : int }
  | Committing of {
      gid : int;
      global : Script_gen.script;
      local : Script_gen.script option; (* our own slices *)
      remote : (string * (string * Primitive.t list) list) list; (* peer domain -> slices *)
      mutable acked : string list; (* peer domains that confirmed *)
    }
  | Aborting of {
      gid : int;
      mutable to_back_out : Script_gen.script option; (* local slices not yet dismantled *)
      remote_domains : string list;
      mutable acked : string list;
    }
  | Achieved of { gid : int; global : Script_gen.script }
  | Failed of string

type goal_run = {
  gr_id : int;
  gr_goal : Path_finder.goal;
  mutable gr_phase : phase;
  mutable gr_age : int; (* ticks spent in the current phase *)
  mutable gr_replans : int; (* rounds restarted after a plan error or back-out *)
  mutable gr_backouts : int; (* distributed back-outs driven *)
  mutable gr_trace : Obs.Trace.ctx option; (* root span of the goal's trace *)
  mutable gr_phase_ctx : Obs.Trace.ctx option; (* span of the current phase *)
}

type stats = {
  mutable commits_in : int; (* Fed_commit received, retransmits included *)
  mutable aborts_in : int;
  mutable relays : int; (* cross-domain conveys forwarded or delivered *)
  mutable plan_errs : int;
}

type t = {
  nm : Nm.t;
  domain : string;
  devices : string list;
  mutable peers : peer list;
  mutable goals : goal_run list;
  mutable next_gid : int;
  mutable next_goal : int;
  mutable delegated : delegated list;
  mutable plan_reqs : int;
  stats : stats;
  mutable registry : Obs.Registry.t option; (* phase-latency histograms *)
}

let send t ~dst msg = Nm.send_msg t.nm ~dst msg

(* --- tracing: one root span per goal run, one child span per phase ------------- *)

let obs t = Nm.obs t.nm

(* The goal's root span, opened lazily (a replan rejoins the same root). *)
let goal_ctx t g =
  match obs t with
  | None -> None
  | Some o -> (
      match g.gr_trace with
      | Some _ as c -> c
      | None ->
          let ctx = Obs.Trace.start o "fed-goal" in
          g.gr_trace <- Some ctx;
          Some ctx)

let open_phase t g name =
  match (obs t, goal_ctx t g) with
  | Some o, Some root ->
      let ctx = Obs.Trace.start ~parent:root o name in
      g.gr_phase_ctx <- Some ctx
  | _ -> ()

let close_phase t g ~status =
  match (obs t, g.gr_phase_ctx) with
  | Some o, Some ctx ->
      Obs.Trace.finish o ctx ~status;
      g.gr_phase_ctx <- None
  | _ -> ()

let close_goal t g ~status =
  close_phase t g ~status;
  match (obs t, g.gr_trace) with
  | Some o, Some ctx -> Obs.Trace.finish o ctx ~status
  | _ -> ()

let observe_phase t key v =
  match t.registry with Some r -> Obs.Registry.observe r key v | None -> ()

(* Wraps an outgoing inter-NM frame in the given context (if tracing). *)
let traced ctx msg = match ctx with Some c -> Wire.Traced { ctx = c; msg } | None -> msg

(* Runs [f] with the NM's ambient span set to [ctx], so any bundles it
   ships become children of that span. *)
let with_nm_ctx t ctx f =
  let saved = Nm.trace_ctx t.nm in
  Nm.set_trace_ctx t.nm ctx;
  Fun.protect ~finally:(fun () -> Nm.set_trace_ctx t.nm saved) f
let owns t dev = List.mem dev t.devices
let owner_peer t dev = List.find_opt (fun p -> p.p_seen && List.mem dev p.p_devices) t.peers
let peer_by_station t st = List.find_opt (fun p -> p.p_station = st) t.peers

(* --- domain advertisement ------------------------------------------------------ *)

(* Border modules: every module of a device with a physical link leaving
   the domain. The summary is deliberately abridged — per address domain,
   how many modules serve it — enough for a peer to judge reachability,
   nothing of the internal graph. *)
let my_advert t =
  let topo = Nm.topology t.nm in
  let borders =
    List.concat_map
      (fun dev ->
        match Topology.device topo dev with
        | Some di
          when List.exists (fun (_, peer, _) -> not (owns t peer)) di.Topology.di_links ->
            List.map fst di.Topology.di_modules
        | _ -> [])
      t.devices
  in
  let summary =
    List.fold_left
      (fun acc ((_ : Ids.t), d) ->
        if List.mem_assoc d acc then
          List.map (fun (k, n) -> if k = d then (k, n + 1) else (k, n)) acc
        else acc @ [ (d, 1) ])
      [] topo.Topology.module_domains
  in
  Wire.Fed_advert
    { domain = t.domain; nm = Nm.my_id t.nm; borders; summary; devices = t.devices }

let advert = my_advert

let announce t =
  let adv = my_advert t in
  List.iter (fun p -> send t ~dst:p.p_station adv) t.peers

(* --- participant: delegated planning ------------------------------------------- *)

let answer_plan t ~src ~req ~entry_dev ~(target : Ids.t) =
  (* our side of the plan expansion, parented on the coordinator's plan
     span (the request frame carried its context) *)
  let span =
    match (obs t, Nm.rx_ctx t.nm) with
    | Some o, Some parent -> Some (o, Obs.Trace.start ~parent o "plan-expand")
    | _ -> None
  in
  let ctx = Option.map snd span in
  let finish status =
    match span with Some (o, c) -> Obs.Trace.finish o c ~status | None -> ()
  in
  let topo = Nm.topology t.nm in
  if not (owns t target.Ids.dev) then begin
    finish "failed: target outside domain";
    send t ~dst:src
      (traced ctx (Wire.Fed_plan_err { req; error = "target outside domain " ^ t.domain }))
  end
  else
    (* the goal's segment through this domain, from the border device the
       coordinator enters at *)
    let walk =
      if owns t entry_dev then
        Topology.device_walk topo ~within:(owns t) ~src:entry_dev ~dst:target.Ids.dev
      else None
    in
    match walk with
    | None ->
        finish "failed: no segment";
        send t ~dst:src
          (traced ctx (Wire.Fed_plan_err { req; error = "no segment from border " ^ entry_dev }))
    | Some walk ->
        let devices =
          List.filter_map
            (fun dev ->
              match Topology.device topo dev with
              | Some di -> Some (dev, di.Topology.di_links, di.Topology.di_modules)
              | None -> None)
            walk
        in
        let module_domains =
          List.filter (fun ((m : Ids.t), _) -> List.mem m.Ids.dev walk) topo.Topology.module_domains
        in
        finish "ok";
        send t ~dst:src
          (traced ctx
             (Wire.Fed_plan_resp
                { req; devices; module_domains; prefixes = topo.Topology.domain_prefixes }))

(* --- participant: delegated execution ------------------------------------------ *)

let find_delegated t key = List.find_opt (fun d -> d.d_key = key) t.delegated

let on_commit t ~src ~key ~slices ~reporter =
  t.stats.commits_in <- t.stats.commits_in + 1;
  match find_delegated t key with
  | Some d ->
      if d.d_aborted || d.d_abort_requested then () (* tombstone: never resurrect *)
      else if d.d_acked then
        send t ~dst:src (traced d.d_trace (Wire.Fed_commit_ack { gid = snd key }))
      else () (* still executing; the tick acks once every slice is confirmed *)
  | None ->
      if List.exists (fun (dev, _) -> not (owns t dev)) slices then begin
        (* protocol-level enforcement of the write boundary: we refuse to
           configure devices outside our own domain *)
        send t ~dst:src
          (Wire.Fed_commit_err { gid = snd key; error = "slice names a foreign device" });
        t.delegated <-
          {
            d_key = key;
            d_from = src;
            d_script = None;
            d_acked = false;
            d_abort_requested = false;
            d_aborted = true;
            d_abort_ack_owed = false;
            d_trace = None;
          }
          :: t.delegated
      end
      else begin
        let script =
          {
            Script_gen.prims = List.concat_map snd slices;
            per_device = slices;
            reporter;
            path = { Path_finder.visits = [] };
          }
        in
        let d_trace =
          match (obs t, Nm.rx_ctx t.nm) with
          | Some o, Some parent ->
              Some (Obs.Trace.start ~parent o ("delegated:" ^ t.domain))
          | _ -> None
        in
        with_nm_ctx t d_trace (fun () -> Nm.run_script t.nm script);
        t.delegated <-
          {
            d_key = key;
            d_from = src;
            d_script = Some script;
            d_acked = false;
            d_abort_requested = false;
            d_aborted = false;
            d_abort_ack_owed = false;
            d_trace;
          }
          :: t.delegated
      end

let on_abort t ~src ~key =
  t.stats.aborts_in <- t.stats.aborts_in + 1;
  match find_delegated t key with
  | Some d ->
      d.d_abort_requested <- true;
      d.d_abort_ack_owed <- true
  | None ->
      (* abort for a commit that never arrived: tombstone it so a late
         commit retransmit cannot apply what the coordinator backed out *)
      t.delegated <-
        {
          d_key = key;
          d_from = src;
          d_script = None;
          d_acked = false;
          d_abort_requested = true;
          d_aborted = true;
          d_abort_ack_owed = true;
          d_trace = None;
        }
        :: t.delegated

(* --- coordinator --------------------------------------------------------------- *)

let find_goal_planning t req =
  List.find_opt
    (fun g -> match g.gr_phase with Planning { req = r } -> r = req | _ -> false)
    t.goals

let find_goal_committing t gid =
  List.find_opt
    (fun g -> match g.gr_phase with Committing { gid = g'; _ } -> g' = gid | _ -> false)
    t.goals

let find_goal_aborting t gid =
  List.find_opt
    (fun g -> match g.gr_phase with Aborting { gid = g'; _ } -> g' = gid | _ -> false)
    t.goals

let reset (_ : t) g =
  g.gr_phase <- Idle;
  g.gr_age <- 0;
  g.gr_replans <- g.gr_replans + 1

let start_abort t g =
  match g.gr_phase with
  | Committing { gid; local; remote; _ } ->
      observe_phase t "fed.commit_ticks" g.gr_age;
      close_phase t g ~status:"failed: backing out";
      open_phase t g "abort";
      g.gr_backouts <- g.gr_backouts + 1;
      g.gr_age <- 0;
      g.gr_phase <-
        Aborting { gid; to_back_out = local; remote_domains = List.map fst remote; acked = [] }
  | _ -> ignore t

(* The plan response arrived: merge the expansion into a scratch topology,
   plan exactly as a single NM would (same best-first planner, same
   generator — this is what makes the federated configuration
   byte-identical to the single-NM one), then split the global script's
   per-device slices by owning domain and open the commit round. *)
let on_plan_resp t g ~devices ~module_domains ~prefixes:_ =
  let topo = Nm.topology t.nm in
  let scratch = Topology.create () in
  List.iter
    (fun (di : Topology.device_info) ->
      if owns t di.Topology.di_id then begin
        Topology.record_hello scratch ~src:di.Topology.di_id di.Topology.di_links;
        Topology.record_potential scratch ~src:di.Topology.di_id di.Topology.di_modules
      end)
    topo.Topology.devices;
  List.iter
    (fun (dev, links, mods) ->
      Topology.record_hello scratch ~src:dev links;
      Topology.record_potential scratch ~src:dev mods)
    devices;
  let own_md =
    List.filter (fun ((m : Ids.t), _) -> owns t m.Ids.dev) topo.Topology.module_domains
  in
  Topology.set_domains scratch ~module_domains:(own_md @ module_domains)
    ~domain_prefixes:topo.Topology.domain_prefixes;
  let scope = t.devices @ List.map (fun (d, _, _) -> d) devices in
  let goal = { g.gr_goal with Path_finder.g_scope = scope } in
  match fst (Path_finder.best scratch goal) with
  | None ->
      t.stats.plan_errs <- t.stats.plan_errs + 1;
      close_phase t g ~status:"failed: no path";
      reset t g
  | Some path -> (
      let global = Script_gen.generate scratch goal path in
      let own_slices, foreign =
        List.partition (fun (d, _) -> owns t d) global.Script_gen.per_device
      in
      let unowned =
        List.filter (fun (dev, _) -> owner_peer t dev = None) foreign
      in
      match unowned with
      | (dev, _) :: _ ->
          close_goal t g ~status:"failed: unowned device";
          g.gr_phase <- Failed ("device in no advertised domain: " ^ dev)
      | [] ->
          observe_phase t "fed.plan_ticks" g.gr_age;
          close_phase t g ~status:"ok";
          open_phase t g "commit";
          let remote =
            List.fold_left
              (fun acc (dev, prims) ->
                match owner_peer t dev with
                | None -> acc
                | Some p ->
                    let cur = Option.value ~default:[] (List.assoc_opt p.p_domain acc) in
                    (p.p_domain, cur @ [ (dev, prims) ]) :: List.remove_assoc p.p_domain acc)
              [] foreign
          in
          t.next_gid <- t.next_gid + 1;
          let gid = t.next_gid in
          let local =
            match own_slices with
            | [] -> None
            | _ ->
                Some
                  {
                    Script_gen.prims =
                      List.filter (fun p -> owns t (Primitive.target p)) global.Script_gen.prims;
                    per_device = own_slices;
                    reporter = global.Script_gen.reporter;
                    path = global.Script_gen.path;
                  }
          in
          List.iter
            (fun (dom, slices) ->
              match List.find_opt (fun p -> p.p_domain = dom) t.peers with
              | Some p ->
                  send t ~dst:p.p_station
                    (traced g.gr_phase_ctx
                       (Wire.Fed_commit
                          { domain = t.domain; gid; slices; reporter = global.Script_gen.reporter }))
              | None -> ())
            remote;
          with_nm_ctx t g.gr_phase_ctx (fun () ->
              Option.iter (Nm.run_script t.nm) local);
          g.gr_age <- 0;
          g.gr_phase <- Committing { gid; global; local; remote; acked = [] })

(* --- cross-domain conveyMessage relay ------------------------------------------ *)

let relay_out t ~src ~dst payload =
  match owner_peer t dst.Ids.dev with
  | Some p ->
      t.stats.relays <- t.stats.relays + 1;
      send t ~dst:p.p_station (Wire.Fed_relay { src; dst; payload })
  | None -> () (* owner unknown (advert not yet seen): the modules' own protocol retries *)

let on_relay t ~src:_ ~(msrc : Ids.t) ~(dst : Ids.t) ~payload =
  if owns t dst.Ids.dev then begin
    t.stats.relays <- t.stats.relays + 1;
    send t ~dst:dst.Ids.dev (Wire.Convey { src = msrc; dst; payload })
  end
  else relay_out t ~src:msrc ~dst payload (* not ours: forward towards the owner *)

(* --- inbound dispatch ----------------------------------------------------------- *)

let handle t ~src msg =
  match msg with
  | Wire.Fed_advert { domain; nm; borders; summary; devices } -> (
      match peer_by_station t nm with
      | Some p ->
          p.p_domain <- domain;
          p.p_borders <- borders;
          p.p_summary <- summary;
          p.p_devices <- devices;
          p.p_seen <- true
      | None ->
          (* adverts can introduce peers we were not configured with *)
          t.peers <-
            t.peers
            @ [
                {
                  p_station = nm;
                  p_domain = domain;
                  p_borders = borders;
                  p_summary = summary;
                  p_devices = devices;
                  p_seen = true;
                };
              ])
  | Wire.Fed_plan_req { req; domain = _; entry_dev; target } ->
      answer_plan t ~src ~req ~entry_dev ~target
  | Wire.Fed_plan_resp { req; devices; module_domains; prefixes } -> (
      match find_goal_planning t req with
      | Some g -> on_plan_resp t g ~devices ~module_domains ~prefixes
      | None -> () (* stale response for an attempt we already restarted *))
  | Wire.Fed_plan_err { req; error = _ } -> (
      t.stats.plan_errs <- t.stats.plan_errs + 1;
      match find_goal_planning t req with
      | Some g ->
          close_phase t g ~status:"failed: plan error";
          reset t g
      | None -> ())
  | Wire.Fed_commit { domain; gid; slices; reporter } ->
      on_commit t ~src ~key:(domain, gid) ~slices ~reporter
  | Wire.Fed_commit_ack { gid } -> (
      match find_goal_committing t gid with
      | Some g -> (
          match (g.gr_phase, peer_by_station t src) with
          | Committing c, Some p ->
              if not (List.mem p.p_domain c.acked) then c.acked <- p.p_domain :: c.acked
          | _ -> ())
      | None -> ())
  | Wire.Fed_commit_err { gid; error = _ } -> (
      match find_goal_committing t gid with Some g -> start_abort t g | None -> ())
  | Wire.Fed_abort { domain; gid } -> on_abort t ~src ~key:(domain, gid)
  | Wire.Fed_abort_ack { gid } -> (
      match find_goal_aborting t gid with
      | Some g -> (
          match (g.gr_phase, peer_by_station t src) with
          | Aborting a, Some p ->
              if not (List.mem p.p_domain a.acked) then a.acked <- p.p_domain :: a.acked
          | _ -> ())
      | None -> ())
  | Wire.Fed_relay { src = msrc; dst; payload } -> on_relay t ~src ~msrc ~dst ~payload
  | _ -> ()

(* --- goal intake ---------------------------------------------------------------- *)

let submit t goal =
  t.next_goal <- t.next_goal + 1;
  let g =
    {
      gr_id = t.next_goal;
      gr_goal = goal;
      gr_phase = Idle;
      gr_age = 0;
      gr_replans = 0;
      gr_backouts = 0;
      gr_trace = None;
      gr_phase_ctx = None;
    }
  in
  t.goals <- t.goals @ [ g ];
  g.gr_id

let find_goal t id = List.find_opt (fun g -> g.gr_id = id) t.goals

(* --- the per-tick drive --------------------------------------------------------- *)

(* Opens (or restarts) the planning round for a goal. Local goals are
   achieved directly; cross-domain ones need the owner's advert and a
   border link before the plan request can go out. *)
let step_idle t g =
  let target_dev = g.gr_goal.Path_finder.g_to.Ids.dev in
  if owns t target_dev then
    let ctx = goal_ctx t g in
    match with_nm_ctx t ctx (fun () -> Nm.achieve t.nm g.gr_goal) with
    | Ok (_, _, script) ->
        t.next_gid <- t.next_gid + 1;
        g.gr_phase <- Achieved { gid = t.next_gid; global = script };
        close_goal t g ~status:"ok"
    | Error _ -> () (* retry on a later tick *)
  else
    match owner_peer t target_dev with
    | None -> () (* no advert yet; periodic announces will provoke one *)
    | Some p -> (
        let topo = Nm.topology t.nm in
        let entry =
          List.find_map
            (fun dev ->
              match Topology.device topo dev with
              | Some di ->
                  List.find_map
                    (fun (_, peer, _) -> if List.mem peer p.p_devices then Some peer else None)
                    di.Topology.di_links
              | None -> None)
            t.devices
        in
        match entry with
        | None -> () (* no border link into the owner's domain *)
        | Some entry_dev ->
            t.plan_reqs <- t.plan_reqs + 1;
            let req = t.plan_reqs in
            open_phase t g "plan";
            send t ~dst:p.p_station
              (traced g.gr_phase_ctx
                 (Wire.Fed_plan_req
                    { req; domain = t.domain; entry_dev; target = g.gr_goal.Path_finder.g_to }));
            g.gr_age <- 0;
            g.gr_phase <- Planning { req })

let step_goal t g =
  match g.gr_phase with
  | Idle -> step_idle t g
  | Planning _ ->
      if g.gr_age >= plan_timeout then begin
        close_phase t g ~status:"failed: timeout";
        step_idle t g (* fresh request *)
      end
  | Committing c ->
      if g.gr_age >= commit_timeout then start_abort t g
      else begin
        (* re-ship the commit to peers that have not confirmed *)
        if g.gr_age > 0 && g.gr_age mod resend_every = 0 then
          List.iter
            (fun (dom, slices) ->
              if not (List.mem dom c.acked) then
                match List.find_opt (fun p -> p.p_domain = dom) t.peers with
                | Some p ->
                    send t ~dst:p.p_station
                      (traced g.gr_phase_ctx
                         (Wire.Fed_commit
                            {
                              domain = t.domain;
                              gid = c.gid;
                              slices;
                              reporter = c.global.Script_gen.reporter;
                            }))
                | None -> ())
            c.remote;
        let local_done =
          match c.local with None -> true | Some s -> not (Nm.script_pending t.nm s)
        in
        if local_done && List.for_all (fun (dom, _) -> List.mem dom c.acked) c.remote then begin
          observe_phase t "fed.commit_ticks" g.gr_age;
          g.gr_phase <- Achieved { gid = c.gid; global = c.global };
          close_goal t g ~status:"ok"
        end
      end
  | Aborting a ->
      (match a.to_back_out with
      | Some s ->
          with_nm_ctx t g.gr_phase_ctx (fun () -> Nm.abort_script t.nm s);
          a.to_back_out <- None
      | None -> ());
      if g.gr_age mod resend_every = 0 then
        List.iter
          (fun dom ->
            if not (List.mem dom a.acked) then
              match List.find_opt (fun p -> p.p_domain = dom) t.peers with
              | Some p ->
                  send t ~dst:p.p_station
                    (traced g.gr_phase_ctx (Wire.Fed_abort { domain = t.domain; gid = a.gid }))
              | None -> ())
          a.remote_domains;
      if List.for_all (fun dom -> List.mem dom a.acked) a.remote_domains then begin
        observe_phase t "fed.abort_ticks" g.gr_age;
        close_phase t g ~status:"ok";
        (* the root span stays open: the goal replans under the same trace *)
        reset t g
      end
  | Achieved _ | Failed _ -> ()

let step_delegated t d =
  if d.d_abort_requested && not d.d_aborted then begin
    (match d.d_script with
    | Some s -> with_nm_ctx t d.d_trace (fun () -> Nm.abort_script t.nm s)
    | None -> ());
    d.d_script <- None;
    d.d_aborted <- true;
    match (obs t, d.d_trace) with
    | Some o, Some ctx -> Obs.Trace.finish o ctx ~status:"aborted"
    | _ -> ()
  end;
  if d.d_abort_ack_owed then begin
    d.d_abort_ack_owed <- false;
    send t ~dst:d.d_from (traced d.d_trace (Wire.Fed_abort_ack { gid = snd d.d_key }))
  end;
  if (not d.d_aborted) && not d.d_acked then
    match d.d_script with
    | Some s when not (Nm.script_pending t.nm s) ->
        d.d_acked <- true;
        (match (obs t, d.d_trace) with
        | Some o, Some ctx -> Obs.Trace.finish o ctx ~status:"ok"
        | _ -> ());
        send t ~dst:d.d_from (traced d.d_trace (Wire.Fed_commit_ack { gid = snd d.d_key }))
    | _ -> ()

let tick t ~tick =
  let now = Netsim.Event_queue.now (Netsim.Net.eq (Nm.net t.nm)) in
  Nm.set_horizon t.nm (Some (Int64.add now probe_slack_ns));
  Fun.protect
    ~finally:(fun () -> Nm.set_horizon t.nm None)
    (fun () ->
      if tick mod advert_every = 0 then announce t;
      (* re-deliver state-changing requests the transport gave up on
         (crashed stations, inter-domain partitions) *)
      Nm.flush_inflight t.nm;
      List.iter (fun d -> step_delegated t d) t.delegated;
      List.iter
        (fun g ->
          step_goal t g;
          g.gr_age <- g.gr_age + 1)
        t.goals)

(* --- observation ----------------------------------------------------------------- *)

type status = Pending | Achieved_ok | Failed_with of string

let status t id =
  match find_goal t id with
  | None -> Failed_with "unknown goal"
  | Some g -> (
      match g.gr_phase with
      | Achieved _ -> Achieved_ok
      | Failed e -> Failed_with e
      | Idle | Planning _ | Committing _ | Aborting _ -> Pending)

let achieved t id = status t id = Achieved_ok

let replans t = List.fold_left (fun acc g -> acc + g.gr_replans) 0 t.goals
let backouts t = List.fold_left (fun acc g -> acc + g.gr_backouts) 0 t.goals
let relays t = t.stats.relays
let commits_received t = t.stats.commits_in
let aborts_received t = t.stats.aborts_in
let delegated_aborted t = List.length (List.filter (fun d -> d.d_aborted) t.delegated)
let nm t = t.nm
let set_registry t r = t.registry <- Some r

let goal_trace t id =
  match find_goal t id with Some g -> g.gr_trace | None -> None

let obs_counters t =
  [
    ("commits_in", t.stats.commits_in);
    ("aborts_in", t.stats.aborts_in);
    ("relays", t.stats.relays);
    ("plan_errs", t.stats.plan_errs);
    ("replans", replans t);
    ("backouts", backouts t);
    ("delegated_aborted", delegated_aborted t);
  ]

(* --- construction ---------------------------------------------------------------- *)

let create ~nm ~domain ~devices ~peers () =
  let t =
    {
      nm;
      domain;
      devices;
      peers =
        List.map
          (fun st ->
            { p_station = st; p_domain = ""; p_borders = []; p_summary = []; p_devices = []; p_seen = false })
          peers;
      goals = [];
      next_gid = 0;
      next_goal = 0;
      delegated = [];
      plan_reqs = 0;
      stats = { commits_in = 0; aborts_in = 0; relays = 0; plan_errs = 0 };
      registry = None;
    }
  in
  Nm.set_owned_devices nm devices;
  Nm.set_fed_hook nm (fun ~src msg -> handle t ~src msg);
  Nm.set_convey_relay nm (fun ~src ~dst payload -> relay_out t ~src ~dst payload);
  t
