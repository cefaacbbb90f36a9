(* The Network Manager (§II-D): discovers the network over the management
   channel, harvests module abstractions, achieves high-level connectivity
   goals by generating and executing CONMan scripts, relays conveyMessage
   traffic between modules, and maintains dependencies via triggers.

   The NM is driven from outside the event loop: its helpers send requests
   and run the network to quiescence, while all module coordination happens
   asynchronously inside the run. *)

(* [acks] is deliberately separate from [received]: the paper's Table VI
   counts protocol messages, and explicit success acks are our honesty
   add-on, not part of the accounting being reproduced. *)
type stats = { mutable sent : int; mutable received : int; mutable acks : int }

(* The per-goal logs (the figure-3 convey trace, module completions,
   retired intents) are bounded drop-oldest rings with a dropped counter,
   like Netsim.Trace and the Monitor's event ring, so an NM serving goals
   in a long closed loop holds constant memory. The journal keeps as many
   retired intents. *)
let log_capacity = Intent.log_capacity

type 'a ring = { items : 'a Queue.t; mutable dropped : int }

let ring () = { items = Queue.create (); dropped = 0 }

let record r x =
  Queue.add x r.items;
  if Queue.length r.items > log_capacity then begin
    ignore (Queue.pop r.items);
    r.dropped <- r.dropped + 1
  end

let contents r = List.of_seq (Queue.to_seq r.items)

type t = {
  chan : Mgmt.Channel.t;
  transport : Mgmt.Reliable.t option; (* when the channel is lossy *)
  my_id : string; (* device id of the management station *)
  net : Netsim.Net.t;
  topo : Topology.t;
  stats : stats;
  mutable req : int;
  mutable inflight : (int * string * Wire.t) list;
      (* state-changing requests (bundles, address assignments) sent but
         not yet confirmed — replayed by a standby after take_over *)
  reads : (int, Wire.t option) Hashtbl.t;
      (* read requests (showPotential, showActual, showPerf, selfTest) by
         id: [None] until the answer arrives, then the answer, held only
         until its reader takes it *)
  mutable awaited : int; (* replies the current read round still waits for *)
  writes : (string, int ref) Hashtbl.t;
      (* state-changing requests sent to each device, re-sends included *)
  completions : (Ids.t * string) ring;
  mutable errors : (string * string) list;
  mutable triggers : (Ids.t * string * string) list;
  convey_log : (Ids.t * Ids.t * Peer_msg.t) ring; (* figure-3 trace *)
  mutable active_scripts : Script_gen.script list; (* for dependency repair *)
  mutable auto_repair : bool;
  journal : Intent.journal; (* write-ahead journal of desired state *)
  mutable live : Intent.t list; (* live intents, newest first *)
  retired : Intent.t ring; (* the last [log_capacity] retired intents *)
  mutable next_intent : int;
  pending_deletes : (string, Primitive.t list) Hashtbl.t;
      (* deletion primitives owed to devices that were unreachable when a
         script was backed out — flushed when the device says Hello again,
         so back-out does not leak datapath state onto dead devices *)
  mutable horizon : int64 option;
      (* when set, a call runs the network only until its own exchange is
         over, and never past this virtual time, instead of draining the
         queue — lets the monitor interleave with scheduled faults *)
  mutable epoch : int;
      (* leadership epoch (see Ha). 0 = single-NM legacy mode, frames go out
         unfenced; > 0 = every frame is wrapped in Wire.Fenced so agents can
         reject a deposed primary *)
  mutable ha_hook : (src:string -> Wire.t -> unit) option;
      (* receives NM-to-NM HA traffic (heartbeats, journal shipping) and
         takeover announcements — installed by Ha *)
  mutable fed_hook : (src:string -> Wire.t -> unit) option;
      (* receives NM-to-NM federation traffic (adverts, delegated plans,
         two-phase commits, relays) — installed by Fed *)
  mutable convey_relay : (src:Ids.t -> dst:Ids.t -> Peer_msg.t -> unit) option;
      (* invoked instead of direct delivery when a conveyMessage targets a
         module on a device outside this NM's domain *)
  mutable owned_devices : string list option;
      (* None = single-NM legacy mode, the NM owns everything it sees;
         Some l = federated mode, the NM's administrative domain *)
  mutable foreign_writes : int;
      (* state-changing requests sent to devices outside the owned set —
         the federation invariant demands this stays 0 *)
  mutable on_inflight_add : (int * string * Wire.t -> unit) option;
      (* fired when a state-changing request enters the in-flight set —
         Ha ships the delta to the standby *)
  mutable on_confirm : (int -> unit) option;
      (* fired when an in-flight request is confirmed (left the set) *)
  mutable obs : Obs.Trace.t option;
      (* span collector; None = tracing off, all span work is skipped *)
  mutable trace_ctx : Obs.Trace.ctx option;
      (* the ambient span goal-scoped operations run under: bundles sent
         while it is set become its children (and carry the context on the
         wire via Wire.Traced) *)
  req_trace : (int, Obs.Trace.ctx) Hashtbl.t;
      (* request id -> the span tracking that request; re-sends reuse the
         span (an event, never a duplicate span) *)
  mutable registry : Obs.Registry.t option;
      (* metrics registry for phase-latency histograms *)
  mutable rx_ctx : Obs.Trace.ctx option;
      (* context carried by the frame currently being dispatched — the HA
         and federation hooks read it to parent their spans on the
         sender's *)
}

(* An NM holding a non-zero epoch fences everything it sends; agents drop
   frames from lower epochs, so a deposed primary cannot issue conflicting
   configuration. Epoch 0 keeps the legacy single-NM byte encoding. *)
let encode_out t msg =
  Wire.encode (if t.epoch > 0 then Wire.Fenced { epoch = t.epoch; msg } else msg)

let send t ~dst msg =
  t.stats.sent <- t.stats.sent + 1;
  Mgmt.Channel.send t.chan ~cls:(Wire.priority_of msg) ~src:t.my_id ~dst (encode_out t msg)

(* Looks through the trace wrapper — matchers that compare bundle payloads
   byte-wise (back-out cancellation, federation pending checks) must see
   the bundle itself, whatever context it carries. *)
let rec payload_of = function Wire.Traced { msg; _ } -> payload_of msg | m -> m

(* Opens a span for a goal-scoped operation (achieve, back-out, repair)
   and makes it the ambient parent of every request sent until the
   matching [close_goal]. Nested opens chain naturally: a back-out inside
   an achieve becomes its child. No-ops when tracing is off. *)
let open_goal t name =
  match t.obs with
  | None -> None
  | Some obs ->
      let saved = t.trace_ctx in
      let ctx =
        match saved with
        | Some parent -> Obs.Trace.start ~parent obs name
        | None -> Obs.Trace.start obs name
      in
      t.trace_ctx <- Some ctx;
      Some (ctx, saved)

let close_goal t handle ~status =
  match (t.obs, handle) with
  | Some obs, Some (ctx, saved) ->
      Obs.Trace.finish obs ctx ~status;
      t.trace_ctx <- saved
  | _ -> ()

(* Closes the span tracking request [req]. Failover-replay spans also feed
   the ha.failover_replay_ticks histogram: the ticks between the promoted
   standby re-issuing its predecessor's request and the confirm. *)
let finish_req t req status =
  match (t.obs, Hashtbl.find_opt t.req_trace req) with
  | Some obs, Some ctx ->
      (match (t.registry, Obs.Trace.find obs ctx.Obs.Trace.span) with
      | Some reg, Some s
        when status = "ok"
             && String.length s.Obs.Trace.s_name >= 7
             && String.sub s.Obs.Trace.s_name 0 7 = "replay:" ->
          Obs.Registry.observe reg "ha.failover_replay_ticks"
            (max 0 (Obs.Trace.now obs - s.Obs.Trace.s_start))
      | _ -> ());
      Obs.Trace.finish obs ctx ~status;
      Hashtbl.remove t.req_trace req
  | _ -> ()

(* Does this NM's administrative domain cover [dev]? Unset = legacy
   single-NM mode: everything is ours. *)
let owns t dev =
  match t.owned_devices with None -> true | Some l -> dev = t.my_id || List.mem dev l

(* Sends a state-changing request and remembers it until the agent
   confirms (Bundle_ack / Ack / Bundle_err). *)
let send_req t ~dst ~req msg =
  if not (owns t dst) then t.foreign_writes <- t.foreign_writes + 1;
  (* Attach the trace context. A request already carrying one (a flush or
     takeover replay of a stored wrapped message) just notes the attempt
     on its existing span — re-sends must never mint duplicate spans. *)
  let msg =
    match t.obs with
    | None -> msg
    | Some obs -> (
        match Wire.trace_of msg with
        | Some ctx ->
            Obs.Trace.event obs ctx "reissued";
            msg
        | None -> (
            match Hashtbl.find_opt t.req_trace req with
            | Some ctx ->
                Obs.Trace.event obs ctx "reissued";
                Wire.Traced { ctx; msg }
            | None -> (
                match t.trace_ctx with
                | Some parent ->
                    let ctx = Obs.Trace.start ~parent obs ("bundle:" ^ dst) in
                    Obs.Trace.event obs ctx "sent";
                    Hashtbl.replace t.req_trace req ctx;
                    Wire.Traced { ctx; msg }
                | None -> msg)))
  in
  t.inflight <- (req, dst, msg) :: t.inflight;
  (match t.on_inflight_add with Some f -> f (req, dst, msg) | None -> ());
  (match Hashtbl.find t.writes dst with
  | n -> incr n
  | exception Not_found -> Hashtbl.add t.writes dst (ref 1));
  send t ~dst msg

let confirm t req =
  match List.partition (fun (r, _, _) -> r = req) t.inflight with
  | [], _ -> ()
  | _, keep ->
      t.inflight <- keep;
      (match t.on_confirm with Some f -> f req | None -> ())

(* Ships [cmds] to [dst] as one bundle under a fresh request id, with the
   NM's annex knowledge (customer prefixes, the script's reporter). *)
let send_bundle ?reporter t ~dst cmds =
  t.req <- t.req + 1;
  send_req t ~dst ~req:t.req
    (Wire.Bundle
       { req = t.req; cmds; annex = { Wire.domains = t.topo.Topology.domain_prefixes; reporter } })

(* [batched:false] ships every primitive as its own message instead of one
   bundle per device — an ablation of the paper's accounting assumption
   that the NM sends "commands to each router" as one unit. *)
let send_script ?(batched = true) t (script : Script_gen.script) =
  let reporter = script.Script_gen.reporter in
  List.iter
    (fun (dst, prims) ->
      if batched then send_bundle ?reporter t ~dst prims
      else List.iter (fun p -> send_bundle ?reporter t ~dst [ p ]) prims)
    script.Script_gen.per_device

(* Ships only the slices of [script]'s deletion script that target devices
   the NM can still talk to — used to back out a partially-applied script
   when a device died mid-execution. Slices owed to unreachable devices are
   parked in [pending_deletes] and flushed when the device comes back. *)
let send_deletion_reachable t (script : Script_gen.script) =
  let del = Script_gen.deletion_script script in
  List.iter
    (fun (dev, prims) ->
      if prims <> [] then
        if Topology.is_reachable t.topo dev then send_bundle t ~dst:dev prims
        else
          let owed = Option.value ~default:[] (Hashtbl.find_opt t.pending_deletes dev) in
          Hashtbl.replace t.pending_deletes dev (owed @ prims))
    del.Script_gen.per_device

(* Sends the one request that realises an address or rate intent, without
   running the network: an address assignment to an IP module, the task the
   paper deliberately centralises in the NM "as DHCP servers do today"
   (§II-E), or performance-enforcement state (§II-D.1(c)) that rate-limits
   what a module sends into a pipe. *)
let send_setting t = function
  | Intent.Address { target; addr; plen } ->
      t.req <- t.req + 1;
      send_req t ~dst:target.Ids.dev ~req:t.req
        (Wire.Set_address { req = t.req; target; addr; plen })
  | Intent.Rate { owner; pipe_id; rate_kbps } ->
      send_bundle t ~dst:owner.Ids.dev [ Primitive.Create_perf { owner; pipe_id; rate_kbps } ]
  | Intent.Connect _ | Intent.Connect_l2 _ -> ()

let setting_device = function
  | Intent.Address { target = m; _ } | Intent.Rate { owner = m; _ } -> Some m.Ids.dev
  | Intent.Connect _ | Intent.Connect_l2 _ -> None

let fresh_req t =
  t.req <- t.req + 1;
  Hashtbl.replace t.reads t.req None;
  t.req

(* Per-process NM boot counter; see [create]. *)
let req_stride = 1 lsl 20
let incarnations = ref 0

(* Pins the boot counter — harnesses that need cross-process reproducible
   request ids (the chaos engine) reset it before building a fresh world.
   Never call this while agents from an earlier NM generation share a
   channel with a new one: reused ids would be answered from reply caches. *)
let set_incarnations n = incarnations := n

(* Deletions owed from back-outs that could not reach the device: deliver
   them the moment it proves live again. *)
let settle_debts t src =
  match Hashtbl.find_opt t.pending_deletes src with
  | Some prims when prims <> [] ->
      Hashtbl.remove t.pending_deletes src;
      send_bundle t ~dst:src prims
  | _ -> Hashtbl.remove t.pending_deletes src

(* A read reply is kept for its reader only while the request is still
   unanswered; a late answer (its reader gave up at a horizon), a
   duplicate or a reply to someone else's request is dropped. *)
let answered t req reply =
  match Hashtbl.find_opt t.reads req with
  | Some None ->
      Hashtbl.replace t.reads req (Some reply);
      t.awaited <- t.awaited - 1
  | Some (Some _) | None -> ()

(* Hands the reader its reply and forgets the request, answered or not. *)
let take t req =
  let reply = Option.join (Hashtbl.find_opt t.reads req) in
  Hashtbl.remove t.reads req;
  reply

let rec handle t ~src payload =
  match Wire.decode payload with
  | exception (Sexp.Parse_error _ | Mgmt.Frame.Bad_frame _) -> ()
  | msg -> handle_msg t ~src msg

and handle_msg t ~src msg =
  match msg with
  | Wire.Fenced { epoch = _; msg } ->
      (* NM-to-NM frames arrive fenced; the HA layer judges the epochs
         carried inside the messages themselves *)
      handle_msg t ~src msg
  | Wire.Traced { ctx; msg } ->
      (* replies come back traced; request-id correlation already ties
         them to their spans. Remember the context for the duration of
         the dispatch so the federation/HA hooks can parent on it. *)
      t.rx_ctx <- Some ctx;
      handle_msg t ~src msg;
      t.rx_ctx <- None
  | Wire.Ha_heartbeat _ | Wire.Ha_journal _ | Wire.Ha_journal_ack _ | Wire.Ha_inflight _
  | Wire.Ha_confirm _ | Wire.Nm_takeover _ -> (
      (* HA traffic stays out of the Table-VI message accounting *)
      match t.ha_hook with Some f -> f ~src msg | None -> ())
  | Wire.Fed_advert _ | Wire.Fed_plan_req _ | Wire.Fed_plan_resp _ | Wire.Fed_plan_err _
  | Wire.Fed_commit _ | Wire.Fed_commit_ack _ | Wire.Fed_commit_err _ | Wire.Fed_abort _
  | Wire.Fed_abort_ack _ | Wire.Fed_relay _ -> (
      (* inter-NM federation traffic likewise stays out of the accounting *)
      match t.fed_hook with Some f -> f ~src msg | None -> ())
  | _ -> (
      (* Any message from a known device is proof of liveness: if the
         transport had given up on it (marking it unreachable) but the
         device never actually crashed, no Hello will ever arrive — so
         restore reachability here and settle parked deletion debts.
         Hellos are excluded: the Hello arm below does the full rebooted-
         device recovery (re-showPotential + script re-sync). *)
      (match msg with
      | Wire.Hello _ -> ()
      | _ ->
          if Topology.device t.topo src <> None && not (Topology.is_reachable t.topo src)
          then begin
            Topology.set_reachable t.topo src true;
            settle_debts t src
          end);
      (* Success acks stay out of the Table-VI message accounting (they
         are our addition, not the paper's). *)
      (match msg with
      | Wire.Bundle_ack _ | Wire.Ack _ -> ()
      | _ -> t.stats.received <- t.stats.received + 1);
      match msg with
      | Wire.Bundle_ack { req } | Wire.Ack { req } ->
          t.stats.acks <- t.stats.acks + 1;
          finish_req t req "ok";
          confirm t req
      | Wire.Hello { ports } ->
          let recovered =
            Topology.device t.topo src <> None && not (Topology.is_reachable t.topo src)
          in
          Topology.record_hello t.topo ~src ports;
          if recovered then begin
            (* The device came back (§II-E dependency maintenance applied to
               the device itself): relearn its potential and re-apply the
               slices of every active script that configure it. *)
            Topology.set_reachable t.topo src true;
            send t ~dst:src (Wire.Show_potential_req { req = fresh_req t });
            (* settle debts first: deletions owed from back-outs that could
               not reach the device must precede re-applied scripts, since
               pipe ids can collide across scripts *)
            settle_debts t src;
            List.iter
              (fun (script : Script_gen.script) ->
                List.iter
                  (fun (dev, prims) ->
                    if dev = src && prims <> [] then
                      send_bundle ?reporter:script.Script_gen.reporter t ~dst:dev prims)
                  script.Script_gen.per_device)
              t.active_scripts;
            (* and the live address and rate intents it holds, oldest
               first: the Monitor leaves realised ones alone *)
            List.iter
              (fun (i : Intent.t) ->
                if setting_device i.Intent.spec = Some src then send_setting t i.Intent.spec)
              (List.rev t.live)
          end
      | Wire.Show_potential_resp { req; modules } ->
          Topology.record_potential t.topo ~src modules;
          Hashtbl.remove t.reads req
      | Wire.Show_actual_resp { req; _ } | Wire.Show_actual_unchanged { req }
      | Wire.Show_perf_resp { req; _ } | Wire.Self_test_resp { req; _ } ->
          answered t req msg
      | Wire.Convey { src = msrc; dst; payload } -> (
          (* the NM relays module-to-module messages (conveyMessage); a
             destination outside our domain is handed to the federation
             layer, which forwards it to the owning NM *)
          record t.convey_log (msrc, dst, payload);
          match t.convey_relay with
          | Some relay when not (owns t dst.Ids.dev) -> relay ~src:msrc ~dst payload
          | _ -> send t ~dst:dst.Ids.dev (Wire.Convey { src = msrc; dst; payload }))
      | Wire.Completion { src = m; what } -> record t.completions (m, what)
      | Wire.Bundle_err { req; error } ->
          (* the request reached the device; it failed rather than vanished *)
          finish_req t req ("failed: " ^ error);
          confirm t req;
          t.errors <- (src, error) :: t.errors
      | Wire.Trigger { src = m; field; value } ->
          t.triggers <- (m, field, value) :: t.triggers;
          (* dependency maintenance (§II-E): a low-level value changed; the
             NM re-resolves the dependent state by re-issuing the affected
             scripts, whose execution is idempotent. *)
          if t.auto_repair then List.iter (send_script t) t.active_scripts
      | Wire.Show_potential_req _ | Wire.Show_actual_req _ | Wire.Show_actual_unless _
      | Wire.Show_perf_req _ | Wire.Bundle _
      | Wire.Self_test_req _ | Wire.Set_address _
      (* consumed by the outer match; listed for exhaustiveness *)
      | Wire.Nm_takeover _ | Wire.Fenced _ | Wire.Traced _ | Wire.Ha_heartbeat _ | Wire.Ha_journal _
      | Wire.Ha_journal_ack _ | Wire.Ha_inflight _ | Wire.Ha_confirm _ | Wire.Fed_advert _
      | Wire.Fed_plan_req _ | Wire.Fed_plan_resp _ | Wire.Fed_plan_err _ | Wire.Fed_commit _
      | Wire.Fed_commit_ack _ | Wire.Fed_commit_err _ | Wire.Fed_abort _ | Wire.Fed_abort_ack _
      | Wire.Fed_relay _ ->
        ())

and create ?transport ?journal ~chan ~net ~my_id () =
  let journal = match journal with Some j -> j | None -> Intent.journal () in
  (* Agents cache one reply per request id to make retried requests
     idempotent, so request ids must never repeat across NM incarnations:
     a restarted NM reusing a dead incarnation's ids would have its fresh
     bundles answered from that cache without being executed. Each
     incarnation gets its own stride of id space. *)
  incr incarnations;
  let t =
    {
      chan;
      transport;
      my_id;
      net;
      topo = Topology.create ();
      stats = { sent = 0; received = 0; acks = 0 };
      req = !incarnations * req_stride;
      inflight = [];
      reads = Hashtbl.create 16;
      awaited = 0;
      writes = Hashtbl.create 16;
      completions = ring ();
      errors = [];
      triggers = [];
      convey_log = ring ();
      active_scripts = [];
      auto_repair = false;
      journal;
      live = List.rev (Intent.replay journal);
      retired = ring ();
      next_intent = Intent.next_id journal;
      pending_deletes = Hashtbl.create 8;
      horizon = None;
      epoch = 0;
      ha_hook = None;
      fed_hook = None;
      convey_relay = None;
      owned_devices = None;
      foreign_writes = 0;
      on_inflight_add = None;
      on_confirm = None;
      obs = None;
      trace_ctx = None;
      req_trace = Hashtbl.create 32;
      registry = None;
      rx_ctx = None;
    }
  in
  Mgmt.Channel.subscribe chan ~device_id:my_id (fun ~src payload -> handle t ~src payload);
  (* When the transport abandons a destination, degrade gracefully: mark
     the device unreachable so goal achievement routes around it. *)
  Option.iter
    (fun tr ->
      Mgmt.Reliable.on_give_up tr (fun ~src ~dst ->
          if src = t.my_id then Topology.set_reachable t.topo dst false))
    transport;
  t

let reset_stats t =
  t.stats.sent <- 0;
  t.stats.received <- 0;
  t.stats.acks <- 0

(* Runs the network for one call. Without a horizon it drains the queue,
   so a goal also waits for module negotiations to settle. With one, it
   runs only while [busy ()] says the call's exchange is open, and never
   past the horizon: the call consumes only the virtual time its own
   exchange takes, and later scheduled events (link cuts, restores) stay
   queued for the caller's next [run_until]. *)
let run_while t busy =
  match t.horizon with
  | None -> ignore (Netsim.Net.run t.net)
  | Some deadline ->
      ignore (Netsim.Event_queue.run_while (Netsim.Net.eq t.net) ~deadline busy)

(* A write is open while a state-changing request is unconfirmed or a
   reliable frame unacked. *)
let writing t =
  match t.inflight with
  | _ :: _ -> true
  | [] -> ( match t.transport with Some tr -> Mgmt.Reliable.in_flight tr > 0 | None -> false)

let run t = run_while t (fun () -> writing t)

let set_horizon t h = t.horizon <- h

(* --- intents ------------------------------------------------------------------ *)

(* Journals the intent before anything is configured (write-ahead). An
   equivalent live intent is reused, so re-asking for the same goal after a
   failure does not duplicate desired state. *)
let record_intent t spec =
  match List.find_opt (fun (i : Intent.t) -> Intent.spec_equal i.Intent.spec spec) t.live with
  | Some i -> i
  | None ->
      let i = Intent.make ~id:t.next_intent spec in
      t.next_intent <- t.next_intent + 1;
      t.live <- i :: t.live;
      Intent.append t.journal (Intent.Begin (i.Intent.id, spec));
      i

let commit_intent t (i : Intent.t) =
  Intent.append t.journal (Intent.Commit i.Intent.id);
  i.Intent.status <- Intent.Active

let bind_intent t (i : Intent.t) script =
  i.Intent.script <- Some script;
  Intent.clear_baseline i;
  (* Journal which path the intent is bound to, so an NM that crashes and
     restarts can regenerate this incarnation's script (the generator is
     deterministic per goal+path) and back its state out before achieving
     over a possibly different path. Only paths have signatures; layer-2
     scripts carry an empty path and are resynced in place instead. *)
  (match script.Script_gen.path.Path_finder.visits with
  | [] -> ()
  | _ ->
      let sg = Path_finder.signature script.Script_gen.path in
      if i.Intent.journal_sig <> Some sg then begin
        Intent.append t.journal (Intent.Bind (i.Intent.id, sg));
        i.Intent.journal_sig <- Some sg
      end);
  commit_intent t i

(* Retires the live intents matching [f], in id order: each is journalled,
   loses its script and moves to the retired ring. *)
let retire_intents t f =
  let gone, kept = List.partition f t.live in
  t.live <- kept;
  List.iter
    (fun (i : Intent.t) ->
      Intent.append t.journal (Intent.Retire i.Intent.id);
      i.Intent.status <- Intent.Retired;
      i.Intent.script <- None;
      record t.retired i)
    (List.rev gone)

(* --- discovery -------------------------------------------------------------- *)

(* showPotential at every device the NM knows about (or is told to manage). *)
let harvest_potentials t devices =
  List.iter (fun dev -> send t ~dst:dev (Wire.Show_potential_req { req = fresh_req t })) devices;
  run t

(* One round of reads: sends each listed device the request [ask] builds
   from a fresh id, runs the network once and takes each reply by its id,
   in list order. Within a horizon the round ends when its last reply is
   in. A device that did not answer (within the horizon) reads [None]. An
   empty round runs nothing. *)
let read_round t = function
  | [] -> []
  | asks ->
      t.awaited <- List.length asks;
      let sent =
        List.map
          (fun (dev, ask) ->
            let req = fresh_req t in
            send t ~dst:dev (ask req);
            req)
          asks
      in
      run_while t (fun () -> t.awaited > 0);
      List.map (take t) sent

(* showActual, plain or conditional on a tag: [Some None] when the agent
   answered "unchanged". *)
let show_actual_round t reads =
  read_round t
    (List.map
       (fun (dev, tag) ->
         ( dev,
           fun req ->
             match tag with
             | None -> Wire.Show_actual_req { req }
             | Some tag -> Wire.Show_actual_unless { req; tag } ))
       reads)
  |> List.map (function
       | Some (Wire.Show_actual_resp { state; _ }) -> Some (Some state)
       | Some (Wire.Show_actual_unchanged _) -> Some None
       | _ -> None)

let show_actual t dev =
  match show_actual_round t [ (dev, None) ] with [ Some state ] -> state | _ -> None

(* showPerf: per device, its state tag and per-module, per-pipe counter
   snapshots. *)
let show_perf_round t devs =
  read_round t (List.map (fun dev -> (dev, fun req -> Wire.Show_perf_req { req })) devs)
  |> List.map (function
       | Some (Wire.Show_perf_resp { tag; perf; _ }) -> Some (tag, perf)
       | _ -> None)

let show_perf t dev =
  match show_perf_round t [ dev ] with [ Some (_, perf) ] -> Some perf | _ -> None

let writes t dev = match Hashtbl.find t.writes dev with n -> !n | exception Not_found -> 0

(* --- goal achievement (figure 7(a) top: high-level goal -> low-level goal ->
   CONMan script -> protocol state) ------------------------------------------ *)

let find_paths t goal = Path_finder.find t.topo goal

(* Generates the CONMan script for a specific path and executes it. *)
let configure_path ?batched t goal path =
  let script = Script_gen.generate t.topo goal path in
  t.active_scripts <- script :: t.active_scripts;
  send_script ?batched t script;
  run t;
  script

(* Is the in-flight request one of [script]'s bundles? *)
let belongs (script : Script_gen.script) (_, dst, msg) =
  match payload_of msg with
  | Wire.Bundle { cmds; _ } ->
      List.exists
        (fun (dev, prims) -> dev = dst && prims <> [] && cmds = prims)
        script.Script_gen.per_device
  | _ -> false

(* Unconfirmed creates of a script being dismantled must never be
   re-issued by a later [flush_inflight]: a create that was lost in flight
   and re-sent after the back-out's deletion would resurrect state the NM
   no longer wants. The deletion itself still goes out — if the create did
   execute and only its ack was lost, the delete reclaims the state; if it
   never executed, the delete is an idempotent no-op. *)
let cancel_unconfirmed t (script : Script_gen.script) =
  let victims, keep = List.partition (belongs script) t.inflight in
  t.inflight <- keep;
  (* the standby replicated these sends as re-issue candidates; a cancel
     is as final as a confirm, so tell it — otherwise a promotion replays
     the cancelled create after our back-out's delete has run and
     resurrects state nobody wants *)
  List.iter
    (fun (req, _, _) ->
      finish_req t req "cancelled";
      match t.on_confirm with Some f -> f req | None -> ())
    victims;
  (* also recall the transport's own retransmissions of those sends: a
     retry surviving in the timer wheel would otherwise deliver the create
     after the back-out's deletion *)
  Option.iter
    (fun tr ->
      List.iter
        (fun (_, dst, msg) ->
          (* mirror the send-side wrapping or the byte match fails *)
          ignore (Mgmt.Reliable.cancel tr ~src:t.my_id ~dst (encode_out t msg)))
        victims)
    t.transport

(* Backs a partially-applied script out of the devices that still answer,
   and forgets it. *)
let abort_script t (script : Script_gen.script) =
  let g = open_goal t "backout" in
  cancel_unconfirmed t script;
  send_deletion_reachable t script;
  t.active_scripts <- List.filter (fun s -> s != script) t.active_scripts;
  run t;
  close_goal t g ~status:"ok"

(* The achievement pipeline without intent bookkeeping. Every attempt
   plans with the best-first search, which skips devices currently marked
   unreachable; [exclude] skips candidate paths by signature (the
   monitor's "next-best path" lever) and [avoid] skips paths visiting the
   listed devices (diagnosed as faulty). A path device dying mid-script
   costs one of four attempts. *)
let achieve_raw ?(configure = true) ?(exclude = []) ?(avoid = []) t goal =
  let usable d = Topology.is_reachable t.topo d && not (List.mem d avoid) in
  let rec go attempts =
    match Path_finder.best ~exclude ~usable t.topo goal with
    | None, _ -> (
        (* Name the unreachable devices only when they are what stands
           between the NM and a path: a second bounded search counts them
           as usable and names those on the path it finds. *)
        match Topology.unreachable t.topo with
        | [] -> Error "no path satisfies the goal"
        | down -> (
            let usable d = not (List.mem d avoid) in
            match fst (Path_finder.blockers ~exclude ~usable ~down t.topo goal) with
            | Some (_ :: _ as blocking) ->
                Error ("device unreachable: " ^ String.concat ", " blocking)
            | Some [] | None -> Error "no path satisfies the goal"))
    | Some path, { Path_finder.completed; _ } ->
        if not configure then Ok (completed, path, Script_gen.generate t.topo goal path)
        else begin
          let down_before = Topology.unreachable t.topo in
          let script = configure_path t goal path in
          let newly_down =
            match List.filter (fun d -> not (List.mem d down_before)) (Topology.unreachable t.topo) with
            | [] -> []
            | down ->
                let on_path = Path_finder.devices path in
                List.filter (fun d -> List.mem d on_path) down
          in
          if newly_down = [] then Ok (completed, path, script)
          else begin
            (* A path device died mid-script: back out what was applied and
               try again — the dead device is now filtered out, so a retry
               either routes around it or names it. *)
            abort_script t script;
            if attempts > 1 then go (attempts - 1)
            else Error ("device unreachable: " ^ String.concat ", " newly_down)
          end
        end
  in
  go 4

let achieve ?(configure = true) t goal =
  if not configure then achieve_raw ~configure:false t goal
  else begin
    (* write-ahead: the intent is journalled before any device is touched *)
    let g = open_goal t "achieve" in
    let intent = record_intent t (Intent.Connect goal) in
    match achieve_raw ~configure:true t goal with
    | Ok (_, _, script) as ok ->
        bind_intent t intent script;
        close_goal t g ~status:"ok";
        ok
    | Error e ->
        Intent.note_error intent e;
        close_goal t g ~status:("failed: " ^ e);
        Error e
  end

(* --- multiple NMs (§V): warm standby and takeover ------------------------------ *)

(* Copies the primary's learnt state (topology, domain knowledge, active
   scripts) into a standby NM so it can maintain the network after a
   takeover. Nothing mutable is shared: topology records are copied,
   intents are rebuilt by replaying the journal entries shipped over, so
   post-replication mutations on the primary cannot leak into the standby.
   (Ha replaces this one-shot copy with continuous journal-shipping; this
   remains the bootstrap and the §V manual-failover path.) *)
let replicate_to t ~(standby : t) =
  Topology.assign standby.topo ~from:t.topo;
  standby.active_scripts <- t.active_scripts;
  standby.auto_repair <- t.auto_repair;
  (* ship the journal entries the standby lacks, numbered as on the primary,
     and rebuild its intent list from its own journal — fresh records, not
     aliases of the primary's *)
  Intent.catch_up standby.journal ~from:t.journal;
  standby.live <- List.rev (Intent.replay standby.journal);
  standby.next_intent <- max standby.next_intent (Intent.next_id standby.journal);
  (* requests the primary has issued but not yet seen confirmed: the
     standby must be able to replay them if it takes over mid-script
     (tuples are immutable, so sharing the spine is harmless — the
     standby's list evolves independently) *)
  standby.inflight <- t.inflight;
  standby.req <- max standby.req t.req

(* The standby announces itself as the NM in charge: every agent redirects
   its management traffic (triggers, conveys, responses). The broadcast is
   best-effort, so each known device also gets a unicast (which the
   transport retries); then any request the primary died without seeing
   confirmed is re-issued under this NM's identity.

   Leadership is epoch-fenced: the announcement carries a strictly larger
   epoch (the caller's, or ours + 1 by default), agents reject anything
   older, and from here on every frame this NM sends is fenced with it. *)
let take_over ?epoch t =
  t.epoch <- (match epoch with Some e -> max t.epoch e | None -> t.epoch + 1);
  send t ~dst:Mgmt.Frame.broadcast (Wire.Nm_takeover { nm = t.my_id; epoch = t.epoch });
  List.iter
    (fun (d : Topology.device_info) ->
      if d.Topology.di_id <> t.my_id then
        send t ~dst:d.Topology.di_id (Wire.Nm_takeover { nm = t.my_id; epoch = t.epoch }))
    t.topo.Topology.devices;
  let pending = List.rev t.inflight in
  t.inflight <- [];
  List.iter
    (fun (req, dst, msg) ->
      (* A replayed request carries the dead primary's context: open a
         replay span here, parented on it, so the failover shows up in the
         goal's tree under the new station (and new epoch). *)
      let msg =
        match t.obs with
        | Some obs -> (
            match Wire.trace_of msg with
            | Some parent ->
                let ctx = Obs.Trace.start ~parent obs ("replay:" ^ dst) in
                Hashtbl.replace t.req_trace req ctx;
                Wire.Traced { ctx; msg = payload_of msg }
            | None -> msg)
        | None -> msg
      in
      send_req t ~dst ~req msg)
    pending;
  run t

let assign_address t ~target ~addr ~plen =
  let intent = record_intent t (Intent.Address { target; addr; plen }) in
  send_setting t intent.Intent.spec;
  run t;
  commit_intent t intent

let enforce_rate t ~owner ~pipe_id ~rate_kbps =
  let intent = record_intent t (Intent.Rate { owner; pipe_id; rate_kbps }) in
  send_setting t intent.Intent.spec;
  run t;
  commit_intent t intent

let remove_rate t ~owner ~pipe_id =
  send_bundle t ~dst:owner.Ids.dev [ Primitive.Delete_perf { owner; pipe_id } ];
  retire_intents t (fun (i : Intent.t) ->
      match i.Intent.spec with
      | Intent.Rate { owner = o; pipe_id = p; rate_kbps = _ } -> Ids.equal o owner && p = pipe_id
      | _ -> false);
  run t

(* Tears a configured script down: deletes switch rules (undoing the
   device-level state) and pipes, and stops maintaining it. The intent it
   realised (if any) is retired in the journal. *)
let teardown t (script : Script_gen.script) =
  cancel_unconfirmed t script;
  let del = Script_gen.deletion_script script in
  send_script t del;
  t.active_scripts <- List.filter (fun s -> s != script) t.active_scripts;
  retire_intents t (fun (i : Intent.t) ->
      match i.Intent.script with Some s -> s == script | None -> false);
  run t

(* --- layer-2 (VLAN) goals: figure 9 ------------------------------------------

   Connect two customer-facing modules across a chain of two or more
   layer-2 switches by creating VLAN pipes; the VID is negotiated by the
   modules. *)

(* The physical pipe facing outside the managed scope: the customer port. *)
let customer_phys t (eth : Ids.t) ~scope =
  let a = Topology.find_module_exn t.topo eth in
  List.find_map
    (fun (p : Abstraction.physical_pipe) ->
      if not (List.mem p.Abstraction.peer_device scope) then Some p.Abstraction.phys_id else None)
    a.Abstraction.physical

(* Each switch of the chain contributes its physical-facing module
   towards a chain neighbour and the module the potential graph puts
   above that one. *)
let achieve_l2_raw ?(configure = true) t ~scope ~from_eth ~to_eth =
  match
    Topology.device_walk t.topo
      ~within:(fun dev -> List.mem dev scope)
      ~src:from_eth.Ids.dev ~dst:to_eth.Ids.dev
  with
  | None -> Error "no layer-2 chain between the switches"
  | Some ([] | [ _ ]) -> Error "a layer-2 goal needs two switches"
  | Some chain -> (
      let graph = Topology.graph t.topo in
      let devs = Array.of_list chain in
      let n = Array.length devs in
      let get = function Some x -> x | None -> raise Exit in
      match
        let facing i j =
          get (Potential_graph.facing (Potential_graph.modules_of graph devs.(i)) devs.(j))
        in
        let eth = Array.init n (fun i -> fst (facing i (if i = 0 then 1 else i - 1))) in
        let above m = match Potential_graph.above graph m with v :: _ -> v | [] -> raise Exit in
        (* the ports at the two ends of the trunk between switches i and i + 1 *)
        let ports = Array.init (n - 1) (fun i -> (snd (facing i (i + 1)), snd (facing (i + 1) i))) in
        (eth, Array.map above eth, ports)
      with
      | exception Exit -> Error "a chain switch lacks a physical-facing module with one above it"
      | eth, vlan, ports -> (
          match (customer_phys t eth.(0) ~scope, customer_phys t eth.(n - 1) ~scope) with
          | Some p0_a, Some p0_c ->
              let pipe k ~top ~bottom ~peer_top ~peer_bottom =
                {
                  Primitive.pipe_id = Printf.sprintf "P%d" k;
                  top;
                  bottom;
                  peer_top = Some peer_top;
                  peer_bottom = Some peer_bottom;
                  tradeoffs = [];
                  deps = [];
                }
              in
              (* customer pipes at the two ends: top ETH, bottom VLAN, peered
                 with the far end (figure 9(b) P1) *)
              let cust_a =
                pipe 1 ~top:eth.(0) ~bottom:vlan.(0) ~peer_top:eth.(n - 1) ~peer_bottom:vlan.(n - 1)
              and cust_c =
                pipe 2 ~top:eth.(n - 1) ~bottom:vlan.(n - 1) ~peer_top:eth.(0) ~peer_bottom:vlan.(0)
              in
              (* trunk pipes: per adjacent switch pair, one pipe on each side
                 (top VLAN, bottom ETH), peered with the neighbour (fig 9(b) P2) *)
              let left i =
                pipe (3 + (2 * i)) ~top:vlan.(i) ~bottom:eth.(i) ~peer_top:vlan.(i + 1)
                  ~peer_bottom:eth.(i + 1)
              and right i =
                pipe (4 + (2 * i)) ~top:vlan.(i + 1) ~bottom:eth.(i + 1) ~peer_top:vlan.(i)
                  ~peer_bottom:eth.(i)
              in
              let id p = p.Primitive.pipe_id in
              let switch owner rule = Primitive.Create_switch { owner; rule } in
              let bidi owner a b = switch owner (Primitive.Bidi (a, b)) in
              (* switch rules at the end switches (figure 9(b)) *)
              let end_rules eth cust p0 =
                [
                  switch eth
                    (Primitive.Directed { from_pipe = p0; to_pipe = id cust; sel = Primitive.Tagged });
                  switch eth
                    (Primitive.Directed { from_pipe = id cust; to_pipe = p0; sel = Primitive.Any });
                ]
              in
              let trunks = List.init (n - 1) Fun.id in
              let prims =
                List.map
                  (fun p -> Primitive.Create_pipe p)
                  (cust_a :: cust_c :: List.concat_map (fun i -> [ left i; right i ]) trunks)
                @ end_rules eth.(0) cust_a p0_a
                @ end_rules eth.(n - 1) cust_c p0_c
                (* VLAN switch rules and trunk hand-off rules *)
                @ bidi vlan.(0) (id cust_a) (id (left 0))
                  :: bidi vlan.(n - 1) (id cust_c) (id (right (n - 2)))
                  :: List.init (n - 2) (fun k ->
                         bidi vlan.(k + 1) (id (right k)) (id (left (k + 1))))
                (* bind trunk pipes to their physical ports *)
                @ List.concat_map
                    (fun i ->
                      [
                        bidi eth.(i) (id (left i)) (fst ports.(i));
                        bidi eth.(i + 1) (id (right i)) (snd ports.(i));
                      ])
                    trunks
              in
              let per_device =
                List.map (fun d -> (d, List.filter (fun p -> Primitive.target p = d) prims)) chain
              in
              let script =
                {
                  Script_gen.prims;
                  per_device;
                  reporter = Some vlan.(n - 1);
                  path = { Path_finder.visits = [] };
                }
              in
              if configure then begin
                t.active_scripts <- script :: t.active_scripts;
                send_script t script;
                run t
              end;
              Ok script
          | _ -> Error "could not locate the customer-facing ports"))

let achieve_l2 ?(configure = true) t ~scope ~from_eth ~to_eth =
  if not configure then achieve_l2_raw ~configure:false t ~scope ~from_eth ~to_eth
  else begin
    let g = open_goal t "achieve-l2" in
    let intent = record_intent t (Intent.Connect_l2 { scope; from_eth; to_eth }) in
    match achieve_l2_raw ~configure:true t ~scope ~from_eth ~to_eth with
    | Ok script as ok ->
        bind_intent t intent script;
        close_goal t g ~status:"ok";
        ok
    | Error e ->
        Intent.note_error intent e;
        close_goal t g ~status:("failed: " ^ e);
        Error e
  end

(* --- reconciliation support (used by Monitor) --------------------------------- *)

(* Re-realises an intent: backs the stale script out of the devices that
   still answer, then re-achieves. [exclude]/[avoid] steer layer-3 goals
   onto the next-best path. *)
let reconfigure ?(exclude = []) ?(avoid = []) t (intent : Intent.t) =
  let g = open_goal t "reconfigure" in
  let finish res =
    close_goal t g ~status:(match res with Ok () -> "ok" | Error e -> "failed: " ^ e);
    res
  in
  let back_out () =
    match intent.Intent.script with
    | Some old ->
        intent.Intent.script <- None;
        abort_script t old
    | None -> ()
  in
  (* No live script but a journalled Bind: a previous NM incarnation (or a
     failed reconfigure) left datapath state behind over the signed path.
     Regenerate that script — the generator is deterministic for a given
     goal+path — and back it out before achieving, so a recovery onto a
     different path cannot leak labels/xconnects/pipes. *)
  let back_out_ghost goal =
    match intent.Intent.journal_sig with
    | None -> ()
    | Some sg -> (
        match fst (Path_finder.follow t.topo goal sg) with
        | Some path ->
            send_deletion_reachable t (Script_gen.generate t.topo goal path);
            run t
        | None -> ())
  in
  finish
  @@
  match intent.Intent.spec with
  | Intent.Connect goal -> (
      (match intent.Intent.script with
      | Some _ -> back_out ()
      | None -> back_out_ghost goal);
      match achieve_raw ~configure:true ~exclude ~avoid t goal with
      | Ok (_, _, script) ->
          bind_intent t intent script;
          Ok ()
      | Error e ->
          Intent.note_error intent e;
          Error e)
  | Intent.Connect_l2 { scope; from_eth; to_eth } -> (
      back_out ();
      match achieve_l2_raw ~configure:true t ~scope ~from_eth ~to_eth with
      | Ok script ->
          bind_intent t intent script;
          Ok ()
      | Error e ->
          Intent.note_error intent e;
          Error e)
  | (Intent.Address _ | Intent.Rate _) as spec ->
      send_setting t spec;
      run t;
      commit_intent t intent;
      Ok ()

(* Re-converges after a restart from the journal: every live intent is
   re-realised. Agents execute re-issued primitives idempotently and the
   script generator is deterministic, so an intent that survived the crash
   converges to the same configuration without duplicates. *)
let recover t = List.iter (fun i -> ignore (reconfigure t i)) (List.rev t.live)

(* Re-issues every state-changing request sent but never confirmed — the
   backstop for requests the reliable transport abandoned (give-up during a
   partition or long loss burst). Agents cache one reply per (nm, req), so
   a re-send of an already-executed request is answered from the cache
   rather than executed twice; a re-send of a lost one finally lands. The
   monitor calls this each tick, which in particular guarantees back-out
   deletions are eventually delivered instead of leaking datapath state. *)
let flush_inflight t =
  match t.inflight with
  | [] -> ()
  | pending ->
      t.inflight <- [];
      List.iter (fun (req, dst, msg) -> send_req t ~dst ~req msg) (List.rev pending);
      run t

(* Re-sends an intent's script as-is — the repair for configuration drift
   (device state lost a piece the script should have pinned). *)
let resync_intent t (intent : Intent.t) =
  match intent.Intent.script with
  | Some script ->
      send_script t script;
      run t
  | None -> ()

(* Repairs exhausted: the intent needs an operator. *)
let escalate t (intent : Intent.t) msg =
  intent.Intent.status <- Intent.Failed;
  Intent.note_error intent msg;
  t.errors <- (Printf.sprintf "intent-%d" intent.Intent.id, msg) :: t.errors

(* --- debugging (§II-D.2) ------------------------------------------------------ *)

(* Self-tests [targets] in one round, answering in list order. *)
let self_tests ?against t targets =
  read_round t
    (List.map
       (fun target -> (target.Ids.dev, fun req -> Wire.Self_test_req { req; target; against }))
       targets)
  |> List.map (function
       | Some (Wire.Self_test_resp { ok; detail; _ }) -> (ok, detail)
       | _ -> (false, "no response from device (management channel?)"))

let self_test ?against t target = List.hd (self_tests ?against t [ target ])

(* Self-tests every module of a configured path in one round; returns the
   per-module verdicts in path order so a failure can be localised. Each
   module's echo probe waits on its own ICMP waiter, so the tests may
   overlap. *)
let diagnose t (path : Path_finder.path) =
  let mods = List.map (fun (v : Path_finder.visit) -> v.Path_finder.v_mod) path.Path_finder.visits in
  List.map2 (fun m (ok, detail) -> (m, ok, detail)) mods (self_tests t mods)

(* End-to-end probe: asks the path's first customer-edge IP module to test
   data-plane connectivity all the way to the far edge module. Catches
   faults the hop-by-hop tests miss (e.g. a tunnel silently dropping on a
   key mismatch). *)
let probe_end_to_end t (path : Path_finder.path) =
  let edges =
    List.filter
      (fun (v : Path_finder.visit) ->
        v.Path_finder.v_action = Path_finder.Inspect
        && v.Path_finder.v_chain = Path_finder.base_ip)
      path.Path_finder.visits
  in
  match edges with
  | first :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      self_test ~against:last.Path_finder.v_mod t first.Path_finder.v_mod
  | _ -> (false, "path has no customer-edge IP modules")

let topology t = t.topo
let net t = t.net
let journal t = t.journal

let intents t =
  List.sort (fun (a : Intent.t) b -> compare a.Intent.id b.Intent.id) (contents t.retired @ t.live)

let conveys t = contents t.convey_log
let completions t = List.rev (contents t.completions)

let ring_dropped t =
  [
    ("conveys", t.convey_log.dropped);
    ("completions", t.completions.dropped);
    ("retired_intents", t.retired.dropped);
    ("journal_compacted", Intent.compacted t.journal);
  ]

let stored_replies t = Hashtbl.fold (fun _ r n -> if r = None then n else n + 1) t.reads 0
let errors t = t.errors
let triggers t = t.triggers
let set_auto_repair t v = t.auto_repair <- v
let stats_sent t = t.stats.sent
let stats_received t = t.stats.received
let stats_acks t = t.stats.acks
let inflight_count t = List.length t.inflight

(* --- high-availability support (used by Ha) ----------------------------------- *)

let my_id t = t.my_id
let set_epoch t e = t.epoch <- max t.epoch e
let send_msg t ~dst msg = send t ~dst msg
let set_ha_hook t f = t.ha_hook <- Some f

let set_repl_hooks t ~on_add ~on_confirm =
  t.on_inflight_add <- Some on_add;
  t.on_confirm <- Some on_confirm

(* Applies one journal entry shipped from the primary and rebuilds the
   intent list from the (now longer) local journal. Replay is idempotent
   with respect to duplicated entries, so re-shipped deltas are safe. *)
let apply_replicated_entry t entry =
  Intent.append t.journal entry;
  t.live <- List.rev (Intent.replay t.journal);
  t.next_intent <- max t.next_intent (Intent.next_id t.journal)

let inflight t = t.inflight
let set_inflight t l = t.inflight <- l

(* --- federation support (used by Fed) ------------------------------------------ *)

let set_fed_hook t f = t.fed_hook <- Some f
let set_convey_relay t f = t.convey_relay <- Some f
let set_owned_devices t l = t.owned_devices <- Some l
let foreign_writes t = t.foreign_writes

(* --- observability support (wired by Scenarios and the engines) ---------------- *)

let set_obs t obs = t.obs <- Some obs
let obs t = t.obs
let set_registry t reg = t.registry <- Some reg
let set_trace_ctx t c = t.trace_ctx <- c
let trace_ctx t = t.trace_ctx
let rx_ctx t = t.rx_ctx

let obs_counters t =
  [
    ("sent", t.stats.sent);
    ("received", t.stats.received);
    ("acks", t.stats.acks);
    ("foreign_writes", t.foreign_writes);
  ]

(* Ships a ready-made script (a delegated slice of a federated goal, or
   the coordinator's own segment) and starts maintaining it. Deliberately
   does NOT run the network: the federation layer calls this from inside
   delivery callbacks, where the event loop is already executing — the
   bundles go out as the caller's drive advances the network. *)
let run_script t (script : Script_gen.script) =
  t.active_scripts <- script :: t.active_scripts;
  send_script t script

(* Is any of [script]'s bundles still awaiting confirmation? *)
let script_pending t (script : Script_gen.script) = List.exists (belongs script) t.inflight
