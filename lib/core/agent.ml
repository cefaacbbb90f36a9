(* The management agent (MA) of a device (§II): it announces physical
   connectivity, answers showPotential/showActual, executes script bundles
   by dispatching primitives to the local protocol modules, and relays
   conveyMessage traffic between its modules and the NM. *)

type t = {
  device : Netsim.Device.t;
  chan : Mgmt.Channel.t;
  mutable nm_device : string; (* device id of the NM currently in charge *)
  (* Leadership epoch of the NM in charge. Frames fenced with a lower epoch
     come from a deposed primary and are dropped; a higher epoch means a
     newer leader and is adopted. Unfenced frames are epoch 0 (the single-NM
     legacy mode, which never bumps the epoch). *)
  mutable nm_epoch : int;
  mutable fenced_rejects : int; (* lower-epoch frames dropped *)
  mutable takeover_rejects : int; (* stale takeover announcements dropped *)
  mutable malformed_drops : int; (* undecodable frames dropped *)
  mutable modules : Module_impl.t list;
  mutable annex : Wire.annex;
  mutable polling : bool;
  mutable repoll : bool; (* progress was made mid-pass: run another pass *)
  (* Replies already given, keyed by request id: a retried state-changing
     request is answered from here instead of being applied twice. Request
     ids are process-unique across NMs (incarnation striping in Nm), so the
     key deliberately omits the sender — a promoted standby replaying its
     predecessor's unconfirmed request under a new epoch is recognised as
     the same work, keeping the script exactly-once across failover.
     Bounded FIFO — old entries are evicted once confirmed requests can no
     longer be retried in practice. *)
  done_reqs : (int, Wire.t) Hashtbl.t;
  done_order : int Queue.t;
  (* Highest bundle request id ever executed here. Request ids grow with
     the NM's send order, so a cached pure-deletion bundle at or above
     this mark is the newest mutation the agent knows of and may safely
     be re-run (see the Bundle cache-hit arm). *)
  mutable max_exec_req : int;
  mutable obs : Obs.Trace.t option;
      (* span collector, shared with the domain's NM so agent-side spans
         and events land in the same goal tree; None = tracing off *)
  mutable cur_trace : Obs.Trace.ctx option;
      (* context of the frame being dispatched: parents the exec span and
         rides back out on every reply/trigger/convey sent while set *)
}

let done_cache_max = 256

let remember_done t key reply =
  if not (Hashtbl.mem t.done_reqs key) then begin
    Hashtbl.replace t.done_reqs key reply;
    Queue.push key t.done_order;
    while Queue.length t.done_order > done_cache_max do
      Hashtbl.remove t.done_reqs (Queue.pop t.done_order)
    done
  end

let find_module t mref = List.find_opt (fun m -> Ids.equal m.Module_impl.mref mref) t.modules

let find_module_exn t mref =
  match find_module t mref with
  | Some m -> m
  | None -> failwith (Fmt.str "%s: no module %a" t.device.Netsim.Device.dev_name Ids.pp mref)

let send t msg =
  (* anything emitted while a traced frame is being dispatched — replies,
     but also triggers and conveys its execution provoked — carries the
     causing goal's context back to the NM *)
  let msg =
    match t.cur_trace with
    | Some ctx when Wire.trace_of msg = None -> Wire.Traced { ctx; msg }
    | _ -> msg
  in
  Mgmt.Channel.send t.chan ~cls:(Wire.priority_of msg) ~src:t.device.Netsim.Device.dev_id
    ~dst:t.nm_device (Wire.encode msg)

(* Re-polls every module until no one makes further progress; modules call
   [env.progress] when they unblock deferred work of other modules (which,
   mid-pass, schedules another pass so earlier modules see the new state). *)
let rec poll_all t =
  if t.polling then t.repoll <- true
  else begin
    t.polling <- true;
    t.repoll <- true;
    (* each productive pass consumes pending work, so the dependency depth
       bounds the passes; the budget guards against a livelocked module *)
    let budget = ref (4 * (1 + List.length t.modules)) in
    while t.repoll && !budget > 0 do
      t.repoll <- false;
      decr budget;
      List.iter (fun m -> m.Module_impl.poll ()) t.modules
    done;
    t.polling <- false
  end

and env_of t : Module_impl.env =
  {
    Module_impl.device = t.device;
    my_dev = t.device.Netsim.Device.dev_id;
    convey =
      (fun ~src ~dst payload ->
        (* all module-to-module traffic is relayed through the NM *)
        send t (Wire.Convey { src; dst; payload }));
    notify_nm = send t;
    local_query =
      (fun mref key ->
        match find_module t mref with Some m -> m.Module_impl.fields key | None -> None);
    domain_prefix = (fun d -> List.assoc_opt d t.annex.Wire.domains);
    domains = (fun () -> t.annex.Wire.domains);
    is_reporter =
      (fun mref ->
        match t.annex.Wire.reporter with Some r -> Ids.equal r mref | None -> false);
    progress = (fun () -> poll_all t);
    schedule =
      (fun ~delay_ns f -> Netsim.Event_queue.schedule t.device.Netsim.Device.eq ~delay_ns f);
  }

let exec_primitive t (prim : Primitive.t) =
  match prim with
  | Primitive.Create_pipe spec ->
      (* Delivered to the device owning both endpoints: dispatch to the top
         module as `Top and the bottom module as `Bottom. *)
      (find_module_exn t spec.Primitive.top).Module_impl.create_pipe spec `Top;
      (find_module_exn t spec.Primitive.bottom).Module_impl.create_pipe spec `Bottom
  | Primitive.Create_switch { owner; rule } ->
      (find_module_exn t owner).Module_impl.create_switch rule
  | Primitive.Create_filter { owner; drop_src; drop_dst } ->
      (find_module_exn t owner).Module_impl.create_filter ~drop_src ~drop_dst
  | Primitive.Create_perf { owner; pipe_id; rate_kbps } ->
      (find_module_exn t owner).Module_impl.create_perf ~pipe_id ~rate_kbps
  | Primitive.Delete_perf { owner; pipe_id } ->
      (find_module_exn t owner).Module_impl.delete_perf ~pipe_id
  | Primitive.Delete_pipe { owner = _; pipe_id } ->
      (* both endpoint modules hold state for the pipe; modules ignore
         unknown pipe ids *)
      List.iter (fun m -> m.Module_impl.delete_pipe pipe_id) t.modules
  | Primitive.Delete_switch { owner; rule } ->
      (find_module_exn t owner).Module_impl.delete_switch rule
  | Primitive.Delete_filter { owner; drop_src; drop_dst } ->
      (find_module_exn t owner).Module_impl.delete_filter ~drop_src ~drop_dst

(* Runs module code on behalf of request [req]: [ok] if it completes, a
   [Bundle_err] carrying the module's message if the module rejects its
   input (a bad address, an unknown module), so a malformed request never
   escapes into the event loop. *)
let attempt ~req ~ok f =
  try
    f ();
    ok
  with Failure e | Devconf.Linux_cli.Error e -> Wire.Bundle_err { req; error = e }

(* showActual: every module's state report, rendered on each request. *)
let state t = List.map (fun m -> (m.Module_impl.mref, m.Module_impl.actual ())) t.modules

(* A read with a [tag] that still matches the state gets the one-line
   [Show_actual_unchanged] instead. Reads stay out of [done_reqs]: a retry
   simply renders again. *)
let show_actual t ~req tag =
  let state = state t in
  send t
    (match tag with
    | Some tag when String.equal (Wire.state_tag state) tag -> Wire.Show_actual_unchanged { req }
    | _ -> Wire.Show_actual_resp { req; state })

let rec handle_msg t ~src ~epoch msg =
  match msg with
  | Wire.Fenced { epoch; msg } -> handle_msg t ~src ~epoch msg
  | _ when epoch < t.nm_epoch ->
      (* A deposed primary: whatever it wants, it no longer speaks for the
         network. The reliable layer below already acked the envelope, so
         dropping here cannot cause a retry storm. *)
      (match msg with
      | Wire.Nm_takeover _ -> t.takeover_rejects <- t.takeover_rejects + 1
      | _ -> t.fenced_rejects <- t.fenced_rejects + 1)
  | _ ->
      if epoch > t.nm_epoch then begin
        (* a strictly newer leader: redirect before dispatching *)
        t.nm_epoch <- epoch;
        t.nm_device <- src
      end;
      dispatch t ~src msg

and dispatch t ~src msg =
  match msg with
  | Wire.Fenced { epoch; msg } ->
      (* nested fences should not occur; honour the innermost epoch *)
      handle_msg t ~src ~epoch msg
  | Wire.Traced { ctx; msg } ->
      (* remember the goal context for the duration of the dispatch *)
      t.cur_trace <- Some ctx;
      dispatch t ~src msg;
      t.cur_trace <- None
  | Wire.Show_potential_req { req } ->
      let modules =
        List.map (fun m -> (m.Module_impl.mref, m.Module_impl.abstraction ())) t.modules
      in
      send t (Wire.Show_potential_resp { req; modules })
  | Wire.Show_actual_req { req } -> show_actual t ~req None
  | Wire.Show_actual_unless { req; tag } -> show_actual t ~req (Some tag)
  | Wire.Show_perf_req { req } ->
      (* read-only like showActual: never cached in done_reqs, a retry
         simply re-scrapes the (monotonic) counters. The reply carries
         the state's tag, so the NM learns from the scrape alone which
         devices' state it need not read again. *)
      let perf = List.map (fun m -> (m.Module_impl.mref, m.Module_impl.perf ())) t.modules in
      send t (Wire.Show_perf_resp { req; tag = Wire.state_tag (state t); perf })
  | Wire.Bundle { req; cmds; annex } -> (
      match Hashtbl.find_opt t.done_reqs req with
      | Some reply ->
          (* Retried request: the earlier reply was lost, not the work.
             One exception: a pure-deletion bundle at least as new as
             anything executed here is re-run (deletion is idempotent)
             before re-acking. A promoted standby replays its
             predecessor's unconfirmed create/back-out pair in order; if
             the back-out's delete first reached us ahead of the create
             (ordering forfeited by a transport gap-skip) it executed
             against nothing, and answering its replay purely from cache
             would leave the replayed create standing forever. The
             request-id guard keeps a stale delete retry from clobbering
             state a newer script has since rebuilt. *)
          (match (t.obs, t.cur_trace) with
          | Some obs, Some ctx -> Obs.Trace.event obs ctx "replayed-from-cache"
          | _ -> ());
          if req >= t.max_exec_req && cmds <> [] && List.for_all Primitive.is_deletion cmds
          then begin
            t.max_exec_req <- req;
            try
              List.iter (exec_primitive t) cmds;
              poll_all t
            with _ -> ()
          end;
          send t reply
      | None ->
          if req > t.max_exec_req then t.max_exec_req <- req;
          t.annex <-
            {
              Wire.domains =
                annex.Wire.domains
                @ List.filter
                    (fun (d, _) -> not (List.mem_assoc d annex.Wire.domains))
                    t.annex.Wire.domains;
              reporter = (match annex.Wire.reporter with Some r -> Some r | None -> t.annex.Wire.reporter);
            };
          let span =
            match (t.obs, t.cur_trace) with
            | Some obs, Some parent ->
                Some (obs, Obs.Trace.start ~parent obs ("exec:" ^ t.device.Netsim.Device.dev_id))
            | _ -> None
          in
          let reply =
            attempt ~req ~ok:(Wire.Bundle_ack { req }) (fun () ->
                List.iter (exec_primitive t) cmds;
                poll_all t)
          in
          (match span with
          | Some (obs, ctx) ->
              let status =
                match reply with Wire.Bundle_ack _ -> "ok" | _ -> "failed: exec"
              in
              Obs.Trace.finish obs ctx ~status
          | None -> ());
          remember_done t req reply;
          send t reply)
  | Wire.Self_test_req { req; target; against } -> (
      match find_module t target with
      | Some m ->
          m.Module_impl.self_test ~against ~reply:(fun ~ok ~detail ->
              send t (Wire.Self_test_resp { req; target; ok; detail }))
      | None ->
          send t (Wire.Self_test_resp { req; target; ok = false; detail = "no such module" }))
  | Wire.Convey { src; dst; payload } -> (
      match find_module t dst with
      | Some m ->
          m.Module_impl.on_peer ~src payload;
          poll_all t
      | None -> ())
  | Wire.Set_address { req; target; addr; plen } ->
      (match Hashtbl.find_opt t.done_reqs req with
      | Some reply -> send t reply
      | None ->
          let reply =
            attempt ~req ~ok:(Wire.Ack { req }) (fun () ->
                match find_module t target with
                | Some m ->
                    m.Module_impl.set_address ~addr ~plen;
                    poll_all t
                | None -> ())
          in
          remember_done t req reply;
          send t reply)
  | Wire.Nm_takeover { nm; epoch } ->
      (* a standby NM took over (§V) under a strictly newer epoch: all
         further management traffic, including triggers and conveys, goes
         to it. Anything else — a duplicated or delayed announcement from a
         dead or deposed NM — must not steal the agent back (split-brain). *)
      if epoch > t.nm_epoch then begin
        t.nm_epoch <- epoch;
        t.nm_device <- nm
      end
      else if epoch < t.nm_epoch || nm <> t.nm_device then
        t.takeover_rejects <- t.takeover_rejects + 1
  | Wire.Hello _ | Wire.Show_potential_resp _ | Wire.Show_actual_resp _
  | Wire.Show_actual_unchanged _ | Wire.Show_perf_resp _
  | Wire.Bundle_ack _ | Wire.Ack _ | Wire.Bundle_err _ | Wire.Self_test_resp _ | Wire.Completion _
  | Wire.Trigger _ | Wire.Ha_heartbeat _ | Wire.Ha_journal _ | Wire.Ha_journal_ack _
  | Wire.Ha_inflight _ | Wire.Ha_confirm _ | Wire.Fed_advert _ | Wire.Fed_plan_req _
  | Wire.Fed_plan_resp _ | Wire.Fed_plan_err _ | Wire.Fed_commit _ | Wire.Fed_commit_ack _
  | Wire.Fed_commit_err _ | Wire.Fed_abort _ | Wire.Fed_abort_ack _ | Wire.Fed_relay _ ->
      (* NM-bound (or NM-to-NM) messages; not meaningful at an agent *)
      ()

let handle t ~src payload =
  match Wire.decode payload with
  | exception (Sexp.Parse_error _ | Mgmt.Frame.Bad_frame _) ->
      (* garbage on the channel (corruption, fuzzing, a buggy peer) is the
         sender's problem, not ours: drop it, count it, keep serving *)
      t.malformed_drops <- t.malformed_drops + 1
  | msg -> handle_msg t ~src ~epoch:0 msg

let create ~chan ~nm_device device =
  let t =
    {
      device;
      chan;
      nm_device;
      nm_epoch = 0;
      fenced_rejects = 0;
      takeover_rejects = 0;
      malformed_drops = 0;
      modules = [];
      annex = Wire.empty_annex;
      polling = false;
      repoll = false;
      done_reqs = Hashtbl.create 64;
      done_order = Queue.create ();
      max_exec_req = 0;
      obs = None;
      cur_trace = None;
    }
  in
  Mgmt.Channel.subscribe chan ~device_id:device.Netsim.Device.dev_id (fun ~src payload ->
      handle t ~src payload);
  t

let register t impl = t.modules <- t.modules @ [ impl ]

let env t = env_of t

(* Announces physical connectivity to the NM, as every device does at
   startup (§II-D). *)
let announce t net =
  let ports =
    Array.to_list t.device.Netsim.Device.ports
    |> List.concat_map (fun (p : Netsim.Device.port) ->
           Netsim.Net.neighbours net t.device p.Netsim.Device.port_index
           |> List.map (fun (d, pi) ->
                  ( p.Netsim.Device.port_name,
                    d.Netsim.Device.dev_id,
                    (Netsim.Device.port d pi).Netsim.Device.port_name )))
  in
  send t (Wire.Hello { ports })

let set_obs t obs = t.obs <- Some obs

let obs_counters t =
  [
    ("fenced_rejects", t.fenced_rejects);
    ("takeover_rejects", t.takeover_rejects);
    ("malformed_drops", t.malformed_drops);
  ]

let modules t = t.modules
let nm_device t = t.nm_device
let nm_epoch t = t.nm_epoch
let fenced_rejects t = t.fenced_rejects
let takeover_rejects t = t.takeover_rejects
let malformed_drops t = t.malformed_drops
