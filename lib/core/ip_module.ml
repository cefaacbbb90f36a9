(* The IP protocol module. A device may host several IP module instances
   (figure 4(b): router A has customer-facing g and core-facing h), each
   bound to a set of interfaces and an address domain.

   Pipe coordination (§III-B): as the bottom of a tunnel pipe it exchanges
   tunnel-endpoint addresses with its peer; as the top of a pipe over ETH it
   exchanges next-hop addresses; both through listFieldsAndValues messages
   relayed by the NM. Switch rules translate into the same iproute2-style
   commands the "today" scripts use. *)

open Module_impl

type pipe_state = {
  spec : Primitive.pipe_spec;
  role : role;
  mutable peer_addr : string option;
  mutable exchange_started : bool;
}

type filter_state = {
  f_src : Ids.t;
  f_dst : Ids.t;
  mutable f_src_addr : string option;
  mutable f_dst_addr : string option;
  mutable f_applied : (Packet.Prefix.t * Packet.Prefix.t) option;
}

type state = {
  env : env;
  mref : Ids.t;
  bound_ifaces : string list;
  domain : string;
  mutable pipes : pipe_state list;
  mutable pending : Primitive.switch_rule list;
  mutable applied : (Primitive.switch_rule * string list) list;
  mutable filters : filter_state list;
  mutable next_table : int;
  (* exchange requests that arrived before our bundle created the matching
     pipe (bundles to different devices race with coordination traffic) *)
  mutable early : (Ids.t * string * (string * string) list) list;
  (* end-to-end probes waiting for their target's address: target module,
     the remembered address that did not answer (if any), continuation *)
  mutable probes : (Ids.t * string option * (ok:bool -> detail:string -> unit)) list;
  (* the address each probe target last gave: a probe pings it directly
     and asks the target again only when it does not answer *)
  mutable probe_targets : (Ids.t * string) list;
  (* NM-assigned diagnostic address inside the customer prefix this edge
     module serves; reachable through the configured path, so end-to-end
     probes stay within the managed devices *)
  mutable probe_addr : string option;
  (* performance enforcement requested per pipe, applied once the pipe's
     interface resolves *)
  mutable perf_pending : (string * int) list;
  mutable perf_applied : (string * string) list; (* pipe -> iface *)
}

let my_peer ps =
  match ps.role with `Top -> ps.spec.Primitive.peer_top | `Bottom -> ps.spec.Primitive.peer_bottom

let find_pipe st pid = List.find_opt (fun p -> p.spec.Primitive.pipe_id = pid) st.pipes

(* The exchange purpose a pipe participates in: tunnel-endpoint resolution
   when we are the delivery protocol (role Bottom), next-hop resolution when
   we sit on top of an ETH pipe. *)
let purpose_of ps = match ps.role with `Bottom -> "endpoint" | `Top -> "nexthop"

let find_pipe_by_peer st ?purpose peer =
  List.find_opt
    (fun p ->
      (match purpose with Some x -> purpose_of p = x | None -> true)
      && match my_peer p with Some m -> Ids.equal m peer | None -> false)
    st.pipes

let iface_addr st name =
  match Netsim.Device.find_iface st.env.device name with
  | Some i -> Option.map Packet.Ipv4_addr.to_string (Netsim.Device.primary_addr i)
  | None -> None

let own_addr st = List.find_map (iface_addr st) st.bound_ifaces

(* The interface a role-Top pipe runs over, once resolvable. *)
let under_iface st ps =
  let bottom = ps.spec.Primitive.bottom in
  let pid = ps.spec.Primitive.pipe_id in
  match bottom.Ids.name with
  | "ETH" -> st.env.local_query bottom "iface"
  | "GRE" | "ESP" | "IP" -> st.env.local_query bottom ("tundev:" ^ pid)
  | "MPLS" -> Some "mpls0"
  | _ -> None

(* My address as seen on a given pipe: the address of the interface under a
   role-Top/ETH pipe, the module's own address otherwise. *)
let pipe_addr st ps =
  match (ps.role, ps.spec.Primitive.bottom.Ids.name) with
  | `Top, "ETH" -> ( match under_iface st ps with Some i -> iface_addr st i | None -> own_addr st)
  | _ -> own_addr st

(* Does this pipe call for an address exchange with the peer? *)
let wants_exchange ps =
  match ps.role with
  | `Bottom ->
      (* we are the delivery protocol of a tunnel *)
      List.mem ps.spec.Primitive.top.Ids.name [ "GRE"; "ESP"; "IP" ]
  | `Top -> ps.spec.Primitive.bottom.Ids.name = "ETH" && ps.spec.Primitive.peer_top <> None

let run st cmds =
  List.iter (run_cmd st.env.device) cmds;
  cmds

let enable_forwarding = "echo 1 > /proc/sys/net/ipv4/ip_forward"

(* --- deferred work ---------------------------------------------------------- *)

(* Creates the IP-IP tunnel for pipes where we are the delivery protocol
   under another IP module. *)
let maybe_create_ipip st ps =
  if ps.role = `Bottom && ps.spec.Primitive.top.Ids.name = "IP" then
    match (own_addr st, ps.peer_addr) with
    | Some local, Some remote ->
        let name = "ipip-" ^ ps.spec.Primitive.pipe_id in
        if Netsim.Device.find_iface st.env.device name = None then begin
          ignore
            (run st
               [
                 "insmod /lib/modules/2.6.14-2/ipip.ko";
                 Printf.sprintf "ip tunnel add name %s mode ipip remote %s local %s" name remote
                   local;
               ]);
          st.env.progress ()
        end
    | _ -> ()

let start_exchange st ps =
  match my_peer ps with
  | Some peer when wants_exchange ps && not ps.exchange_started ->
      if initiates st.mref peer then begin
        match pipe_addr st ps with
        | Some addr ->
            ps.exchange_started <- true;
            st.env.convey ~src:st.mref ~dst:peer
              (Peer_msg.Lfv_request
                 { purpose = purpose_of ps; fields = [ "address" ]; own = [ ("address", addr) ] })
        | None -> ()
      end
  | _ -> ()

let fresh_table st prefix =
  st.next_table <- st.next_table + 1;
  Printf.sprintf "%s-%d" prefix st.next_table

(* Attempts one switch rule; returns the commands run, or None if its
   dependencies are not ready yet. *)
let try_rule st (rule : Primitive.switch_rule) =
  match rule with
  | Primitive.Directed { from_pipe = _; to_pipe; sel = Primitive.Dst_domain d } -> (
      (* customer -> path: route the destination site's prefix into the pipe *)
      match (st.env.domain_prefix d, find_pipe st to_pipe) with
      | Some prefix, Some ps -> (
          if ps.spec.Primitive.bottom.Ids.name = "MPLS" then
            (* label imposition: the MPLS module below owns the NHLFE *)
            match
              ( st.env.local_query ps.spec.Primitive.bottom ("ftn-key:" ^ to_pipe),
                st.env.local_query ps.spec.Primitive.bottom ("ftn-via:" ^ to_pipe) )
            with
            | Some key, Some via ->
                Some
                  (run st
                     [
                       enable_forwarding;
                       Printf.sprintf "ip route del %s" prefix;
                       Printf.sprintf "ip route add %s via %s mpls %s" prefix via key;
                     ])
            | _ -> None
          else if wants_exchange ps && ps.peer_addr = None then
            (* the pipe runs directly over ETH: wait for the peer exchange
               so the route can name the gateway *)
            None
          else
            match under_iface st ps with
            | Some dev ->
                (* when the pipe runs directly over ETH the exchanged peer
                   address is the gateway; tunnel pipes route on-link *)
                let via =
                  match ps.peer_addr with Some a -> " via " ^ a | None -> ""
                in
                Some
                  (run st
                     [
                       enable_forwarding;
                       Printf.sprintf "ip route del %s" prefix;
                       Printf.sprintf "ip route add %s%s dev %s" prefix via dev;
                     ])
            | None -> None)
      | _ -> None)
  | Primitive.Directed { from_pipe; to_pipe; sel = Primitive.To_gateway gw } -> (
      (* path -> customer: traffic emerging from [from_pipe] is handed to the
         site gateway out of [to_pipe]'s interface (proxy ARP resolves it,
         exactly as in figure 7(a)). *)
      match (find_pipe st from_pipe, find_pipe st to_pipe) with
      | Some inp, Some outp -> (
          match (under_iface st inp, under_iface st outp) with
          | Some in_dev, Some out_dev ->
              let table = fresh_table st ("t-" ^ from_pipe) in
              (* a diagnostic /32 inside the served site's prefix, so the NM
                 can probe the path end to end without touching customer
                 hosts; the site is named by the gateway selector *)
              let diag =
                if st.probe_addr <> None then []
                else
                  match String.index_opt gw '-' with
                  | Some i -> (
                      let site = "-" ^ String.sub gw 0 i in
                      let ls = String.length site in
                      match
                        List.find_opt
                          (fun (d, _) ->
                            String.length d >= ls
                            && String.sub d (String.length d - ls) ls = site)
                          (st.env.domains ())
                      with
                      | Some (_, prefix) ->
                          let addr =
                            Packet.Ipv4_addr.to_string
                              (Packet.Prefix.nth_host (Packet.Prefix.of_string prefix) 250)
                          in
                          st.probe_addr <- Some addr;
                          [ Printf.sprintf "ifconfig lo %s/32" addr ]
                      | None -> [])
                  | None -> []
              in
              Some
                (run st
                   ([
                      enable_forwarding;
                      Printf.sprintf "echo %d %s >> /etc/iproute2/rt_tables" (200 + st.next_table)
                        table;
                      Printf.sprintf "ip rule add iif %s table %s" in_dev table;
                      Printf.sprintf "ip route add default dev %s table %s" out_dev table;
                    ]
                   @ diag))
          | _ -> None)
      | _ -> None)
  | Primitive.Directed _ -> None
  | Primitive.Bidi (x, y) -> (
      match (find_pipe st x, find_pipe st y) with
      | Some px, Some py -> (
          match (px.role, py.role) with
          | `Top, `Top -> (
              (* [down=>down]: forwarding between two lower pipes. When one
                 side is an LSP, traffic arriving from the other side is
                 policy-routed into it (mid-path label imposition); the
                 reverse direction pops locally and uses the main table. *)
              let mpls_side =
                List.find_opt
                  (fun p -> p.spec.Primitive.bottom.Ids.name = "MPLS")
                  [ px; py ]
              in
              match mpls_side with
              | None -> Some (run st [ enable_forwarding ])
              | Some pm -> (
                  let po = if pm == px then py else px in
                  let pm_pid = pm.spec.Primitive.pipe_id in
                  match
                    ( st.env.local_query pm.spec.Primitive.bottom ("ftn-key:" ^ pm_pid),
                      st.env.local_query pm.spec.Primitive.bottom ("ftn-via:" ^ pm_pid),
                      under_iface st po )
                  with
                  | Some key, Some via, Some in_dev ->
                      let table = fresh_table st ("t-" ^ pm_pid) in
                      Some
                        (run st
                           [
                             enable_forwarding;
                             Printf.sprintf "echo %d %s >> /etc/iproute2/rt_tables"
                               (200 + st.next_table) table;
                             Printf.sprintf "ip rule add iif %s table %s" in_dev table;
                             Printf.sprintf "ip route add default via %s mpls %s table %s" via key
                               table;
                           ])
                  | _ -> None))
          | `Bottom, `Top | `Top, `Bottom -> (
              (* [up=>down]: route the tunnel remote through the lower pipe *)
              let up, down = if px.role = `Bottom then (px, py) else (py, px) in
              let down_pid = down.spec.Primitive.pipe_id in
              if down.spec.Primitive.bottom.Ids.name = "MPLS" then
                (* the outer packets ride an LSP: impose the label the MPLS
                   module below negotiated *)
                match
                  ( up.peer_addr,
                    st.env.local_query down.spec.Primitive.bottom ("ftn-key:" ^ down_pid),
                    st.env.local_query down.spec.Primitive.bottom ("ftn-via:" ^ down_pid) )
                with
                | Some remote, Some key, Some via ->
                    Some
                      (run st
                         [
                           Printf.sprintf "ip route del to %s" remote;
                           Printf.sprintf "ip route add to %s via %s mpls %s" remote via key;
                         ])
                | _ -> None
              else
                match (up.peer_addr, down.peer_addr, under_iface st down) with
                | Some remote, Some nexthop, Some dev ->
                    Some
                      (run st
                         [
                           Printf.sprintf "ip route del to %s" remote;
                           Printf.sprintf "ip route add to %s via %s dev %s" remote nexthop dev;
                         ])
                | _ -> None)
          | `Bottom, `Bottom ->
              (* [up=>up]: loopback between upper modules; nothing to install
                 in the simulator's data plane *)
              Some [])
      | _ -> None)

let try_filter st f =
  if f.f_applied = None then
    match (f.f_src_addr, f.f_dst_addr) with
    | Some s, Some d ->
        let drop = (Packet.Prefix.of_string s, Packet.Prefix.of_string d) in
        f.f_applied <- Some drop;
        st.env.device.Netsim.Device.ip_drops <- drop :: st.env.device.Netsim.Device.ip_drops
    | _ ->
        (* resolve the protocol fields by querying the target modules *)
        let ask target =
          st.env.convey ~src:st.mref ~dst:target
            (Peer_msg.Lfv_request { purpose = "filter"; fields = [ "address" ]; own = [] })
        in
        if f.f_src_addr = None then ask f.f_src;
        if f.f_dst_addr = None then ask f.f_dst

(* The interface a pipe's traffic leaves by: an LSP's egress device, not
   the MPLS pop pseudo-interface [under_iface] names for [ip rule iif]. *)
let egress_iface st ps =
  match ps.spec.Primitive.bottom.Ids.name with
  | "MPLS" -> st.env.local_query ps.spec.Primitive.bottom ("ftn-dev:" ^ ps.spec.Primitive.pipe_id)
  | _ -> under_iface st ps

(* Applies requested rate limits once the pipe's egress interface is known
   (e.g. the tunnel device exists). A re-sent request replaces the pipe's
   entry. *)
let try_perf st =
  st.perf_pending <-
    List.filter
      (fun (pid, rate_kbps) ->
        match Option.bind (find_pipe st pid) (egress_iface st) with
        | Some dev ->
            run_cmd st.env.device
              (Printf.sprintf "tc qdisc add dev %s rate %d burst 100" dev (rate_kbps * 1000));
            st.perf_applied <- (pid, dev) :: List.remove_assoc pid st.perf_applied;
            false
        | None -> true)
      st.perf_pending

let poll st () =
  try_perf st;
  List.iter (start_exchange st) st.pipes;
  List.iter (maybe_create_ipip st) st.pipes;
  let still_pending =
    List.filter
      (fun rule ->
        match try_rule st rule with
        | Some cmds ->
            st.applied <- (rule, cmds) :: st.applied;
            false
        | None -> true)
      st.pending
  in
  let progressed = List.length still_pending <> List.length st.pending in
  st.pending <- still_pending;
  List.iter (try_filter st) st.filters;
  if progressed then st.env.progress ()

(* --- peer messages ---------------------------------------------------------- *)

let probe_id = 0xbeef
let no_reply dst = "no reply from peer " ^ dst

(* Sends one echo request and reports asynchronously whether the matching
   reply arrived within the probe window. The probe waits on its own ICMP
   waiter, so probes that overlap in time do not disturb each other. *)
let probe_ping st ~src ~dst ~reply =
  let got = ref false in
  let dev = st.env.device in
  let dst_addr = Packet.Ipv4_addr.of_string dst in
  let waiter hdr = function
    | Packet.Icmp.Echo_reply { id; _ }
      when id = probe_id && Packet.Ipv4_addr.equal hdr.Packet.Ipv4.src dst_addr ->
        got := true
    | _ -> ()
  in
  Netsim.Device.add_icmp_waiter dev waiter;
  Netsim.Datapath.icmp_echo dev ~src:(Packet.Ipv4_addr.of_string src) ~dst:dst_addr ~id:probe_id
    ~seq:1 (Bytes.of_string "self-test");
  st.env.schedule ~delay_ns:1_000_000L (fun () ->
      Netsim.Device.remove_icmp_waiter dev waiter;
      if !got then reply ~ok:true ~detail:("peer " ^ dst ^ " reachable")
      else reply ~ok:false ~detail:(no_reply dst))

(* This module's end of an end-to-end probe: its diagnostic address when it
   serves a site, its own address otherwise. *)
let probe_src st = match st.probe_addr with Some a -> Some a | None -> own_addr st

(* Asks [target] for its address (listFieldsAndValues, relayed by the NM);
   [stale] is the remembered address that just failed to answer. *)
let ask_probe_target st target ~stale reply =
  st.probes <- (target, stale, reply) :: st.probes;
  st.env.convey ~src:st.mref ~dst:target
    (Peer_msg.Lfv_request { purpose = "probe"; fields = [ "address" ]; own = [] })

(* End-to-end probe: pings the address [target] last gave. One that does
   not answer is forgotten and the target asked again: the same address
   fails the probe at once, a new one is pinged instead. *)
let probe_target st target ~reply =
  let remembered =
    List.find_map (fun (t, a) -> if Ids.equal t target then Some a else None) st.probe_targets
  in
  match (remembered, probe_src st) with
  | Some dst, Some src ->
      probe_ping st ~src ~dst ~reply:(fun ~ok ~detail ->
          if ok then reply ~ok ~detail
          else begin
            st.probe_targets <-
              List.filter (fun (t, a) -> not (Ids.equal t target && a = dst)) st.probe_targets;
            ask_probe_target st target ~stale:(Some dst) reply
          end)
  | _ -> ask_probe_target st target ~stale:None reply

let answer_exchange st src ps own =
  (match List.assoc_opt "address" own with
  | Some a -> ps.peer_addr <- Some a
  | None -> ());
  (match pipe_addr st ps with
  | Some a ->
      st.env.convey ~src:st.mref ~dst:src
        (Peer_msg.Lfv_reply { purpose = purpose_of ps; fields = [ ("address", a) ] })
  | None -> ());
  poll st ()

let on_peer st ~src msg =
  match msg with
  | Peer_msg.Lfv_request { purpose = ("filter" | "probe") as purpose; fields = _; own = _ } -> (
      (* a filter-resolution or probe query from another module (§II-E);
         probes target the diagnostic address when one is assigned *)
      let addr = match purpose with "probe" when st.probe_addr <> None -> st.probe_addr | _ -> own_addr st in
      match addr with
      | Some a ->
          st.env.convey ~src:st.mref ~dst:src
            (Peer_msg.Lfv_reply { purpose; fields = [ ("address", a) ] })
      | None -> ())
  | Peer_msg.Lfv_request { purpose; fields = _; own } -> (
      match find_pipe_by_peer st ~purpose src with
      | Some ps -> answer_exchange st src ps own
      | None ->
          (* a pipe exchange that raced our bundle: replay once the pipe
             exists *)
          st.early <- (src, purpose, own) :: st.early)
  | Peer_msg.Lfv_reply { purpose = "probe"; fields } -> (
      let pending, rest = List.partition (fun (t, _, _) -> Ids.equal t src) st.probes in
      st.probes <- rest;
      match (List.assoc_opt "address" fields, probe_src st) with
      | Some dst, Some my_addr ->
          st.probe_targets <-
            (src, dst) :: List.filter (fun (t, _) -> not (Ids.equal t src)) st.probe_targets;
          List.iter
            (fun (_, stale, reply) ->
              if stale = Some dst then reply ~ok:false ~detail:(no_reply dst)
              else probe_ping st ~src:my_addr ~dst ~reply)
            pending
      | _ ->
          List.iter (fun (_, _, reply) -> reply ~ok:false ~detail:"probe target has no address") pending)
  | Peer_msg.Lfv_reply { purpose = "filter"; fields } ->
      let addr = List.assoc_opt "address" fields in
      List.iter
        (fun f ->
          if Ids.equal f.f_src src && f.f_src_addr = None then f.f_src_addr <- addr;
          if Ids.equal f.f_dst src && f.f_dst_addr = None then f.f_dst_addr <- addr)
        st.filters;
      poll st ()
  | Peer_msg.Lfv_reply { purpose; fields } -> (
      let addr = List.assoc_opt "address" fields in
      match find_pipe_by_peer st ~purpose src with
      | Some ps ->
          ps.peer_addr <- addr;
          poll st ()
      | None -> ())
  | Peer_msg.Gre_params _ | Peer_msg.Gre_params_ack _ | Peer_msg.Mpls_label_bind _
  | Peer_msg.Vlan_vid_bind _ | Peer_msg.Vlan_vid_ack _ ->
      ()

(* --- abstraction ------------------------------------------------------------- *)

let abstraction () =
  {
    Abstraction.default with
    name = "IP";
    up = Some { Abstraction.connectable = [ "IP"; "GRE"; "ESP" ]; dependencies = [] };
    down = Some { Abstraction.connectable = [ "IP"; "GRE"; "ESP"; "MPLS"; "ETH" ]; dependencies = [] };
    peerable = [ "IP" ];
    filterable = [ "module"; "device" ];
    switch =
      [ Abstraction.Down_up; Abstraction.Up_down; Abstraction.Down_down; Abstraction.Up_up ];
    perf_reporting = [ "up_frames"; "up_bytes"; "down_frames"; "down_bytes" ];
    perf_enforcement = [ "rate-limit" ];
  }

(* --- handle for operators/tests (dependency-tracking experiments) ----------- *)

type handle = { change_address : iface:string -> string -> string -> unit; state : state }

(* per pipe, from the interface the pipe resolves over *)
let pipe_report =
  report
    [
      ("up_frames", "rx_packets");
      ("up_bytes", "rx_bytes");
      ("down_frames", "tx_packets");
      ("down_bytes", "tx_bytes");
      ("drop:rx_errors", "rx_errors");
      ("drop:policer", "policer_drops");
    ]

let make ~env ~mref ~ifaces ~domain () =
  let st =
    {
      env;
      mref;
      bound_ifaces = ifaces;
      domain;
      pipes = [];
      pending = [];
      applied = [];
      filters = [];
      next_table = 0;
      early = [];
      probes = [];
      probe_targets = [];
      probe_addr = None;
      perf_pending = [];
      perf_applied = [];
    }
  in
  let impl =
    {
      (no_op_module mref abstraction) with
      create_pipe =
        (fun spec role ->
          (match find_pipe st spec.Primitive.pipe_id with
          | Some old -> st.pipes <- List.filter (fun p -> p != old) st.pipes
          | None -> ());
          st.pipes <- { spec; role; peer_addr = None; exchange_started = false } :: st.pipes;
          (* a recreated pipe invalidates switch state derived from it: move
             the affected applied rules back to pending so they re-resolve
             (dependency maintenance, §II-E) *)
          let mentions rule =
            let pid = spec.Primitive.pipe_id in
            match rule with
            | Primitive.Bidi (a, b) -> a = pid || b = pid
            | Primitive.Directed { from_pipe; to_pipe; _ } -> from_pipe = pid || to_pipe = pid
          in
          let invalidated, kept = List.partition (fun (r, _) -> mentions r) st.applied in
          st.applied <- kept;
          st.pending <- st.pending @ List.map fst invalidated;
          (* replay exchange requests that arrived before this pipe existed *)
          (match my_peer { spec; role; peer_addr = None; exchange_started = false } with
          | Some peer ->
              let matching, rest =
                List.partition
                  (fun (p, purpose, _) ->
                    Ids.equal p peer
                    && match find_pipe_by_peer st ~purpose peer with Some _ -> true | None -> false)
                  st.early
              in
              st.early <- rest;
              List.iter
                (fun (p, purpose, own) ->
                  match find_pipe_by_peer st ~purpose p with
                  | Some ps -> answer_exchange st p ps own
                  | None -> ())
                matching
          | None -> ());
          poll st ());
      delete_pipe =
        (fun pid ->
          (* tear the IP-IP tunnel iface down with the pipe: a stale tunnel
             with the same endpoints would keep capturing decapsulation *)
          let name = "ipip-" ^ pid in
          if Netsim.Device.find_iface st.env.device name <> None then
            run_cmd st.env.device ("ip tunnel del " ^ name);
          st.pipes <- List.filter (fun p -> p.spec.Primitive.pipe_id <> pid) st.pipes);
      create_switch =
        (fun rule ->
          if
            (not (List.mem rule st.pending))
            && not (List.exists (fun (r, _) -> r = rule) st.applied)
          then st.pending <- st.pending @ [ rule ];
          poll st ());
      delete_switch =
        (fun rule ->
          st.pending <- List.filter (( <> ) rule) st.pending;
          let gone, kept = List.partition (fun (r, _) -> r = rule) st.applied in
          st.applied <- kept;
          (* undo the device-level state the rule installed: route/rule adds
             invert to deletes (the interpreters match on prefix/table) *)
          let undo cmd =
            let flip tag =
              let add = tag ^ " add " in
              let la = String.length add in
              if String.length cmd >= la && String.sub cmd 0 la = add then
                Some (tag ^ " del " ^ String.sub cmd la (String.length cmd - la))
              else None
            in
            match flip "ip route" with Some u -> Some u | None -> flip "ip rule"
          in
          List.iter
            (fun (_, cmds) -> List.iter (fun c -> Option.iter (run_cmd st.env.device) (undo c)) cmds)
            gone);
      set_address =
        (fun ~addr ~plen ->
          match st.bound_ifaces with
          | iface :: _ ->
              run_cmd st.env.device (Printf.sprintf "ifconfig %s %s/%d" iface addr plen)
          | [] -> ());
      create_perf =
        (fun ~pipe_id ~rate_kbps ->
          st.perf_pending <- (pipe_id, rate_kbps) :: List.remove_assoc pipe_id st.perf_pending;
          poll st ());
      delete_perf =
        (fun ~pipe_id ->
          st.perf_pending <- List.remove_assoc pipe_id st.perf_pending;
          match List.assoc_opt pipe_id st.perf_applied with
          | Some dev ->
              st.perf_applied <- List.remove_assoc pipe_id st.perf_applied;
              run_cmd st.env.device (Printf.sprintf "tc qdisc del dev %s" dev)
          | None -> ());
      create_filter =
        (fun ~drop_src ~drop_dst ->
          st.filters <-
            { f_src = drop_src; f_dst = drop_dst; f_src_addr = None; f_dst_addr = None; f_applied = None }
            :: st.filters;
          poll st ());
      delete_filter =
        (fun ~drop_src ~drop_dst ->
          let gone, kept =
            List.partition
              (fun f -> Ids.equal f.f_src drop_src && Ids.equal f.f_dst drop_dst)
              st.filters
          in
          st.filters <- kept;
          List.iter
            (fun f ->
              match f.f_applied with
              | Some drop ->
                  st.env.device.Netsim.Device.ip_drops <-
                    List.filter (( <> ) drop) st.env.device.Netsim.Device.ip_drops
              | None -> ())
            gone);
      on_peer = on_peer st;
      fields =
        (fun key ->
          match String.split_on_char ':' key with
          | [ "address" ] -> own_addr st
          | [ "iface" ] -> ( match st.bound_ifaces with i :: _ -> Some i | [] -> None)
          | [ "domain" ] -> Some st.domain
          | [ "peer-addr"; pid ] -> Option.bind (find_pipe st pid) (fun p -> p.peer_addr)
          | [ "tundev"; pid ] ->
              (* the IP-IP tunnel created when we are a tunnel's delivery
                 protocol *)
              let name = "ipip-" ^ pid in
              if Netsim.Device.find_iface st.env.device name <> None then Some name else None
          | _ -> None);
      perf =
        (fun () ->
          (* a pipe whose interface has not resolved yet reports zeros *)
          List.map
            (fun ps ->
              ( ps.spec.Primitive.pipe_id,
                pipe_report
                  (Option.map
                     (fun i -> i.Netsim.Device.if_counters)
                     (Option.bind (under_iface st ps) (Netsim.Device.find_iface st.env.device))) ))
            st.pipes);
      actual =
        (fun () ->
          List.map
            (fun ps ->
              ( "pipe:" ^ ps.spec.Primitive.pipe_id,
                "role="
                ^ (match ps.role with `Top -> "top" | `Bottom -> "bottom")
                ^ " peer-addr="
                ^ Option.value ~default:"?" ps.peer_addr ))
            st.pipes
          @ List.map (fun (r, cmds) ->
                ("switch[" ^ Primitive.rule_to_string r ^ "]", String.concat " ; " cmds))
              st.applied
          @ List.map (fun r -> ("pending[" ^ Primitive.rule_to_string r ^ "]", "waiting")) st.pending
          @ [ ("ip_forward", string_of_bool st.env.device.Netsim.Device.ip_forward) ]);
      poll = poll st;
      self_test =
        (fun ~against ~reply ->
          match against with
          | None -> (
              (* Data-plane self test (§II-D.2): ping the first resolved pipe
                 peer and report asynchronously. *)
              match
                List.find_map
                  (fun p ->
                    match (p.peer_addr, pipe_addr st p) with
                    | Some peer, Some mine -> Some (mine, peer)
                    | _ -> None)
                  st.pipes
              with
              | Some (src, dst) -> probe_ping st ~src ~dst ~reply
              | None -> reply ~ok:true ~detail:"no peers to test")
          | Some target -> probe_target st target ~reply);
    }
  in
  let change_address ~iface old_new new_addr =
    let dev = st.env.device in
    (match Netsim.Device.find_iface dev iface with
    | Some i -> (
        match i.Netsim.Device.if_addrs with
        | (old, p) :: rest when Packet.Ipv4_addr.to_string old = old_new ->
            i.Netsim.Device.if_addrs <- (Packet.Ipv4_addr.of_string new_addr, p) :: rest
        | _ -> ())
    | None -> ());
    (* fire the trigger so the NM can update dependent state (§II-E) *)
    st.env.notify_nm (Wire.Trigger { src = st.mref; field = "address"; value = new_addr })
  in
  (impl, { change_address; state = st })
