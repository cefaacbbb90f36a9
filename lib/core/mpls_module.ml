(* The MPLS protocol module. Down pipes (over ETH) are label-switched
   adjacencies: for each one the module allocates the label it wants to
   receive and conveys it — together with its interface address — to the
   adjacent MPLS module (downstream label allocation). Switch rules then
   translate into mpls-linux style ILM/NHLFE/XC commands, plus an FTN hook
   the IP module above uses for label imposition. *)

open Module_impl

type adjacency = {
  a_spec : Primitive.pipe_spec; (* role Top, bottom = local ETH module *)
  a_peer : Ids.t; (* the adjacent MPLS module (peer_top) *)
  a_in_label : int; (* label we allocated for traffic from this peer *)
  mutable a_out_label : int option; (* label the peer allocated for us *)
  mutable a_out_nexthop : string option;
}

type state = {
  env : env;
  mref : Ids.t;
  mutable adjacencies : adjacency list;
  mutable up_pipes : Primitive.pipe_spec list; (* role Bottom: IP above us *)
  mutable pending : Primitive.switch_rule list;
  mutable ftn : (string * (string * string)) list; (* up pipe id -> key, via *)
  mutable xconnects : (int * int) list; (* in-label -> nhlfe key, for actual() *)
  mutable next_label : int;
  mutable completed : bool;
  mutable early : (Ids.t * Peer_msg.t) list; (* peer msgs that raced our bundle *)
}

let iface_of_adj st adj =
  match st.env.local_query adj.a_spec.Primitive.bottom "iface" with
  | Some i -> i
  | None -> failwith "mpls: no interface below down pipe"

let addr_of_iface st name =
  match Netsim.Device.find_iface st.env.device name with
  | Some i -> Option.map Packet.Ipv4_addr.to_string (Netsim.Device.primary_addr i)
  | None -> None

let find_adj_by_peer st peer = List.find_opt (fun a -> Ids.equal a.a_peer peer) st.adjacencies
let find_adj_by_pipe st pid =
  List.find_opt (fun a -> a.a_spec.Primitive.pipe_id = pid) st.adjacencies

(* Runs `mpls nhlfe add`, reading the allocated key from the line it
   prints, as the paper's scripts do with grep/cut. *)
let nhlfe_add st instructions =
  Devconf.Linux_cli.nhlfe_key
    (Devconf.Linux_cli.exec st.env.device
       ("mpls" :: "nhlfe" :: "add" :: "key" :: "0" :: "mtu" :: "1500" :: "instructions"
      :: instructions))

let nhlfe_push st ~label ~dev ~via =
  nhlfe_add st [ "push"; "gen"; string_of_int label; "nexthop"; dev; "ipv4"; via ]

let nhlfe_deliver st = nhlfe_add st [ "deliver" ]

let xc st ~in_label ~key =
  run st.env.device
    [
      "mpls"; "xc"; "add"; "ilm"; "label"; "gen"; string_of_int in_label;
      "ilm"; "labelspace"; "0"; "nhlfe"; "key"; string_of_int key;
    ];
  st.xconnects <- (in_label, key) :: st.xconnects

let ilm st verb label =
  run st.env.device
    [ "mpls"; "ilm"; verb; "label"; "gen"; string_of_int label; "labelspace"; "0" ]

let nhlfe_del st key = run st.env.device [ "mpls"; "nhlfe"; "del"; "key"; key ]

let announce_label st adj =
  let iface = iface_of_adj st adj in
  match addr_of_iface st iface with
  | Some my_addr ->
      st.env.convey ~src:st.mref ~dst:adj.a_peer
        (Peer_msg.Mpls_label_bind
           { pipe = adj.a_spec.Primitive.pipe_id; label = adj.a_in_label; nexthop = my_addr })
  | None -> ()

let try_rule st rule =
  match rule with
  | Primitive.Bidi (x, y) -> (
      let up_of pid = List.find_opt (fun s -> s.Primitive.pipe_id = pid) st.up_pipes in
      match (up_of x, find_adj_by_pipe st y, find_adj_by_pipe st x, up_of y) with
      | Some up, Some adj, _, _ | _, _, Some adj, Some up -> (
          (* LSP edge: [up<=>down]. Egress: pop traffic arriving with our
             allocated label up to the IP module. Ingress: impose the label
             the adjacent module allocated. *)
          match (adj.a_out_label, adj.a_out_nexthop) with
          | Some out_label, Some nexthop ->
              let dev = iface_of_adj st adj in
              let deliver_key = nhlfe_deliver st in
              xc st ~in_label:adj.a_in_label ~key:deliver_key;
              let push_key = nhlfe_push st ~label:out_label ~dev ~via:nexthop in
              st.ftn <- (up.Primitive.pipe_id, (string_of_int push_key, nexthop)) :: st.ftn;
              true
          | _ -> false)
      | _ -> (
          match (find_adj_by_pipe st x, find_adj_by_pipe st y) with
          | Some a, Some b -> (
              (* transit [down=>down]: swap in both directions *)
              match (a.a_out_label, a.a_out_nexthop, b.a_out_label, b.a_out_nexthop) with
              | Some la, Some na, Some lb, Some nb ->
                  let key_ab = nhlfe_push st ~label:lb ~dev:(iface_of_adj st b) ~via:nb in
                  xc st ~in_label:a.a_in_label ~key:key_ab;
                  let key_ba = nhlfe_push st ~label:la ~dev:(iface_of_adj st a) ~via:na in
                  xc st ~in_label:b.a_in_label ~key:key_ba;
                  true
              | _ -> false)
          | _ -> false))
  | Primitive.Directed _ -> false

let poll st () =
  let before = List.length st.pending in
  st.pending <- List.filter (fun r -> not (try_rule st r)) st.pending;
  let progressed = List.length st.pending <> before in
  if
    (not st.completed) && st.pending = [] && st.ftn <> []
    && st.env.is_reporter st.mref
  then begin
    st.completed <- true;
    st.env.notify_nm (Wire.Completion { src = st.mref; what = "lsp-established" })
  end;
  if progressed then st.env.progress ()

let on_peer st ~src msg =
  match msg with
  | Peer_msg.Mpls_label_bind { pipe = _; label; nexthop } -> (
      match find_adj_by_peer st src with
      | Some adj ->
          adj.a_out_label <- Some label;
          adj.a_out_nexthop <- Some nexthop;
          poll st ()
      | None -> st.early <- (src, msg) :: st.early)
  | Peer_msg.Gre_params _ | Peer_msg.Gre_params_ack _ | Peer_msg.Lfv_request _
  | Peer_msg.Lfv_reply _ | Peer_msg.Vlan_vid_bind _ | Peer_msg.Vlan_vid_ack _ ->
      ()

let abstraction () =
  {
    Abstraction.default with
    name = "MPLS";
    up = Some { Abstraction.connectable = [ "IP" ]; dependencies = [] };
    down = Some { Abstraction.connectable = [ "ETH" ]; dependencies = [] };
    peerable = [ "MPLS" ];
    switch = [ Abstraction.Down_up; Abstraction.Up_down; Abstraction.Down_down ];
    perf_reporting = [ "up_frames"; "up_bytes"; "down_frames"; "down_bytes"; "switched_packets" ];
    (* the hint the paper's path chooser uses to prefer the MPLS path *)
    fast_forwarding = true;
  }

(* per adjacency pipe: labelled traffic on the interface below it *)
let adjacency_report =
  report
    [
      ("up_frames", "rx_mpls");
      ("up_bytes", "rx_mpls_bytes");
      ("down_frames", "tx_mpls");
      ("down_bytes", "tx_mpls_bytes");
    ]

(* the "local" pseudo-pipe: the label-switching engine's switched and
   drop-cause counters *)
let engine_report =
  report
    [
      ("switched_packets", "mpls_switched");
      ("drop:no_ilm", "mpls_no_ilm_drop");
      ("drop:no_xc", "mpls_no_xc_drop");
      ("drop:no_nhlfe", "mpls_no_nhlfe_drop");
      ("drop:ttl", "mpls_ttl_drop");
    ]

let make ~env ~mref () =
  let st =
    {
      env;
      mref;
      adjacencies = [];
      up_pipes = [];
      pending = [];
      ftn = [];
      xconnects = [];
      next_label = 2001;
      completed = false;
      early = [];
    }
  in
  let replay_early () =
    let replay, keep =
      List.partition (fun (src, _) -> find_adj_by_peer st src <> None) st.early
    in
    st.early <- keep;
    List.iter (fun (src, m) -> on_peer st ~src m) replay
  in
  {
    (no_op_module mref abstraction) with
    create_pipe =
      (fun spec role ->
        match role with
        | `Bottom ->
            st.up_pipes <-
              spec
              :: List.filter (fun s -> s.Primitive.pipe_id <> spec.Primitive.pipe_id) st.up_pipes;
            poll st ()
        | `Top -> (
            match spec.Primitive.peer_top with
            | None -> ()
            | Some peer
              when (match find_adj_by_pipe st spec.Primitive.pipe_id with
                   | Some adj -> adj.a_peer = peer
                   | None -> false) ->
                (* idempotent re-execution (recovery replay, drift resync):
                   keep the established adjacency and its label, just
                   re-announce it to the peer *)
                let adj = Option.get (find_adj_by_pipe st spec.Primitive.pipe_id) in
                announce_label st adj;
                replay_early ();
                poll st ()
            | Some peer ->
                run st.env.device [ "modprobe"; "mpls" ];
                run st.env.device [ "modprobe"; "mpls4" ];
                let label = st.next_label in
                st.next_label <- st.next_label + 1;
                let adj =
                  {
                    a_spec = spec;
                    a_peer = peer;
                    a_in_label = label;
                    a_out_label = None;
                    a_out_nexthop = None;
                  }
                in
                st.adjacencies <-
                  adj
                  :: List.filter
                       (fun a -> a.a_spec.Primitive.pipe_id <> spec.Primitive.pipe_id)
                       st.adjacencies;
                let iface = iface_of_adj st adj in
                run st.env.device [ "mpls"; "labelspace"; "set"; "dev"; iface; "labelspace"; "0" ];
                ilm st "add" label;
                announce_label st adj;
                replay_early ();
                poll st ()));
    delete_pipe =
      (fun pid ->
        (match find_adj_by_pipe st pid with
        | Some adj ->
            ilm st "del" adj.a_in_label;
            (* the cross-connects (and their nhlfe entries) hanging off this
               adjacency's label die with it *)
            List.iter
              (fun (l, k) -> if l = adj.a_in_label then nhlfe_del st (string_of_int k))
              st.xconnects;
            st.xconnects <- List.filter (fun (l, _) -> l <> adj.a_in_label) st.xconnects
        | None -> ());
        (* an FTN entry for a deleted up pipe must not satisfy the next
           script's ftn-key query with a key pointing at the old adjacency:
           pipe ids are reused across scripts *)
        (match List.assoc_opt pid st.ftn with
        | Some (key, _) -> nhlfe_del st key
        | None -> ());
        st.ftn <- List.filter (fun (up, _) -> up <> pid) st.ftn;
        (* reclaim the label if it was the most recent allocation, so a
           backed-out script leaves the allocator where it found it *)
        (match find_adj_by_pipe st pid with
        | Some adj when adj.a_in_label = st.next_label - 1 -> st.next_label <- adj.a_in_label
        | _ -> ());
        st.adjacencies <-
          List.filter (fun a -> a.a_spec.Primitive.pipe_id <> pid) st.adjacencies;
        st.up_pipes <- List.filter (fun s -> s.Primitive.pipe_id <> pid) st.up_pipes;
        if st.up_pipes = [] && st.adjacencies = [] then st.completed <- false);
    create_switch =
      (fun rule ->
        if not (List.mem rule st.pending) then st.pending <- st.pending @ [ rule ];
        poll st ());
    delete_switch = (fun rule -> st.pending <- List.filter (( <> ) rule) st.pending);
    on_peer = on_peer st;
    fields =
      (fun key ->
        match String.split_on_char ':' key with
        | [ "ftn-key"; pid ] -> Option.map fst (List.assoc_opt pid st.ftn)
        | [ "ftn-via"; pid ] -> Option.map snd (List.assoc_opt pid st.ftn)
        | [ "ftn-dev"; pid ] ->
            (* the interface the LSP leaves by, where the IP module above
               polices the pipe: that of the adjacency whose next hop the
               FTN's NHLFE pushes to *)
            Option.bind (List.assoc_opt pid st.ftn) (fun (_, via) ->
                List.find_map
                  (fun a -> if a.a_out_nexthop = Some via then Some (iface_of_adj st a) else None)
                  st.adjacencies)
        | _ -> None);
    perf =
      (fun () ->
        let dev = st.env.device in
        List.map
          (fun adj ->
            ( adj.a_spec.Primitive.pipe_id,
              adjacency_report
                (Option.map
                   (fun i -> i.Netsim.Device.if_counters)
                   (Option.bind
                      (st.env.local_query adj.a_spec.Primitive.bottom "iface")
                      (Netsim.Device.find_iface dev))) ))
          st.adjacencies
        @ [ ("local", engine_report (Some dev.Netsim.Device.dev_counters)) ]);
    actual =
      (fun () ->
        List.map
          (fun adj ->
            ( "adjacency:" ^ adj.a_spec.Primitive.pipe_id,
              "in-label=" ^ string_of_int adj.a_in_label ^ " out-label="
              ^ (match adj.a_out_label with Some l -> string_of_int l | None -> "?") ))
          st.adjacencies
        @ List.map (fun (l, k) -> ("xc:" ^ string_of_int l, "nhlfe " ^ string_of_int k)) st.xconnects
        @ List.map (fun r -> ("pending[" ^ Primitive.rule_to_string r ^ "]", "waiting")) st.pending);
    poll = poll st;
    self_test =
      (fun ~against:_ ~reply ->
        let unresolved = List.filter (fun a -> a.a_out_label = None) st.adjacencies in
        if st.pending <> [] then reply ~ok:false ~detail:"switch rules still pending"
        else if unresolved <> [] then reply ~ok:false ~detail:"label bindings missing"
        else reply ~ok:true ~detail:"LSP state consistent");
  }
