(* The GRE protocol module (§III-B, Table III). Wraps the kernel GRE
   implementation: the NM only creates pipes and a switch rule; the module
   negotiates keys, sequencing and checksums with its peer GRE module over
   the management channel and then issues the same `ip tunnel add` command a
   human would have written, word for word, as an argument vector. *)

open Module_impl

type tunnel_params = {
  mutable ikey : int32 option; (* key we expect on ingress *)
  mutable okey : int32 option;
  mutable use_seq : bool;
  mutable use_csum : bool;
  mutable params_ready : bool;
}

type pipe_state = { spec : Primitive.pipe_spec; role : role; params : tunnel_params }

type state = {
  env : env;
  mref : Ids.t;
  mutable pipes : pipe_state list;
  mutable pending : Primitive.switch_rule list;
  mutable tunnels : (string * string) list; (* up-pipe id -> tunnel device name *)
  mutable next_key : int32;
  mutable early : (Ids.t * Peer_msg.t) list; (* peer msgs that raced our bundle *)
}

let find_pipe st pid = List.find_opt (fun p -> p.spec.Primitive.pipe_id = pid) st.pipes

let my_peer ps =
  match ps.role with `Top -> ps.spec.Primitive.peer_top | `Bottom -> ps.spec.Primitive.peer_bottom

(* Negotiation is keyed to the up pipe (the tunnel's payload side); both of
   a GRE module's pipes may peer with the same remote GRE module, so the
   match is restricted to [`Bottom] roles. *)
let find_pipe_by_peer st peer =
  List.find_opt
    (fun p ->
      p.role = `Bottom
      && match my_peer p with Some m -> Ids.equal m peer | None -> false)
    st.pipes

(* Trade-off names on the up pipe decide the optional protocol features,
   without the NM ever knowing about sequence numbers or checksums. *)
let tradeoff_seq spec = List.mem "in-order-delivery" spec.Primitive.tradeoffs
let tradeoff_csum spec = List.mem "low-error-rate" spec.Primitive.tradeoffs

let negotiate st ps =
  match my_peer ps with
  | Some peer when ps.role = `Bottom && (not ps.params.params_ready) && initiates st.mref peer ->
      (* allocate the keys; the 1001/2001 scheme echoes the paper's example *)
      if ps.params.ikey = None then begin
        ps.params.ikey <- Some st.next_key;
        ps.params.okey <- Some (Int32.add st.next_key 1000l);
        st.next_key <- Int32.add st.next_key 2000l;
        ps.params.use_seq <- tradeoff_seq ps.spec;
        ps.params.use_csum <- tradeoff_csum ps.spec;
        st.env.convey ~src:st.mref ~dst:peer
          (Peer_msg.Gre_params
             {
               pipe = ps.spec.Primitive.pipe_id;
               ikey = Option.get ps.params.ikey;
               okey = Option.get ps.params.okey;
               use_seq = ps.params.use_seq;
               use_csum = ps.params.use_csum;
             })
      end
  | _ -> ()

(* The switch rule (up pipe P1 <-> down pipe P2) is applicable once the peer
   negotiation finished and the IP module below has resolved both tunnel
   endpoint addresses. *)
let try_rule st rule =
  match rule with
  | Primitive.Bidi (x, y) -> (
      match (find_pipe st x, find_pipe st y) with
      | Some px, Some py ->
          let up, down = if px.role = `Bottom then (px, py) else (py, px) in
          if not up.params.params_ready then false
          else
            let below = down.spec.Primitive.bottom in
            let local = st.env.local_query below "address" in
            let remote =
              st.env.local_query below ("peer-addr:" ^ down.spec.Primitive.pipe_id)
            in
            (match (local, remote) with
            | Some local, Some remote ->
                let name =
                  Printf.sprintf "gre-%s-%s" up.spec.Primitive.pipe_id
                    down.spec.Primitive.pipe_id
                in
                let p = up.params in
                let key word = function Some k -> [ word; Int32.to_string k ] | None -> [] in
                if Netsim.Device.find_iface st.env.device name <> None then
                  run st.env.device [ "ip"; "tunnel"; "del"; name ];
                run st.env.device [ "insmod"; "/lib/modules/2.6.14-2/ip_gre.ko" ];
                run st.env.device
                  ([ "ip"; "tunnel"; "add"; "name"; name; "mode"; "gre" ]
                  @ [ "remote"; remote; "local"; local ]
                  @ key "ikey" p.ikey @ key "okey" p.okey
                  @ (if p.use_csum then [ "icsum"; "ocsum" ] else [])
                  @ if p.use_seq then [ "iseq"; "oseq" ] else []);
                st.tunnels <-
                  (up.spec.Primitive.pipe_id, name)
                  :: (down.spec.Primitive.pipe_id, name)
                  :: List.filter (fun (k, _) -> k <> up.spec.Primitive.pipe_id) st.tunnels;
                true
            | _ -> false)
      | _ -> false)
  | Primitive.Directed _ -> false

let poll st () =
  List.iter (negotiate st) st.pipes;
  let before = List.length st.pending in
  st.pending <- List.filter (fun r -> not (try_rule st r)) st.pending;
  if List.length st.pending <> before then st.env.progress ()

let on_peer st ~src msg =
  match msg with
  | Peer_msg.Gre_params { pipe = _; ikey; okey; use_seq; use_csum } -> (
      match find_pipe_by_peer st src with
      | None -> st.early <- (src, msg) :: st.early
      | Some ps ->
          (* mirror the initiator's view: their okey is our ikey *)
          ps.params.ikey <- Some okey;
          ps.params.okey <- Some ikey;
          ps.params.use_seq <- use_seq;
          ps.params.use_csum <- use_csum;
          ps.params.params_ready <- true;
          st.env.convey ~src:st.mref ~dst:src
            (Peer_msg.Gre_params_ack { pipe = ps.spec.Primitive.pipe_id });
          poll st ())
  | Peer_msg.Gre_params_ack _ -> (
      match find_pipe_by_peer st src with
      | Some ps ->
          ps.params.params_ready <- true;
          poll st ()
      | None -> ())
  | Peer_msg.Lfv_request _ | Peer_msg.Lfv_reply _ | Peer_msg.Mpls_label_bind _
  | Peer_msg.Vlan_vid_bind _ | Peer_msg.Vlan_vid_ack _ ->
      ()

(* Table III, generated from the implementation. *)
let abstraction () =
  {
    Abstraction.default with
    name = "GRE";
    up =
      Some
        {
          Abstraction.connectable = [ "IP" ];
          dependencies = [ "performance trade-offs to be specified" ];
        };
    down = Some { Abstraction.connectable = [ "IP" ]; dependencies = [] };
    peerable = [ "GRE" ];
    switch = [ Abstraction.Up_down; Abstraction.Down_up ];
    perf_reporting = [ "up_frames"; "up_bytes"; "down_frames"; "down_bytes" ];
    perf_tradeoffs =
      [
        { Abstraction.gives = [ "in-order-delivery" ]; costs = [ "jitter"; "delay" ] };
        { Abstraction.gives = [ "low-error-rate" ]; costs = [ "loss-rate" ] };
      ];
  }

(* up = decapsulated packets delivered upwards, down = packets
   encapsulated and pushed down towards the delivery protocol *)
let tunnel_report =
  report
    [
      ("up_frames", "rx_packets");
      ("up_bytes", "rx_bytes");
      ("down_frames", "tx_packets");
      ("down_bytes", "tx_bytes");
      ("drop:rx_errors", "rx_errors");
    ]

let tunnel_traffic = traffic ~rx:"rx_packets" ~tx:"tx_packets"

let make ~env ~mref () =
  let st =
    { env; mref; pipes = []; pending = []; tunnels = []; next_key = 1001l; early = [] }
  in
  {
    (no_op_module mref abstraction) with
    create_pipe =
      (fun spec role ->
        (match find_pipe st spec.Primitive.pipe_id with
        | Some old -> st.pipes <- List.filter (fun p -> p != old) st.pipes
        | None -> ());
        st.pipes <-
          {
            spec;
            role;
            params =
              { ikey = None; okey = None; use_seq = false; use_csum = false; params_ready = false };
          }
          :: st.pipes;
        (* replay peer messages that raced this bundle *)
        let replay, keep =
          List.partition (fun (src, _) -> find_pipe_by_peer st src <> None) st.early
        in
        st.early <- keep;
        List.iter (fun (src, m) -> on_peer st ~src m) replay;
        poll st ());
    delete_pipe =
      (fun pid ->
        (match List.assoc_opt pid st.tunnels with
        | Some name when Netsim.Device.find_iface st.env.device name <> None ->
            run st.env.device [ "ip"; "tunnel"; "del"; name ]
        | _ -> ());
        st.tunnels <- List.remove_assoc pid st.tunnels;
        st.pipes <- List.filter (fun p -> p.spec.Primitive.pipe_id <> pid) st.pipes);
    create_switch =
      (fun rule ->
        if not (List.mem rule st.pending) then st.pending <- st.pending @ [ rule ];
        poll st ());
    delete_switch = (fun rule -> st.pending <- List.filter (( <> ) rule) st.pending);
    on_peer = on_peer st;
    fields =
      (fun key ->
        match String.split_on_char ':' key with
        | [ "tundev"; pid ] -> List.assoc_opt pid st.tunnels
        | _ -> None);
    perf =
      (fun () ->
        List.map
          (fun (pid, name) ->
            ( pid,
              tunnel_report
                (Option.map
                   (fun i -> i.Netsim.Device.if_counters)
                   (Netsim.Device.find_iface st.env.device name)) ))
          st.tunnels);
    actual =
      (fun () ->
        List.filter_map
          (fun (pid, name) ->
            Option.map
              (fun i ->
                ("tunnel:" ^ pid, name ^ " " ^ tunnel_traffic i.Netsim.Device.if_counters))
              (Netsim.Device.find_iface st.env.device name))
          st.tunnels
        @ List.map (fun r -> ("pending[" ^ Primitive.rule_to_string r ^ "]", "waiting")) st.pending);
    poll = poll st;
    self_test =
      (fun ~against:_ ~reply ->
        (* Check local tunnel state consistency: every applied tunnel device
           must still exist and be up. *)
        let missing =
          List.filter
            (fun (_, name) ->
              match Netsim.Device.find_iface st.env.device name with
              | Some i -> not i.Netsim.Device.if_up
              | None -> true)
            st.tunnels
        in
        if missing = [] then reply ~ok:true ~detail:"tunnel state consistent"
        else reply ~ok:false ~detail:"tunnel device missing or down");
  }
