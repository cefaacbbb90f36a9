(* The VLAN protocol module on layer-2 switches (figure 9). The NM creates a
   customer-side pipe (peered with the far switch's VLAN module) and
   trunk-side pipes (peered with adjacent VLAN modules); the ingress module
   allocates a VLAN id, propagates it hop by hop, and each module then
   programs its switch ports (QinQ tunnel port towards the customer, tagged
   trunks between switches) — the state the CatOS script of figure 9(a)
   writes by hand. *)

open Module_impl

(* The VLAN id pool starts where the paper's example does. *)
let first_vid = 22

(* MTU needed on the trunk VLAN so a full-size tagged customer frame
   survives the extra QinQ tag — the "ensure MTU is set properly" comment
   of figure 9(a). *)
let tunnel_mtu = 1504

type pipe_state = {
  spec : Primitive.pipe_spec;
  role : role;
  (* [role = `Bottom]: customer-side pipe, peer is the far-end VLAN module;
     [role = `Top]: trunk-side pipe, peer is the adjacent VLAN module. *)
}

type state = {
  env : env;
  mref : Ids.t;
  mutable pipes : pipe_state list;
  mutable vid : int option;
  mutable acked : Ids.t list; (* peers that confirmed the vid *)
  mutable rules : Primitive.switch_rule list;
  mutable applied : bool;
  mutable completed : bool;
  mutable early : (Ids.t * Peer_msg.t) list; (* peer msgs that raced our bundle *)
  mutable applied_ports : (string * [ `Tunnel | `Trunk ]) list; (* for teardown *)
}

let my_peer ps =
  match ps.role with `Top -> ps.spec.Primitive.peer_top | `Bottom -> ps.spec.Primitive.peer_bottom

let customer_pipe st = List.find_opt (fun p -> p.role = `Bottom) st.pipes
let trunk_pipes st = List.filter (fun p -> p.role = `Top) st.pipes

let is_initiator st =
  match customer_pipe st with
  | Some ps -> ( match my_peer ps with Some far -> initiates st.mref far | None -> false)
  | None -> false

let propagate st ~except =
  List.iter
    (fun ps ->
      match my_peer ps with
      | Some peer when not (List.exists (Ids.equal peer) except) ->
          st.env.convey ~src:st.mref ~dst:peer
            (Peer_msg.Vlan_vid_bind
               { pipe = ps.spec.Primitive.pipe_id; vid = Option.get st.vid })
      | _ -> ())
    (trunk_pipes st)

(* Applies port modes once the vid is agreed and the ETH module's switch
   rules reveal which ports are customer- and trunk-facing. *)
let try_apply st =
  match st.vid with
  | None -> ()
  | Some vid ->
      let dev = st.env.device in
      let ok = ref (not st.applied) in
      if !ok then begin
        (* trunk ports, from [P2 <-> P4]-style rules on the ETH module *)
        let trunk_ports =
          List.filter_map
            (fun ps ->
              st.env.local_query ps.spec.Primitive.bottom
                ("trunk-port:" ^ ps.spec.Primitive.pipe_id))
            (trunk_pipes st)
        in
        let tunnel_port =
          match customer_pipe st with
          | Some ps ->
              st.env.local_query ps.spec.Primitive.top
                ("tunnel-port:" ^ ps.spec.Primitive.pipe_id)
          | None -> None
        in
        if List.length trunk_ports <> List.length (trunk_pipes st) then ok := false
        else if customer_pipe st <> None && tunnel_port = None then ok := false
        else begin
          let def = Netsim.Device.vlan_def dev vid in
          def.Netsim.Device.vd_mtu <- tunnel_mtu;
          (match tunnel_port with
          | Some name -> (
              match Netsim.Device.port_by_name dev name with
              | Some p ->
                  p.Netsim.Device.port_mode <- Netsim.Device.Dot1q_tunnel vid;
                  st.applied_ports <- (name, `Tunnel) :: st.applied_ports
              | None -> ok := false)
          | None -> ());
          List.iter
            (fun name ->
              match Netsim.Device.port_by_name dev name with
              | Some p ->
                  (match p.Netsim.Device.port_mode with
                  | Netsim.Device.Trunk tr ->
                      if not (List.mem vid tr.Netsim.Device.allowed) then
                        tr.Netsim.Device.allowed <- vid :: tr.Netsim.Device.allowed
                  | _ ->
                      p.Netsim.Device.port_mode <-
                        Netsim.Device.Trunk { allowed = [ vid ]; native = None });
                  st.applied_ports <- (name, `Trunk) :: st.applied_ports
              | None -> ok := false)
            trunk_ports;
          if !ok then begin
            st.applied <- true;
            (* The far-end module reports the tunnel as established. *)
            if st.env.is_reporter st.mref && not st.completed then begin
              st.completed <- true;
              st.env.notify_nm (Wire.Completion { src = st.mref; what = "vlan-tunnel-established" })
            end
          end
        end
      end

let poll st () =
  (match (st.vid, is_initiator st) with
  | None, true when trunk_pipes st <> [] ->
      st.vid <- Some first_vid;
      propagate st ~except:[]
  | _ -> ());
  try_apply st

(* A bind can arrive before our own bundle: without pipes we could neither
   ack against a pipe nor propagate further, so stash and replay. *)
let peer_known st src =
  List.exists
    (fun ps -> match my_peer ps with Some p -> Ids.equal p src | None -> false)
    st.pipes

let on_peer st ~src msg =
  match msg with
  | Peer_msg.Vlan_vid_bind { pipe = _; vid = _ } when not (peer_known st src) ->
      st.early <- (src, msg) :: st.early
  | Peer_msg.Vlan_vid_bind { pipe = _; vid } ->
      st.vid <- Some vid;
      st.env.convey ~src:st.mref ~dst:src (Peer_msg.Vlan_vid_ack { pipe = "" });
      propagate st ~except:[ src ];
      poll st ();
      st.env.progress ()
  | Peer_msg.Vlan_vid_ack _ ->
      st.acked <- src :: st.acked;
      poll st ()
  | Peer_msg.Gre_params _ | Peer_msg.Gre_params_ack _ | Peer_msg.Lfv_request _
  | Peer_msg.Lfv_reply _ | Peer_msg.Mpls_label_bind _ ->
      ()

let abstraction () =
  {
    Abstraction.default with
    name = "VLAN";
    up = Some { Abstraction.connectable = [ "ETH" ]; dependencies = [] };
    down = Some { Abstraction.connectable = [ "ETH" ]; dependencies = [] };
    peerable = [ "VLAN" ];
    switch = [ Abstraction.Down_up; Abstraction.Up_down; Abstraction.Down_down ];
    perf_reporting = [ "up_frames"; "up_bytes"; "down_frames"; "down_bytes"; "tagged_frames" ];
    reports_completion = true;
  }

let port_report =
  report
    [
      ("up_frames", "rx_frames");
      ("up_bytes", "rx_bytes");
      ("down_frames", "tx_frames");
      ("down_bytes", "tx_bytes");
      ("tagged_frames", "tagged_frames");
      ("drop:rx_vlan", "rx_vlan_drop");
      ("drop:tx_mtu_or_vlan", "tx_mtu_or_vlan_drop");
    ]

let make ~env ~mref () =
  let st =
    {
      env;
      mref;
      pipes = [];
      vid = None;
      acked = [];
      rules = [];
      applied = false;
      completed = false;
      early = [];
      applied_ports = [];
    }
  in
  {
    (no_op_module mref abstraction) with
    create_pipe =
      (fun spec role ->
        st.pipes <-
          { spec; role }
          :: List.filter (fun p -> p.spec.Primitive.pipe_id <> spec.Primitive.pipe_id) st.pipes;
        let replay, keep = List.partition (fun (src, _) -> peer_known st src) st.early in
        st.early <- keep;
        List.iter (fun (src, m) -> on_peer st ~src m) replay;
        poll st ());
    delete_pipe =
      (fun pid ->
        let gone, kept =
          List.partition (fun p -> p.spec.Primitive.pipe_id = pid) st.pipes
        in
        st.pipes <- kept;
        (* deprogram the ports we drove once our last pipe goes away *)
        if gone <> [] && st.pipes = [] && st.applied then begin
          List.iter
            (fun (name, kind) ->
              match Netsim.Device.port_by_name st.env.device name with
              | Some p ->
                  (* customer ports go to an isolated holding VLAN rather
                     than the default VLAN, so tearing a tunnel down never
                     leaks customer traffic into the provider's L2 domain *)
                  p.Netsim.Device.port_mode <-
                    (match kind with
                    | `Tunnel -> Netsim.Device.Access 4094
                    | `Trunk -> Netsim.Device.No_vlan)
              | None -> ())
            st.applied_ports;
          st.applied_ports <- [];
          st.applied <- false;
          st.vid <- None
        end);
    create_switch =
      (fun rule ->
        if not (List.mem rule st.rules) then st.rules <- st.rules @ [ rule ];
        poll st ());
    delete_switch = (fun rule -> st.rules <- List.filter (( <> ) rule) st.rules);
    on_peer = on_peer st;
    fields =
      (fun key -> match key with "vid" -> Option.map string_of_int st.vid | _ -> None);
    perf =
      (fun () ->
        (* per programmed port: frames crossing it plus the egress tags the
           trunk pushed (the counter behind "tagged_frames") *)
        List.filter_map
          (fun (name, kind) ->
            match Netsim.Device.port_by_name st.env.device name with
            | Some p ->
                Some
                  ( (match kind with `Tunnel -> "tunnel:" | `Trunk -> "trunk:") ^ name,
                    port_report (Some p.Netsim.Device.port_counters) )
            | None -> None)
          st.applied_ports);
    actual =
      (fun () ->
        [
          ("vid", match st.vid with Some v -> string_of_int v | None -> "unassigned");
          ("applied", string_of_bool st.applied);
        ]);
    poll = poll st;
    self_test =
      (fun ~against:_ ~reply ->
        if st.applied then reply ~ok:true ~detail:"vlan state programmed"
        else reply ~ok:false ~detail:"vlan tunnel not established");
  }
