(* The ETH protocol module. On hosts and routers there is one per port and
   it only passes packets between its physical pipe and the module above
   ([phy=>up]/[up=>phy]); on layer-2 switches a single ETH module covers all
   ports and additionally advertises [phy=>phy] switching (§II-C.2). *)

open Module_impl

type state = {
  env : env;
  mref : Ids.t;
  ports : int list; (* port indices this module represents *)
  phys : (int * string) list; (* each port's physical pipe id, Phy-<dev>-<port> *)
  switching : bool;
  up_connectable : string list;
  mutable pipes : (Primitive.pipe_spec * role) list;
  mutable rules : Primitive.switch_rule list;
}

let port_report =
  report
    [
      ("up_frames", "rx_frames");
      ("up_bytes", "rx_bytes");
      ("down_frames", "tx_frames");
      ("down_bytes", "tx_bytes");
      ("drop:rx_bad", "rx_bad");
      ("drop:rx_vlan", "rx_vlan_drop");
      ("drop:tx_down", "tx_down");
    ]

let port_traffic = traffic ~rx:"rx_frames" ~tx:"tx_frames"

let phys_pipe_id (st : state) port_index = List.assoc port_index st.phys

let port_of_phys st phys_id =
  List.find_map (fun (i, id) -> if String.equal id phys_id then Some i else None) st.phys

let port_name st i = (Netsim.Device.port st.env.device i).Netsim.Device.port_name

let abstraction ~neighbours st () =
  let physical =
    List.map
      (fun i ->
        let peer_device, peer_port, broadcast =
          match neighbours i with
          | [ (d, p) ] -> (d, p, false)
          | [] -> ("", "", false)
          | (d, p) :: _ -> (d, p, true)
        in
        { Abstraction.phys_id = phys_pipe_id st i; peer_device; peer_port; broadcast })
      st.ports
  in
  {
    Abstraction.default with
    name = "ETH";
    up = Some { Abstraction.connectable = st.up_connectable; dependencies = [] };
    down = None;
    physical;
    peerable = [ "ETH" ];
    switch =
      (if st.switching then [ Abstraction.Phy_up; Abstraction.Up_phy; Abstraction.Phy_phy ]
       else [ Abstraction.Phy_up; Abstraction.Up_phy ]);
    perf_reporting = [ "up_frames"; "up_bytes"; "down_frames"; "down_bytes" ];
  }

(* Queries the VLAN module uses to locate ports (see {!Vlan_module}):
   - "port-of-phy:<physid>": port name for a physical pipe id
   - "tunnel-port:<pipe>": port named as P0 in a [P0, Tagged => pipe] rule
   - "trunk-port:<pipe>": port named as P4 in a (pipe, P4) rule *)
let fields st key =
  match String.split_on_char ':' key with
  | [ "iface" ] -> (
      match st.ports with i :: _ -> Some (port_name st i) | [] -> None)
  | [ "mac" ] -> (
      match st.ports with
      | i :: _ ->
          Some
            (Packet.Mac_addr.to_string (Netsim.Device.port st.env.device i).Netsim.Device.port_mac)
      | [] -> None)
  | [ "port-of-phy"; phys ] -> Option.map (port_name st) (port_of_phys st phys)
  | [ "tunnel-port"; pipe ] ->
      List.find_map
        (function
          | Primitive.Directed { from_pipe; to_pipe; sel = Primitive.Tagged }
            when to_pipe = pipe ->
              Option.map (port_name st) (port_of_phys st from_pipe)
          | _ -> None)
        st.rules
  | [ "trunk-port"; pipe ] ->
      List.find_map
        (function
          | Primitive.Bidi (a, b) when a = pipe -> Option.map (port_name st) (port_of_phys st b)
          | Primitive.Bidi (a, b) when b = pipe -> Option.map (port_name st) (port_of_phys st a)
          | _ -> None)
        st.rules
  | _ -> None

let make ~env ~mref ~ports ~switching ~neighbours () =
  let phys_id i =
    "Phy-" ^ env.device.Netsim.Device.dev_name ^ "-"
    ^ (Netsim.Device.port env.device i).Netsim.Device.port_name
  in
  let st =
    {
      env;
      mref;
      ports;
      phys = List.map (fun i -> (i, phys_id i)) ports;
      switching;
      up_connectable = (if switching then [ "IP"; "MPLS"; "VLAN" ] else [ "IP"; "MPLS" ]);
      pipes = [];
      rules = [];
    }
  in
  {
    (no_op_module mref (abstraction ~neighbours st)) with
    create_pipe =
      (fun spec role ->
        st.pipes <- (spec, role) :: List.remove_assoc spec st.pipes;
        env.progress ());
    delete_pipe =
      (fun pid -> st.pipes <- List.filter (fun (s, _) -> s.Primitive.pipe_id <> pid) st.pipes);
    create_switch =
      (fun rule ->
        if not (List.mem rule st.rules) then st.rules <- st.rules @ [ rule ];
        env.progress ());
    delete_switch = (fun rule -> st.rules <- List.filter (( <> ) rule) st.rules);
    fields = fields st;
    perf =
      (fun () ->
        (* up = frames delivered off the wire towards the module above;
           down = frames sent onto the wire *)
        List.map
          (fun (i, phys_id) ->
            let p = Netsim.Device.port st.env.device i in
            (phys_id, port_report (Some p.Netsim.Device.port_counters)))
          st.phys);
    actual =
      (fun () ->
        List.map
          (fun i ->
            let p = Netsim.Device.port st.env.device i in
            ("port:" ^ p.Netsim.Device.port_name, port_traffic p.Netsim.Device.port_counters))
          st.ports
        @ List.map (fun r -> ("switch", Primitive.rule_to_string r)) st.rules
        @ List.map
            (fun (s, _) -> ("pipe", s.Primitive.pipe_id))
            st.pipes);
    self_test =
      (fun ~against:_ ~reply ->
        (* An ETH module is healthy when its ports have links and are up. *)
        let bad =
          List.filter
            (fun i ->
              let p = Netsim.Device.port st.env.device i in
              (not p.Netsim.Device.port_up) || p.Netsim.Device.port_endpoint = None)
            st.ports
        in
        if bad = [] then reply ~ok:true ~detail:"all ports up"
        else reply ~ok:false ~detail:(Printf.sprintf "%d port(s) down or unplugged" (List.length bad)));
  }
