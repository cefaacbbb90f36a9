(* The ESP (IPsec) protocol module — figure 1's example of a module with an
   external dependency. Unlike GRE, it does NOT negotiate its parameters
   with its peer: the keying material is a declared dependency ("esp-keys")
   that the NM resolves to a control module (IKE, §II-F) when creating the
   up pipe. The module waits until the IKE module has keys for the tunnel
   endpoints, then emits the device-level `ip tunnel add ... mode esp`. *)

open Module_impl

type pipe_state = { spec : Primitive.pipe_spec; role : role }

type state = {
  env : env;
  mref : Ids.t;
  mutable pipes : pipe_state list;
  mutable pending : Primitive.switch_rule list;
  mutable tunnels : (string * string) list; (* pipe id -> tunnel device *)
}

let find_pipe st pid = List.find_opt (fun p -> p.spec.Primitive.pipe_id = pid) st.pipes

(* the control module resolved for the up pipe's "esp-keys" dependency *)
let key_provider ps = List.assoc_opt "esp-keys" ps.spec.Primitive.deps

let try_rule st rule =
  match rule with
  | Primitive.Bidi (x, y) -> (
      match (find_pipe st x, find_pipe st y) with
      | Some px, Some py -> (
          let up, down = if px.role = `Bottom then (px, py) else (py, px) in
          let below = down.spec.Primitive.bottom in
          let local = st.env.local_query below "address" in
          let remote = st.env.local_query below ("peer-addr:" ^ down.spec.Primitive.pipe_id) in
          match (local, remote, key_provider up) with
          | Some local, Some remote, Some ike -> (
              match st.env.local_query ike (Printf.sprintf "keys:%s:%s" local remote) with
              | Some keys -> (
                  match String.split_on_char ',' keys with
                  | [ spi_in; key_in; spi_out; key_out ] ->
                      let name =
                        Printf.sprintf "esp-%s-%s" up.spec.Primitive.pipe_id
                          down.spec.Primitive.pipe_id
                      in
                      if Netsim.Device.find_iface st.env.device name <> None then
                        run st.env.device [ "ip"; "tunnel"; "del"; name ];
                      run st.env.device [ "insmod"; "/lib/modules/2.6.14-2/esp4.ko" ];
                      run st.env.device
                        [
                          "ip"; "tunnel"; "add"; "name"; name; "mode"; "esp"; "remote"; remote;
                          "local"; local; "ikey"; spi_in; "okey"; spi_out; "ienc"; key_in;
                          "oenc"; key_out;
                        ];
                      st.tunnels <-
                        (up.spec.Primitive.pipe_id, name)
                        :: (down.spec.Primitive.pipe_id, name)
                        :: List.filter
                             (fun (k, _) -> k <> up.spec.Primitive.pipe_id)
                             st.tunnels;
                      true
                  | _ -> false)
              | None -> false (* IKE still negotiating; poll retries *))
          | _ -> false)
      | _ -> false)
  | Primitive.Directed _ -> false

let poll st () =
  let before = List.length st.pending in
  st.pending <- List.filter (fun r -> not (try_rule st r)) st.pending;
  if List.length st.pending <> before then st.env.progress ()

let abstraction () =
  {
    Abstraction.default with
    name = "ESP";
    up =
      Some
        {
          Abstraction.connectable = [ "IP" ];
          (* the keying material must be provided externally: the paper's
             canonical dependency example (IP-Sec depending on IKE) *)
          dependencies = [ "esp-keys" ];
        };
    down = Some { Abstraction.connectable = [ "IP" ]; dependencies = [] };
    peerable = [ "ESP" ];
    switch = [ Abstraction.Up_down; Abstraction.Down_up ];
    perf_reporting = [ "up_frames"; "up_bytes"; "down_frames"; "down_bytes" ];
    security = [ "confidentiality"; "integrity" ];
  }

(* up = authenticated+decrypted packets delivered upwards, down = packets
   sealed and pushed down; no-SA sends count as drops, not transmissions *)
let tunnel_report =
  report
    [
      ("up_frames", "rx_packets");
      ("up_bytes", "rx_bytes");
      ("down_frames", "tx_packets");
      ("down_bytes", "tx_bytes");
      ("drop:rx_errors", "rx_errors");
      ("drop:no_sa", "tx_no_sa_drop");
    ]

let tunnel_traffic = traffic ~rx:"rx_packets" ~tx:"tx_packets"

let make ~env ~mref () =
  let st = { env; mref; pipes = []; pending = []; tunnels = [] } in
  {
    (no_op_module mref abstraction) with
    create_pipe =
      (fun spec role ->
        st.pipes <-
          { spec; role }
          :: List.filter (fun p -> p.spec.Primitive.pipe_id <> spec.Primitive.pipe_id) st.pipes;
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
        if st.pending <> [] then reply ~ok:false ~detail:"SA not established yet"
        else reply ~ok:true ~detail:"ESP state consistent");
  }
