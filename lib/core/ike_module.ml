(* The IKE control module (§II-F, figure 1).

   Control modules do not fit the data-module abstraction: they "advertise
   their ability to provide the state for certain data modules and the NM
   simply uses them". This one provides the "esp-keys" dependency: when the
   local ESP module asks for keying material towards a peer, IKE negotiates
   SPIs and keys with the remote IKE *over the data plane* (UDP port 500,
   figure 1's "IKE has a pipe to UDP"), retransmitting until acknowledged —
   which also means key exchange only completes once the underlying IP path
   works, exactly the bootstrapping order of a real IPsec deployment. *)

open Module_impl

let ike_port = 500
let retransmit_ns = 100_000L
let max_tries = 50

type sa = {
  sa_local : string;
  sa_remote : string;
  (* from our perspective *)
  mutable spi_in : int32;
  mutable key_in : int32;
  mutable spi_out : int32;
  mutable key_out : int32;
  mutable established : bool;
  mutable tries : int;
}

type state = {
  env : env;
  mref : Ids.t;
  mutable sas : sa list;
  mutable next_spi : int32;
  mutable next_key : int32;
}

let find_sa st ~local ~remote =
  List.find_opt (fun sa -> sa.sa_local = local && sa.sa_remote = remote) st.sas

(* the lower address initiates, so exactly one side proposes *)
let initiator ~local ~remote = compare local remote < 0

let wire_of_msg m = Bytes.of_string (Sexp.to_string m)

let send_udp st ~local ~remote payload =
  Netsim.Datapath.udp_send st.env.device
    ~src:(Packet.Ipv4_addr.of_string local)
    ~dst:(Packet.Ipv4_addr.of_string remote)
    ~src_port:ike_port ~dst_port:ike_port payload

let proposal sa =
  (* fields are named from the RESPONDER's perspective so it can adopt them
     directly: our in is their out *)
  Sexp.List
    [
      Sexp.atom "ike-proposal";
      Sexp.atom sa.sa_local;
      Sexp.atom sa.sa_remote;
      Sexp.atom (Int32.to_string sa.spi_out); (* responder receives on this *)
      Sexp.atom (Int32.to_string sa.key_out);
      Sexp.atom (Int32.to_string sa.spi_in);
      Sexp.atom (Int32.to_string sa.key_in);
    ]

let ack sa =
  Sexp.List [ Sexp.atom "ike-ack"; Sexp.atom sa.sa_local; Sexp.atom sa.sa_remote ]

let rec transmit_until_acked st sa =
  if (not sa.established) && sa.tries < max_tries then begin
    sa.tries <- sa.tries + 1;
    send_udp st ~local:sa.sa_local ~remote:sa.sa_remote (wire_of_msg (proposal sa));
    st.env.schedule ~delay_ns:retransmit_ns (fun () -> transmit_until_acked st sa)
  end

let start_negotiation st ~local ~remote =
  let sa =
    {
      sa_local = local;
      sa_remote = remote;
      spi_in = st.next_spi;
      key_in = st.next_key;
      spi_out = Int32.add st.next_spi 1l;
      key_out = Int32.add st.next_key 1l;
      established = false;
      tries = 0;
    }
  in
  st.next_spi <- Int32.add st.next_spi 2l;
  st.next_key <- Int32.add st.next_key 1000l;
  st.sas <- sa :: st.sas;
  if initiator ~local ~remote then transmit_until_acked st sa;
  sa

let on_udp st ~src:_ ~src_port:_ payload =
  match Sexp.of_string (Bytes.to_string payload) with
  | exception Sexp.Parse_error _ -> ()
  | Sexp.List
      [ Sexp.Atom "ike-proposal"; Sexp.Atom their_local; Sexp.Atom their_remote;
        Sexp.Atom spi_in; Sexp.Atom key_in; Sexp.Atom spi_out; Sexp.Atom key_out ] ->
      (* we are the responder: [their_remote] is our local address *)
      let local = their_remote and remote = their_local in
      let sa =
        match find_sa st ~local ~remote with
        | Some sa -> sa
        | None -> start_negotiation st ~local ~remote
      in
      if not sa.established then begin
        sa.spi_in <- Int32.of_string spi_in;
        sa.key_in <- Int32.of_string key_in;
        sa.spi_out <- Int32.of_string spi_out;
        sa.key_out <- Int32.of_string key_out;
        sa.established <- true;
        st.env.progress ()
      end;
      send_udp st ~local ~remote (wire_of_msg (ack sa))
  | Sexp.List [ Sexp.Atom "ike-ack"; Sexp.Atom their_local; Sexp.Atom their_remote ] -> (
      match find_sa st ~local:their_remote ~remote:their_local with
      | Some sa when not sa.established ->
          sa.established <- true;
          st.env.progress ()
      | _ -> ())
  | _ -> ()

let abstraction () =
  {
    Abstraction.default with
    name = "IKE";
    (* figure 1: the control module rides UDP for delivery *)
    up = Some { Abstraction.connectable = [ "UDP" ]; dependencies = [] };
    peerable = [ "IKE" ];
    provides = [ "esp-keys" ];
    security = [ "key-exchange" ];
  }

let make ~env ~mref () =
  let st = { env; mref; sas = []; next_spi = 0x100l; next_key = 7001l } in
  Netsim.Device.udp_bind env.device ~port:ike_port (fun ~src ~src_port payload ->
      on_udp st ~src ~src_port payload);
  {
    (no_op_module mref abstraction) with
    fields =
      (fun key ->
        match String.split_on_char ':' key with
        | [ "keys"; local; remote ] -> (
            match find_sa st ~local ~remote with
            | Some sa when sa.established ->
                Some
                  (Printf.sprintf "%ld,%ld,%ld,%ld" sa.spi_in sa.key_in sa.spi_out sa.key_out)
            | Some _ -> None
            | None ->
                let _ = start_negotiation st ~local ~remote in
                None)
        | _ -> None);
    actual =
      (fun () ->
        List.map
          (fun sa ->
            ( "sa:" ^ sa.sa_local ^ "->" ^ sa.sa_remote,
              if sa.established then "established"
              else "negotiating (try " ^ string_of_int sa.tries ^ ")" ))
          st.sas);
    self_test =
      (fun ~against:_ ~reply ->
        if List.for_all (fun sa -> sa.established) st.sas then
          reply ~ok:true ~detail:"all SAs established"
        else reply ~ok:false ~detail:"SA negotiation incomplete");
  }
