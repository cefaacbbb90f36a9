(* ICMP-echo based reachability testing: the tool every debugging story in
   the paper ultimately reduces to. Sends a request, runs the simulation and
   reports whether the matching reply arrived. *)

open Packet

let next_id = ref 0

(* [reachable net ~from ~src ~dst] sends one echo request from [from] and
   runs the network to quiescence. *)
let reachable ?payload net ~from ~src ~dst () =
  incr next_id;
  let id = !next_id land 0xffff in
  let data = match payload with Some p -> p | None -> Bytes.of_string "conman-ping" in
  let replied = ref false in
  let waiter hdr = function
    | Icmp.Echo_reply r when r.id = id && Ipv4_addr.equal hdr.Ipv4.src dst -> replied := true
    | Icmp.Echo_reply _ | Icmp.Echo_request _ | Icmp.Dest_unreachable _ | Icmp.Time_exceeded -> ()
  in
  Device.add_icmp_waiter from waiter;
  Datapath.icmp_echo from ~src ~dst ~id ~seq:1 data;
  ignore (Net.run net);
  Device.remove_icmp_waiter from waiter;
  !replied
