(* A network: an event queue plus devices and link segments, with helpers to
   wire topologies and run the simulation to quiescence. *)

type edge = {
  edge_name : string;
  segment : Link.segment;
  attachments : (Device.t * int) list; (* (device, port index) *)
}

type t = {
  eq : Event_queue.t;
  mutable devices : Device.t list;
  mutable edges : edge list;
}

let create () = { eq = Event_queue.create (); devices = []; edges = [] }

let eq t = t.eq

let add_device ?(switching = false) t ~id ~name =
  let dev = Device.create ~switching ~eq:t.eq ~id ~name () in
  Datapath.activate dev;
  t.devices <- t.devices @ [ dev ];
  dev

let devices t = t.devices

let device_by_id t id = List.find_opt (fun d -> d.Device.dev_id = id) t.devices

(* A broadcast segment with the given attachments; a two-element list is a
   point-to-point cable. *)
let lan ?latency_ns ?mtu ?(name = "lan") t attachments =
  let segment = Link.create_segment ?latency_ns ?mtu t.eq in
  List.iter (fun (d, p) -> Device.attach_port d p (Link.attach segment)) attachments;
  t.edges <- t.edges @ [ { edge_name = name; segment; attachments } ];
  segment

let connect ?latency_ns ?mtu ?name t (a, pa) (b, pb) =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s/%d--%s/%d" a.Device.dev_name pa b.Device.dev_name pb
  in
  lan ?latency_ns ?mtu ~name t [ (a, pa); (b, pb) ]

let edges t = t.edges

let find_segment t name =
  List.find_map (fun e -> if e.edge_name = name then Some e.segment else None) t.edges

let find_segment_exn t name =
  match find_segment t name with
  | Some s -> s
  | None -> failwith ("Net.find_segment: no segment " ^ name)

(* Physical neighbours of a device port: every other attachment that shares
   a segment with it. This is what each device's management agent reports to
   the NM as its physical connectivity. *)
let neighbours t dev port_index =
  List.concat_map
    (fun e ->
      if List.exists (fun (d, p) -> d == dev && p = port_index) e.attachments then
        List.filter (fun (d, p) -> not (d == dev && p = port_index)) e.attachments
      else [])
    t.edges

let run ?max_events t = Event_queue.run ?max_events t.eq
let run_until ?max_events t ~deadline = Event_queue.run_until ?max_events t.eq ~deadline
