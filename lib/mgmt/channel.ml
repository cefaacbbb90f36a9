(* The management channel: device-to-NM communication that must work before
   (and independently of) any data-plane configuration.

   Two implementations, as in the paper's §III-A:
   - [Oob]: a pre-configured out-of-band network (the separate management
     NICs of the authors' testbed), modelled as direct delivery with a
     fixed latency;
   - [Raw]: the straw-man in-band channel — flooding of raw Ethernet
     frames with per-source sequence-number suppression, needing no
     configuration at all (the 4D discovery/dissemination plane). *)

open Netsim

type handler = src:string -> bytes -> unit

type stats = {
  mutable frames_sent : int;
  mutable bytes_sent : int;
  mutable frames_delivered : int;
  mutable frames_dropped : int;
  mutable seen_high_water : int;
}

let fresh_stats () =
  { frames_sent = 0; bytes_sent = 0; frames_delivered = 0; frames_dropped = 0; seen_high_water = 0 }

let count_sent stats payload =
  stats.frames_sent <- stats.frames_sent + 1;
  stats.bytes_sent <- stats.bytes_sent + Bytes.length payload

type t = {
  send : cls:int -> src:string -> dst:string -> bytes -> unit;
  subscribe : string -> handler -> unit;
  stats : stats;
}

let send t ~cls ~src ~dst payload = t.send ~cls ~src ~dst payload
let subscribe t ~device_id handler = t.subscribe device_id handler
let stats t = t.stats

let make ~send ~subscribe ~stats = { send; subscribe; stats }

(* --- out-of-band ------------------------------------------------------ *)

module Oob = struct
  let create ?(latency_ns = 2_000L) eq =
    let handlers : (string, handler) Hashtbl.t = Hashtbl.create 16 in
    let stats = fresh_stats () in
    let deliver ~src ~dst payload =
      match Hashtbl.find_opt handlers dst with
      | Some h ->
          stats.frames_delivered <- stats.frames_delivered + 1;
          h ~src payload
      | None -> ()
    in
    let send ~cls:_ ~src ~dst payload =
      count_sent stats payload;
      Event_queue.schedule eq ~delay_ns:latency_ns (fun () ->
          if dst = Frame.broadcast then
            Hashtbl.iter
              (fun id h ->
                if id <> src then begin
                  stats.frames_delivered <- stats.frames_delivered + 1;
                  h ~src payload
                end)
              handlers
          else deliver ~src ~dst payload)
    in
    { send; subscribe = (fun id h -> Hashtbl.replace handlers id h); stats }
end

(* --- raw in-band flooding --------------------------------------------- *)

module Raw = struct
  (* Per-source flood-suppression state: a sliding window over the source's
     sequence numbers. Anything at or below [hi - window] is treated as
     already seen; in-window sequence numbers are tracked individually so
     reordered floods are still deduplicated. Bounded: at most [window]
     entries per source, old entries evicted as [hi] advances. *)
  type swin = { mutable hi : int; recent : (int, unit) Hashtbl.t }

  type agent = {
    device : Device.t;
    mutable next_seq : int;
    seen : (string, swin) Hashtbl.t;
    window : int;
    mutable handler : handler option;
  }

  let default_window = 512

  (* Returns [true] if [seq] from [src] was already seen (or is too old to
     tell); records it otherwise. *)
  let seen_before agent src seq =
    let win =
      match Hashtbl.find_opt agent.seen src with
      | Some w -> w
      | None ->
          let w = { hi = 0; recent = Hashtbl.create 16 } in
          Hashtbl.add agent.seen src w;
          w
    in
    if seq <= win.hi - agent.window then true
    else if Hashtbl.mem win.recent seq then true
    else begin
      Hashtbl.replace win.recent seq ();
      if seq > win.hi then begin
        (* evict everything that just slid out of the window *)
        for s = win.hi - agent.window + 1 to seq - agent.window do
          Hashtbl.remove win.recent s
        done;
        win.hi <- seq
      end;
      false
    end

  type net_state = {
    mutable agents : agent list;
    raw_stats : stats;
  }

  let note_seen_size st agent src =
    match Hashtbl.find_opt agent.seen src with
    | None -> ()
    | Some w ->
        let n = Hashtbl.length w.recent in
        if n > st.raw_stats.seen_high_water then st.raw_stats.seen_high_water <- n

  (* Sends the [len] bytes at [off] of [buf] out of every port but [except]. *)
  let flood agent ?(except = -1) buf off len =
    Array.iter
      (fun (p : Device.port) ->
        if p.Device.port_index <> except then
          Datapath.transmit agent.device p.Device.port_index
            (Packet.Ethernet.frame ~dst:Packet.Mac_addr.broadcast ~src:p.Device.port_mac
               Packet.Ethertype.Mgmt buf off len))
      agent.device.Device.ports

  let create ?(window = default_window) () =
    let st = { agents = []; raw_stats = fresh_stats () } in
    let find_agent id =
      List.find_opt (fun a -> a.device.Device.dev_id = id) st.agents
    in
    let deliver agent (f : Frame.t) =
      match agent.handler with
      | Some h ->
          st.raw_stats.frames_delivered <- st.raw_stats.frames_delivered + 1;
          h ~src:f.Frame.src_device f.Frame.payload
      | None -> ()
    in
    let send ~cls:_ ~src ~dst payload =
      match find_agent src with
      | None ->
          (* A crashed or detached device mid-flight must not abort the
             event loop: drop and count instead of raising. *)
          st.raw_stats.frames_dropped <- st.raw_stats.frames_dropped + 1
      | Some agent ->
          count_sent st.raw_stats payload;
          agent.next_seq <- agent.next_seq + 1;
          let f =
            { Frame.src_device = src; dst_device = dst; seq = agent.next_seq; payload }
          in
          ignore (seen_before agent src f.Frame.seq);
          note_seen_size st agent src;
          (* Local loopback when a device messages itself (e.g. the NM's own
             modules). Broadcasts are never self-delivered. *)
          if dst = src then deliver agent f
          else
            let b = Frame.encode f in
            flood agent b 0 (Bytes.length b)
    in
    let subscribe id h =
      match find_agent id with
      | Some a -> a.handler <- Some h
      | None -> failwith ("mgmt raw channel: device not attached: " ^ id)
    in
    let chan = { send; subscribe; stats = st.raw_stats } in
    let attach device =
      let agent =
        { device; next_seq = 0; seen = Hashtbl.create 8; window; handler = None }
      in
      st.agents <- agent :: st.agents;
      device.Device.mgmt_hook <-
        Some
          (fun ~in_port frame ->
            let off = Packet.Ethernet.header_size in
            match Frame.decode frame off with
            | exception Frame.Bad_frame _ -> ()
            | f ->
                if not (seen_before agent f.Frame.src_device f.Frame.seq) then begin
                  note_seen_size st agent f.Frame.src_device;
                  let mine = f.Frame.dst_device = device.Device.dev_id in
                  let bcast = f.Frame.dst_device = Frame.broadcast in
                  if mine || bcast then deliver agent f;
                  (* Forward everything that is not exclusively ours: the
                     4D-style dissemination. *)
                  if not mine then flood agent ~except:in_port frame off (Bytes.length frame - off)
                end)
    in
    (chan, attach)
end
